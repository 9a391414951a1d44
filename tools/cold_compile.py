"""What a cold CLI call compiles: per package module, the time to compile
its source, and the top-level functions that the command lines never call.

    python3 tools/cold_compile.py --workload qtable --runs 31
    python3 tools/cold_compile.py --command "eval --family lah --n 3 --k 2" --runs 1

With bytecode writing off (``PYTHONDONTWRITEBYTECODE=1``, or a read-only
checkout), every cold call compiles each module it imports from source, so
the code a module holds costs every call that loads it, whether the call
runs that code or not. This script sizes that cost for a set of command
lines: a workload's, as ``perfbench/workloads.py`` makes them (seed 0, at
full size), or the ``--command`` lines given.

One fresh interpreter runs every command line in process, through
``whitneylah.cli.main`` with its output discarded, under a profile hook
that records each Python function entered; the ``whitneylah`` modules it
has loaded at the end are the ones measured. Then each of ``--runs`` fresh
interpreters compiles every one of those modules' sources once, as import
does (``compile`` of the source bytes), after one warm-up compile; the
script prints each module's median over the interpreters and the sum of
the medians. Last it lists, per module, the top-level functions that no
command line entered, with their line counts, decorators included: code
that those command lines compile and never run. The lists are read off the
source with ``ast``; nothing is imported into this process but the
workloads module. ``--src DIR`` measures the package under another
checkout's ``src``, such as a parent commit's, for a before/after table.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs the command lines of argv[1] (a JSON list of argv lists) under a
# profile hook; prints the loaded package modules and the entered code.
_RUN = r"""
import contextlib, io, json, sys
entered = set()

def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(hook)
from whitneylah.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(list(argv)))
sys.setprofile(None)
modules = {
    name: module.__file__
    for name, module in sorted(sys.modules.items())
    if name.split(".")[0] == "whitneylah" and getattr(module, "__file__", None)
}
print(json.dumps({"codes": codes, "modules": modules, "entered": sorted(entered)}))
"""

# Compiles each file of argv[1:] once; prints the seconds of each.
_COMPILE = r"""
import json, sys, time
compile(b"x = 1\n", "<warm-up>", "exec", dont_inherit=True)
seconds = []
for path in sys.argv[1:]:
    with open(path, "rb") as fh:
        source = fh.read()
    start = time.perf_counter()
    compile(source, path, "exec", dont_inherit=True)
    seconds.append(time.perf_counter() - start)
print(json.dumps(seconds))
"""


def child(code: str, *args: str, src: Path) -> str:
    """The stdout of ``python -c code args`` in a fresh interpreter that
    imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"a child interpreter exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def workload_argvs(workload: str) -> list[list[str]]:
    """The command lines of ``perfbench/workloads.py``'s workload, seed 0."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [list(op.argv) for op in workloads.make_ops(workload, 0)]


def uncalled(path: str, entered: set) -> list[tuple[str, int]]:
    """(name, lines) of each top-level function of the source at ``path``
    that was not entered. A function's code starts at its first decorator's
    line, if it has one, else at its ``def``."""
    tree = ast.parse(Path(path).read_text(), path)
    firsts = {(line, name) for file, line, name in entered if file == path}
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        start = min([d.lineno for d in node.decorator_list] + [node.lineno])
        if not any(start <= line <= node.lineno for line, name in firsts if name == node.name):
            out.append((node.name, node.end_lineno - start + 1))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="a workload of perfbench/workloads.py")
    which.add_argument(
        "--command", action="append", help="one command line, quoted; may be repeated"
    )
    parser.add_argument("--runs", type=int, default=31, help="fresh interpreters that compile")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the package's parent")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    if args.workload:
        argvs = workload_argvs(args.workload)
    else:
        argvs = [command.split() for command in args.command]
    ran = json.loads(child(_RUN, json.dumps(argvs), src=args.src.resolve()))
    modules = ran["modules"]
    entered = {tuple(key) for key in ran["entered"]}
    paths = list(modules.values())
    runs = [json.loads(child(_COMPILE, *paths, src=args.src.resolve())) for _ in range(args.runs)]
    medians = {name: statistics.median(run[i] for run in runs) for i, name in enumerate(modules)}

    print(f"{len(argvs)} command lines, exit codes {' '.join(map(str, ran['codes']))}")
    print(f"cold compile, median of {args.runs} fresh interpreters (ms)")
    width = max(map(len, modules))
    for name, seconds in medians.items():
        print(f"  {name:<{width}} {1000 * seconds:7.3f}")
    print(f"  {'total':<{width}} {1000 * sum(medians.values()):7.3f}")
    print("top-level functions no command line enters (lines)")
    for name, path in modules.items():
        for function, lines in uncalled(path, entered):
            print(f"  {name}.{function} {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
