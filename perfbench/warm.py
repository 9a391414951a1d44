"""Run a workload's operations several times inside one interpreter.

Usage: python3 perfbench/warm.py OPS.json RESULT.json

OPS.json holds a list of CLI argument lists. Each pass calls
``whitneylah.cli.main`` on every one of them in order, with stdout and
stderr captured in memory. The first pass starts with cold memo caches; the
later, warm ones show what a library user gains from them. There are at
least WARM_PASSES warm passes, and more until they took WARM_MIN_S in all.
The reference task (``reference.py``) runs before the warm passes and after
every call that ends a stretch of at least SEGMENT_S seconds of calls, and
each call is scaled by the reference runs around its stretch. RESULT.json
receives each call's exit code and output digest, so the caller can check
the outputs against those of the cold CLI runs, and each operation's
measured and scaled times in the warm passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time

from reference import Speed

WARM_PASSES = 4
WARM_MIN_S = 3.0
SEGMENT_S = 0.25


def call(cli_main, argv: list[str]) -> tuple[float, list]:
    """Time of one in-process CLI call, and its exit code and stdout digest."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(list(argv))
        except Exception:  # a traceback exits the CLI with code 1
            rc = 1
    seconds = time.perf_counter() - start
    return seconds, [rc, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def main() -> int:
    ops_path, result_path = sys.argv[1], sys.argv[2]
    with open(ops_path) as fh:
        ops = json.load(fh)
    from whitneylah.cli import main as cli_main

    calls = [[call(cli_main, argv)[1] for argv in ops]]  # fills the memo caches
    measured, scaled = [[] for _ in ops], [[] for _ in ops]
    segment: list[tuple[int, float]] = []  # calls since the last reference run
    speed = Speed()

    def end_segment():
        factor = speed.factor()
        for j, seconds in segment:
            scaled[j].append(seconds * factor)
        segment.clear()

    while len(calls) <= WARM_PASSES or sum(map(sum, measured)) < WARM_MIN_S:
        calls.append([])
        for i, argv in enumerate(ops):
            seconds, result = call(cli_main, argv)
            calls[-1].append(result)
            measured[i].append(seconds)
            segment.append((i, seconds))
            if sum(s for _, s in segment) >= SEGMENT_S:
                end_segment()
    if segment:
        end_segment()
    with open(result_path, "w") as fh:
        json.dump({"calls": calls, "measured": measured, "scaled": scaled}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
