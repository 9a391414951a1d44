"""Alternating parent/change pairs of ``perfbench/run.py``, summarised per
workload and end-to-end metric, written to one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload series_deep --workload verify --pairs 10 --seed-base 300 \\
        --out BENCH.json

DIR is the root of a checkout, each side with its own ``perfbench/`` and
``src/``. Pair i runs both sides at seed ``seed-base + i``, one after the
other, the parent first when i is even and the change first when it is
odd, so neither side always meets the machine in the same state. Each run
is ``python3 perfbench/run.py --workload W --seed S --trace 0`` in its own
checkout, one process at a time, for the run length that ``run.py`` sets
itself; its last stdout line, one JSON object, is kept whole under
``runs``, and beside it, as ``measured``, the unscaled figures of the
``measured {...}`` line that ``run.py`` writes to stderr (``wall_s``,
``max_op_s``, ``warm_wall_s``, ``setup_s``: seconds on this machine, not
scaled by the reference task).

Per workload and end-to-end metric, ``summary`` holds each side's median
and quartiles (``statistics.quantiles``, inclusive method), the change's
median relative to the parent's, the parent's interquartile range, and
``change_wins``, the pairs in which the change's value is better (a tie
counts for neither side). ``gain`` is true when the change wins at least
nine tenths of the pairs and its median is better than the parent's by
more than the parent's interquartile range. A metric that ``run.py`` also
measures unscaled gets ``measured``: each side's median and quartiles of
the unscaled figure, over the runs that have one. A load burst during the
reference task moves the scaled figures of a run, not the unscaled ones.
A metric's direction and bound are read from the change's
``BENCHMARK.json``. The file also records every run's ``correct``,
``attempted`` and ``failed``, and the interpreter and machine the pairs
ran on.

After the pairs of a workload, each side makes one traced run,
``perfbench/run.py --workload W --seed SEED_BASE --trace 1``, the parent
first. Its per-layer figures (calls and seconds per layer of the package,
and what tracing cost) are kept beside ``summary`` as ``layers``, by side
and metric name. They are one run each, not pairs: they say where the time
went, not whether it moved.

A run that exits nonzero or prints no JSON line stops the script with its
stderr tail; the runs made so far are not written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(
    root: Path, workload: str, seed: int, trace: int = 0
) -> tuple[dict, dict | None]:
    """One benchmark run in the checkout at ``root``, traced if ``trace`` is
    1: its JSON result line, and the unscaled figures of its stderr
    ``measured`` line (None if it printed none)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{root} {workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1]), measured_line(done.stderr)


def measured_line(stderr: str) -> dict | None:
    """The figures of the last ``measured {...}`` line of a run's stderr."""
    for line in reversed(stderr.splitlines()):
        if line.startswith("measured {"):
            return json.loads(line[len("measured "):])
    return None


def traced_layers(root: Path, workload: str, seed: int) -> dict:
    """The per-layer figures of one traced run in the checkout at ``root``,
    by metric name."""
    result, _ = run_once(root, workload, seed, trace=1)
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def measured_quartiles(runs: list[dict], name: str) -> dict | None:
    """Each side's quartiles of the unscaled ``name`` over the runs that
    measured it, None for a side with fewer than two such runs; None when
    no run measured it."""
    side = {
        s: [r["measured"][name] for r in runs
            if r["side"] == s and name in (r.get("measured") or {})]
        for s in ("parent", "change")
    }
    if not any(side.values()):
        return None
    return {s: quartiles(v) if len(v) >= 2 else None for s, v in side.items()}


def summarise(runs: list[dict], metrics: list[dict], pairs: int) -> dict:
    """Per metric of ``metrics``, both sides' figures over the pairs of ``runs``."""
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        side = {
            s: [r["result"]["metrics"][name]["value"] for r in runs if r["side"] == s]
            for s in ("parent", "change")
        }
        parent, change = quartiles(side["parent"]), quartiles(side["change"])
        wins = sum((c < p) if lower else (c > p) for p, c in zip(side["parent"], side["change"]))
        iqr = parent["q3"] - parent["q1"]
        margin = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric.get("bound"),
            "parent": parent,
            "change": change,
            "change_vs_parent": change["median"] / parent["median"] - 1 if parent["median"] else None,
            "parent_iqr": iqr,
            "change_wins": wins,
            "pairs": pairs,
            "gain": wins >= 0.9 * pairs and margin > iqr,
        }
        measured = measured_quartiles(runs, name)
        if measured is not None:
            summary[name]["measured"] = measured
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True, action="append", help="repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    doc = {
        "command": "tools/bench_pairs.py " + " ".join(sys.argv[1:] if argv is None else argv),
        "pairs": args.pairs,
        "seed_base": args.seed_base,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, measured = run_once(roots[side], workload, seed)
                runs.append(
                    {"pair": i, "side": side, "seed": seed, "result": result, "measured": measured}
                )
                value = result["metrics"]["warm_wall_s"]["value"]
                print(f"{workload} pair {i} {side}: warm_wall_s {value:.4f}", file=sys.stderr)
        runs.sort(key=lambda r: (r["pair"], r["side"] != "parent"))
        layers = {s: traced_layers(roots[s], workload, args.seed_base) for s in roots}
        print(f"{workload}: traced runs done", file=sys.stderr)
        doc["workloads"][workload] = {
            "summary": summarise(runs, metrics, args.pairs),
            "layers": layers,
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted_failed": sorted(
                {(r["side"], r["result"]["attempted"], r["result"]["failed"]) for r in runs}
            ),
            "runs": runs,
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
