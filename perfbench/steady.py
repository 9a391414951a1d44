"""Steadiness check: run each workload several times and report each
end-to-end metric's median, quartiles and spread against its bound.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--workloads verify,qtable] [--runs 10]
                                [--first-seed 1] [--out set1.json] [--against set0.json]

Every run uses another seed. The spread is the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median; it must stay within the metric's bound from BENCHMARK.json. Next
to it stands the spread of the same metric as measured, before ``run.py``
scales it by the reference task (the ``measured`` line of its stderr), so
the two can be compared. ``--out`` saves the
values; ``--against`` compares this set's medians with a saved set's and
flags a metric whose median got worse by more than its bound. The share of
failed operations must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The result of one run, and its measured (unscaled) figures."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = "measured "
    measured = [line[len(tag):] for line in proc.stderr.splitlines() if line.startswith(tag)]
    return result, json.loads(measured[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    before = json.loads(args.against.read_text()) if args.against else {}
    saved, ok = {}, True
    for workload in args.workloads.split(","):
        runs, measured = [], []
        for i in range(args.runs):
            res, times = run_once(workload, args.first_seed + i, args.seconds)
            runs.append(res)
            measured.append(times)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
            print(f"{workload} seed {args.first_seed + i}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {values}", flush=True)
        shares = {(r["failed"], r["attempted"]) for r in runs}
        same_share = len({f / a for f, a in shares}) == 1
        correct = all(r["correct"] for r in runs)
        ok &= same_share and correct
        print(f"{workload}: correct={correct} failed share {'steady' if same_share else 'VARIES'}: {sorted(shares)}")
        saved[workload] = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            saved[workload][name] = vals
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER"
            ok &= spread <= bound
            raw = [m.get(name, r["metrics"][name]["value"]) for m, r in zip(measured, runs)]
            rq1, rmed, rq3 = statistics.quantiles(raw, n=4)
            line = (f"  {name:12s} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                    f"spread {spread:.3f}  bound {bound}  {verdict}  "
                    f"(measured: median {rmed:.4f} spread {(rq3 - rq1) / rmed:.3f})")
            if workload in before:
                old = statistics.median(before[workload][name])
                drift = (statistics.median(vals) - old) / old
                line += f"  vs saved {old:.4f} ({drift:+.3f}{' WORSE' if drift > bound else ''})"
                ok &= drift <= bound
            print(line, flush=True)
    if args.out:
        args.out.write_text(json.dumps(saved, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
