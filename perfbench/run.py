"""whitneylah benchmark: cold CLI runs of three workloads, checked by oracles.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify --seed 0 --seconds 15 --trace 0

Each operation of a workload is one CLI call in a fresh interpreter, run one
at a time from this process (a closed loop with one client). A run makes
whole passes over the operation list, at least three, until the next one
would end after ``--seconds``, and checks every output against
``oracles.py``. Each timing is scaled by the reference task of
``reference.py``, run before and after it, to seconds at a nominal machine
speed; the measured figures go to stderr (the ``measured`` line).

``--trace 0`` prints the end-to-end metrics: the time of one pass
(``wall_s``, the sum over operations of each one's median time over the
passes), the slowest operation's median time (``max_op_s``), the median
time of a warm pass made inside one interpreter after a first pass
(``warm_wall_s``), the highest max-RSS of any operation process
(``peak_rss_mb``) and the median time to start an interpreter and import
whitneylah (``setup_s``). ``--trace 1`` runs each operation untraced and
then through ``tracer.py``, back to back, and prints the per-layer metrics,
with ``trace.overhead_s`` the cost of tracing one pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. An operation fails when it exits
with another code than a correct program would, or runs past the
per-operation timeout; ``correct`` is false when an operation that did not
fail printed a wrong output. Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import oracles
import workloads
from reference import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

OP_TIMEOUT_S = 60
SETUP_SAMPLES = 15
MIN_PASSES = 3  # so each per-operation median sets one outlier aside

ENTRY = "import sys; from whitneylah.cli import main; sys.exit(main())"

END_TO_END = (
    ("wall_s", "s"),
    ("max_op_s", "s"),
    ("warm_wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

VERIFY_IDS = (
    "dobinski", "gouqi", "gqif1", "graham", "inv_qtw", "lah_conv", "lah_egf",
    "lah_hgf", "lah_rec", "mansour", "ortho", "pe1", "pe2", "q_defs", "q_limits",
    "qbinom_inv", "qgqif1", "qi_bell", "qr1", "qr1.1", "qr2", "qr2.1", "qw1w2",
    "r1", "r2", "r2.1", "r3", "r4", "stirling_hgf", "w_hgf", "wl_conv", "wl_hgf",
    "wl_rec",
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints."""
    out = []

    def add(name, unit="s", better="lower"):
        out.append((name, unit, better))

    add("arith.lp_mul.calls", "count")
    add("arith.lp_mul.s")
    add("arith.lp_mul.term_products", "count")
    add("arith.lp_mul.monomial_calls", "count")
    add("arith.lp_mul.int_result_ratio", "ratio", "higher")
    for op in ("lp_add", "lp_pow", "lp_div_exact"):
        add(f"arith.{op}.calls", "count")
        add(f"arith.{op}.s")
    add("arith.lp_to_str.calls", "count")
    add("arith.lp_to_str.s")
    add("arith.lp_to_str.bytes", "B")
    add("arith.ts_mul.calls", "count")
    add("arith.ts_mul.s")
    add("arith.ts_mul.coeff_products", "count")
    for op in ("ts_inverse", "ts_pow"):
        add(f"arith.{op}.calls", "count")
        add(f"arith.{op}.s")
    add("arith.self_s")
    for fn in ("qint", "qfact", "qbinom"):
        add(f"qcalc.{fn}.calls", "count")
        add(f"qcalc.{fn}.hit_ratio", "ratio", "higher")
    for fn in ("qfact", "qbinom", "gqf_at", "qfalling"):
        add(f"qcalc.{fn}.s")
    add("qcalc.cache_entries", "count")
    add("qcalc.self_s")
    add("classical.calls", "count")
    add("classical.self_s")
    add("classical.poly.s")
    for fn in ("tw1", "tw2", "twl", "twl_egf_series", "dowling", "mansour_u"):
        add(f"whitney.{fn}.s")
    add("whitney.self_s")
    for fn in ("qw1", "qw2", "qwl", "qlah_gr", "qdowling", "qwl_explicit",
               "qwl_egf_sum_series", "gqf_point"):
        add(f"qwhitney.{fn}.s")
    add("qwhitney.memo_rows", "count")
    add("qwhitney.self_s")
    add("verify.checks", "count", "higher")
    add("verify.check_errors", "count")
    for ident in VERIFY_IDS:
        add(f"verify.{ident}.s")
    add("verify.self_s")
    add("cli.self_s")
    add("cli.output_bytes", "B")
    add("trace.overhead_s")
    return out


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


ENV = child_env()


class Child:
    """One finished child process: exit code, elapsed time, max RSS, stdout."""

    def __init__(self, args: list[str], tmp: Path, timeout: float = OP_TIMEOUT_S):
        out_path, err_path = tmp / "stdout", tmp / "stderr"
        killed = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=err, env=ENV, cwd=ROOT)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no process behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.seconds = time.perf_counter() - start
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.timed_out = killed.is_set()
        self.rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
        self.out = out_path.read_bytes()
        self.err = err_path.read_bytes()


class Judge:
    """Counts attempted and failed operations and checks outputs once per distinct output."""

    def __init__(self, ops):
        self.ops = ops
        self.good = [set() for _ in ops]  # digests of outputs that passed the oracle
        self.cold_rcs = [set() for _ in ops]  # exit codes of the calls that did not time out
        self.attempted = self.failed = 0
        self.wrong: list[str] = []

    def judge(self, i: int, child: Child) -> None:
        op = self.ops[i]
        self.attempted += 1
        if not child.timed_out:
            self.cold_rcs[i].add(child.rc)
        if child.timed_out or child.rc != op.expect_rc:
            self.failed += 1
            why = "timed out" if child.timed_out else f"exit {child.rc}"
            tail = child.err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            log(f"  failed: {op.label()}: {why}: {tail[0][:160]}")
            return
        digest = hashlib.sha256(child.out).hexdigest()
        if digest in self.good[i]:
            return
        problem = oracles.check(op.argv, child.out)
        if problem is None:
            self.good[i].add(digest)
            return
        self.failed += 1
        self.wrong.append(f"{op.label()}: {problem}")
        log(f"  WRONG OUTPUT: {op.label()}: {problem}")

    def judge_warm(self, i: int, rc: int, digest: str) -> None:
        """An in-process call must exit as the cold CLI calls did and print
        what they printed."""
        op = self.ops[i]
        if rc not in self.cold_rcs[i]:
            problem = f"warm call exited {rc}, cold calls {sorted(self.cold_rcs[i])}"
        elif rc == op.expect_rc and self.good[i] and digest not in self.good[i]:
            problem = "warm output differs from the cold output"
        else:
            return
        self.wrong.append(f"{op.label()}: {problem}")
        log(f"  WRONG OUTPUT (warm): {op.label()}: {problem}")

    @property
    def correct(self) -> bool:
        return not self.wrong


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def check_checkout(tmp: Path) -> None:
    if not (SRC / "whitneylah" / "cli.py").is_file():
        raise BenchError(f"no whitneylah sources under {SRC}")
    child = Child([sys.executable, "-c", "import whitneylah; print(whitneylah.__file__)"], tmp)
    where = Path(child.out.decode().strip() or ".").resolve()
    if child.rc != 0 or SRC.resolve() not in where.parents:
        raise BenchError(f"whitneylah does not import from {SRC}: {child.err.decode()[-300:]}")


def measure_setup(tmp: Path, speed: Speed) -> tuple[float, float]:
    """Median measured and median scaled time to start an interpreter and
    import whitneylah (the bytecode cache is already filled by
    ``check_checkout``)."""
    times, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        times.append(Child([sys.executable, "-c", "import whitneylah"], tmp).seconds)
        scaled.append(speed.scaled(times[-1]))
    return statistics.median(times), statistics.median(scaled)


def run_op(op, tmp: Path, traced: bool = False) -> tuple[Child, dict | None]:
    """One CLI call in a fresh interpreter; traced, also the tracer's totals."""
    if not traced:
        return Child([sys.executable, "-c", ENTRY, *op.argv], tmp), None
    stats_path = tmp / "trace.json"
    stats_path.unlink(missing_ok=True)
    child = Child([sys.executable, str(HERE / "tracer.py"), str(stats_path), *op.argv], tmp)
    return child, json.loads(stats_path.read_text()) if stats_path.exists() else {}


def warm_run(ops, judge: Judge, tmp: Path) -> tuple[float, float]:
    """Measured and scaled time of a warm pass of ``warm.py``: the sum over
    operations of each one's median time over the warm passes."""
    ops_path, result_path = tmp / "warm_ops.json", tmp / "warm_result.json"
    ops_path.write_text(json.dumps([list(op.argv) for op in ops]))
    args = [sys.executable, str(HERE / "warm.py"), str(ops_path), str(result_path)]
    child = Child(args, tmp, timeout=OP_TIMEOUT_S * 5 * len(ops))
    if child.rc != 0:
        raise BenchError(f"warm run failed: {child.err.decode()[-500:]}")
    result = json.loads(result_path.read_text())
    for calls in result["calls"]:
        for i, (rc, digest) in enumerate(calls):
            judge.judge_warm(i, rc, digest)
    log(f"  warm: {len(result['calls'])} passes")
    return tuple(sum(statistics.median(t) for t in result[key]) for key in ("measured", "scaled"))


def timed_run(ops, seconds: float, judge: Judge, tmp: Path) -> dict:
    speed = Speed()
    measured, metrics = {}, {}
    measured["setup_s"], metrics["setup_s"] = measure_setup(tmp, speed)
    raw, scaled, rss = [[] for _ in ops], [[] for _ in ops], 0.0  # per operation, one per pass
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            child, _ = run_op(op, tmp)
            judge.judge(i, child)
            raw[i].append(child.seconds)
            scaled[i].append(speed.scaled(child.seconds))
            rss = max(rss, child.rss_mb)
        passes = len(raw[0])
        log(f"  pass {passes}: {sum(t[-1] for t in raw):.3f} s")
        elapsed = time.perf_counter() - start
        # stop when the next pass would end past the run, after MIN_PASSES
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    # medians per operation, so a burst of load that slows a few calls of
    # one pass does not move the figures
    for out, times in ((measured, raw), (metrics, scaled)):
        medians = [statistics.median(t) for t in times]
        out.update(wall_s=sum(medians), max_op_s=max(medians))
    measured["warm_wall_s"], metrics["warm_wall_s"] = warm_run(ops, judge, tmp)
    log("measured " + json.dumps(measured))
    metrics["peak_rss_mb"] = rss
    return metrics


def layer_metrics(stats: list[dict], out_bytes: int) -> dict:
    """Fold the tracer's per-process totals of one pass into the per-layer metrics."""
    tot = {k: defaultdict(float) for k in ("calls", "seconds", "errors", "self_s", "counts")}
    hits, misses, most = defaultdict(int), defaultdict(int), defaultdict(int)
    for st in stats:
        for kind, acc in tot.items():
            for key, value in st.get(kind, {}).items():
                acc[key] += value
        held = defaultdict(int)  # memo entries per layer in this process
        for name, (h, m, n) in st.get("caches", {}).items():
            hits[name] += h
            misses[name] += m
            held[name.split(".")[0]] += n
        for layer, n in held.items():
            most[layer] = max(most[layer], n)
    calls, secs, counts = tot["calls"], tot["seconds"], tot["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name, _, _ in per_layer_metrics():
        layer, rest = name.split(".", 1)
        if rest == "self_s":
            m[name] = tot["self_s"][layer]
        elif name.endswith(".calls") and rest.count(".") == 1:
            m[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".s") and rest.count(".") >= 1 and layer != "verify":
            m[name] = secs[name[: -len(".s")]]
    m["arith.lp_mul.term_products"] = counts["lp_mul.term_products"]
    m["arith.lp_mul.monomial_calls"] = counts["lp_mul.monomial_calls"]
    m["arith.lp_mul.int_result_ratio"] = ratio(counts["lp_mul.int_results"], counts["lp_mul.results"])
    m["arith.lp_to_str.bytes"] = counts["lp_to_str.bytes"]
    m["arith.ts_mul.coeff_products"] = counts["ts_mul.coeff_products"]
    for fn in ("qint", "qfact", "qbinom"):
        key = f"qcalc.{fn}"
        m[f"{key}.hit_ratio"] = ratio(hits[key], hits[key] + misses[key])
    m["qcalc.cache_entries"] = most["qcalc"]
    m["qwhitney.memo_rows"] = most["qwhitney"]
    m["classical.calls"] = sum(n for k, n in calls.items() if k.startswith("classical."))
    ids = [k for k in calls if k.startswith("verify.id:")]
    m["verify.checks"] = sum(calls[k] for k in ids)
    m["verify.check_errors"] = sum(tot["errors"][k] for k in ids)
    for ident in VERIFY_IDS:
        m[f"verify.{ident}.s"] = secs[f"verify.id:{ident}"]
    m["cli.output_bytes"] = out_bytes
    return m


def traced_run(ops, seconds: float, judge: Judge, tmp: Path) -> dict:
    """Passes in which each operation runs untraced and then traced, back to
    back, until ``seconds`` have gone by and at least MIN_PASSES."""
    overhead, layers = [[] for _ in ops], []
    start = time.perf_counter()
    while True:
        stats, out_bytes = [], 0
        for i, op in enumerate(ops):
            plain, _ = run_op(op, tmp)
            judge.judge(i, plain)
            child, st = run_op(op, tmp, traced=True)
            judge.judge(i, child)
            overhead[i].append(child.seconds - plain.seconds)
            stats.append(st)
            out_bytes += len(child.out)
        layers.append(layer_metrics(stats, out_bytes))
        log(f"  pass {len(layers)}: tracing overhead {sum(t[-1] for t in overhead):.3f} s")
        if len(layers) >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = sum(statistics.median(t) for t in overhead)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so its child is stopped and its files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    ops = workloads.make_ops(args.workload, args.seed)
    judge = Judge(ops)
    log(f"{args.workload} seed={args.seed}: {len(ops)} operations")
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            check_checkout(Path(tmp))
            if args.trace:
                metrics = traced_run(ops, args.seconds, judge, Path(tmp))
                units = {name: unit for name, unit, _ in per_layer_metrics()}
            else:
                metrics = timed_run(ops, args.seconds, judge, Path(tmp))
                units = dict(END_TO_END)
    except BenchError as exc:
        log(f"error: {exc}")
        return 2
    result = {
        "correct": judge.correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
