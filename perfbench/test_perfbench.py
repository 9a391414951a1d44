"""The benchmark's own tests: each oracle rejects a corrupted output, and all
three workloads run end to end at tiny sizes, timed and traced.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

import oracles
import run
import workloads


def cli(*argv: str) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-c", run.ENTRY, *argv], env=run.ENV,
                          capture_output=True, cwd=run.ROOT)
    return proc.returncode, proc.stdout


def accepted(argv, out: bytes) -> bool:
    return oracles.check(argv, out) is None


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("family,alpha", [
    ("q-whitney1", "2"), ("q-whitney1", "-2"), ("q-whitney2", "-1"),
    ("q-whitney-lah", "2"), ("q-lah", None), ("q-dowling", "3"),
])
def test_table_oracle_rejects_one_flipped_coefficient(family, alpha, fmt):
    argv = ["table", "--family", family, "--n-max", "5", "--format", fmt]
    if alpha is not None:
        argv += ["--alpha", alpha]
    rc, out = cli(*argv)
    assert rc == 0 and accepted(argv, out)
    text = out.decode()
    m = re.search(r"(\d+)\*q", text)
    assert m is not None
    bad = text[: m.start(1)] + str(int(m.group(1)) + 1) + text[m.end(1):]
    assert not accepted(argv, bad.encode())
    # a cell that is not in canonical form is refused even if its value is right
    if " + q^2" in text:
        assert not accepted(argv, text.replace(" + q^2", " + 1*q^2", 1).encode())


def flip_digit(line: str, fields: slice) -> str:
    parts = line.split(",")
    for i in range(len(parts))[fields]:
        parts[i] = parts[i][:-1] + str((int(parts[i][-1]) + 1) % 10)
    return ",".join(parts)


def test_r3_oracle_rejects_one_flipped_digit():
    argv = ["series", "--id", "r3", "--alpha", "2", "--k", "2", "--order", "9"]
    rc, out = cli(*argv)
    assert rc == 0 and accepted(argv, out)
    lines = out.decode().split("\n")
    for fields in (slice(2, 3), slice(1, 3)):  # rhs alone, then both sides alike
        bad = lines[:]
        bad[7] = flip_digit(bad[7], fields)
        assert not accepted(argv, "\n".join(bad).encode())


def test_qr1_1_oracle_rejects_a_changed_coefficient_on_both_sides():
    argv = ["series", "--id", "qr1.1", "--alpha", "3", "--k", "2", "--order", "5"]
    rc, out = cli(*argv)
    assert rc == 0 and accepted(argv, out)
    lines = out.decode().split("\n")
    n, lhs, rhs = lines[5].split(",")
    m = re.search(r"(\d+)\*q", rhs)
    new = rhs[: m.start(1)] + str(int(m.group(1)) + 1) + rhs[m.end(1):]
    lines[5] = ",".join((n, new, new))
    assert not accepted(argv, "\n".join(lines).encode())


def test_verify_oracles_reject_an_extra_failure():
    for mode, n_max, want_rc in (("as_printed", "3", 1), ("corrected", "2", 0)):
        argv = ["verify", "--suite", "all", "--alpha-list", "2,1", "--n-max", n_max,
                "--mode", mode, "--format", "json"]
        rc, out = cli(*argv)
        assert rc == want_rc and accepted(argv, out)
        doc = json.loads(out)
        extra = {"id": "qr1", "params": {"alpha": 1, "k": 0, "n": 1}, "lhs": "1", "rhs": "2"}
        doc["failed"].append(extra)
        doc["passed"] -= 1
        assert not accepted(argv, json.dumps(doc).encode())
        if doc["failed"][:-1]:
            doc["failed"] = doc["failed"][1:-1]
            doc["passed"] += 2
            assert not accepted(argv, json.dumps(doc).encode())


def test_eval_oracle_checks_the_exact_value():
    argv = ["eval", "--family", "whitney1", "--n", "40", "--k", "2"]
    rc, out = cli(*argv)
    assert rc == 0 and accepted(argv, out)
    assert not accepted(argv, flip_digit(out.decode().strip(), slice(0, 1)).encode() + b"\n")


def test_warm_calls_must_exit_and_print_as_the_cold_calls_did():
    ops = [workloads.Op(("eval", "--family", "whitney1", "--n", "40", "--k", "2")),
           workloads.Op(("eval", "--family", "whitney1", "--n", "600", "--k", "2"))]
    cold = [cli(*op.argv) for op in ops]
    digests = [hashlib.sha256(out).hexdigest() for _, out in cold]

    def judged():
        judge = run.Judge(ops)
        for i, (rc, out) in enumerate(cold):
            judge.judge(i, SimpleNamespace(rc=rc, out=out, err=b"", timed_out=False))
        assert (judge.attempted, judge.failed) == (2, 1)  # n = 600 fails today
        return judge

    judge = judged()
    judge.judge_warm(0, 0, digests[0])
    judge.judge_warm(1, 1, digests[1])  # fails warm as it failed cold
    assert judge.correct, judge.wrong
    for i, rc, digest in (
        (0, 1, digests[0]),  # a warm call that raised
        (1, 0, digests[1]),  # a failing call that exited 0 when warm
        (0, 0, hashlib.sha256(b"12\n").hexdigest()),  # another output
    ):
        judge = judged()
        judge.judge_warm(i, rc, digest)
        assert not judge.correct


def test_benchmark_json_lists_what_run_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == run.per_layer_metrics()


def test_traced_identity_names_match_the_registry():
    code = "from whitneylah.verify import registry_ids; print(','.join(registry_ids()))"
    out = subprocess.run([sys.executable, "-c", code], env=run.ENV, capture_output=True,
                         text=True, check=True).stdout
    assert tuple(out.strip().split(",")) == run.VERIFY_IDS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_tiny_workload(workload, tmp_path):
    ops = workloads.make_ops(workload, seed=3, tiny=True)
    assert ops == workloads.make_ops(workload, seed=3, tiny=True)
    failing = 2 if workload == "series_deep" else 0

    judge = run.Judge(ops)
    metrics = run.timed_run(ops, 0, judge, tmp_path)
    assert judge.correct, judge.wrong
    assert (judge.attempted, judge.failed) == (run.MIN_PASSES * len(ops), run.MIN_PASSES * failing)
    assert set(metrics) == {name for name, _ in run.END_TO_END}
    assert all(v > 0 for v in metrics.values())

    judge = run.Judge(ops)
    metrics = run.traced_run(ops, 0, judge, tmp_path)
    assert judge.correct, judge.wrong
    # each pass runs every operation untraced and traced
    assert (judge.attempted, judge.failed) == (2 * run.MIN_PASSES * len(ops), 2 * run.MIN_PASSES * failing)
    assert set(metrics) == {name for name, _, _ in run.per_layer_metrics()}
    assert metrics["arith.lp_mul.calls"] > 0 and metrics["cli.self_s"] > 0
    if workload == "verify":
        assert metrics["verify.checks"] > 0 and metrics["verify.q_defs.s"] > 0
