"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``; the
``pytest -v`` status column carries the same verdict) and asserts its
stated wall-clock budget where one exists. Grids and tolerances are pinned
here, not configurable.
"""

import json
import math
import time

from independent import lah_oracle, whitney_lah
from whitneylah.classical import lah, stirling1u, stirling2
from whitneylah.dense import lp_eval_q1
from whitneylah.cli import main as cli_main
from whitneylah.qcalc import qfact, qint
from whitneylah.qwhitney import qdowling, qlah_gr, qw1, qw2, qwl
from whitneylah.verify import Config, get_identity, run_suite
from whitneylah.whitney import (
    ROUTES,
    dowling,
    tw1,
    tw2,
    twl,
    twl_egf_check,
)


class _Budget:
    def __init__(self, number, name, seconds=None):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"ACCEPTANCE {self.number:02d} FAIL: {self.name}")
            return False
        if self.seconds is not None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget"
                f" ({elapsed:.2f}s)"
            )
            print(
                f"ACCEPTANCE {self.number:02d} PASS"
                f" ({elapsed:.2f}s < {self.seconds}s): {self.name}"
            )
        else:
            print(f"ACCEPTANCE {self.number:02d} PASS ({elapsed:.2f}s): {self.name}")
        return False


def test_criterion_01_lah_oracle_equivalence():
    with _Budget(1, "closed-form Lah equals enumeration oracle, n <= 8", 5.0):
        for n in range(9):
            for k in range(n + 1):
                assert lah(n, k) == lah_oracle(n, k), (n, k)


def test_criterion_02_four_route_agreement():
    with _Budget(2, "four Whitney-Lah routes agree, n <= 12, alpha in 1..3", 1.0):
        for a in (1, 2, 3):
            for n in range(13):
                for k in range(n + 1):
                    ref = twl(a, n, k)
                    for route in ROUTES["twl"][1:]:
                        assert twl(a, n, k, route=route) == ref, (a, n, k, route)


def test_criterion_03_convolutions_and_orthogonality():
    with _Budget(3, "Stirling convolution, both-kind convolution, orthogonality", 2.0):
        for n in range(11):
            for k in range(n + 1):
                assert lah(n, k) == sum(
                    stirling1u(n, j) * stirling2(j, k) for j in range(k, n + 1)
                )
        for a in (1, 2, 3):
            for n in range(11):
                for j in range(n + 1):
                    assert twl(a, n, j) == sum(
                        tw1(a, n, k) * tw2(a, k, j) for k in range(j, n + 1)
                    )
                for m in range(n + 1):
                    want = 1 if n == m else 0
                    s1 = sum(
                        (-1) ** (j - m) * tw2(a, n, j) * tw1(a, j, m)
                        for j in range(m, n + 1)
                    )
                    s2 = sum(
                        (-1) ** (n - j) * tw1(a, n, j) * tw2(a, j, m)
                        for j in range(m, n + 1)
                    )
                    assert s1 == want and s2 == want, (a, n, m)


def test_criterion_04_alternating_factorial_sums():
    with _Budget(4, "alternating factorial sums, k <= 8, n <= 12", 1.0):
        for k in range(2, 9):
            for n in range(k - 1, 13):
                rhs_scale = math.factorial(n) * (
                    math.factorial(n + 1) // math.factorial(n - k + 1)
                )
                for a in (1, 2, 3):
                    lhs = sum(
                        (-a) ** j * twl(a, k, j) * math.factorial(n + j)
                        for j in range(1, k + 1)
                    )
                    assert lhs == (-a) ** k * rhs_scale, (a, k, n)
                lhs = sum(
                    (-1) ** j * lah(k, j) * math.factorial(n + j)
                    for j in range(1, k + 1)
                )
                assert lhs == (-1) ** k * rhs_scale, (k, n)


def test_criterion_05_qi_type_formulas():
    with _Budget(5, "alternating Dowling/Bell formulas, n <= 12", 1.0):
        # independent Bell oracle: B_{n+1} = sum_k C(n,k) B_k
        bell_oracle = [1]
        for n in range(12):
            bell_oracle.append(
                sum(math.comb(n, k) * bell_oracle[k] for k in range(n + 1))
            )
        assert bell_oracle[10] == 115975
        for a in (1, 2, 3):
            for n in range(13):
                assert dowling(a, n, route="qi") == dowling(a, n), (a, n)
        for n in range(13):
            assert dowling(1, n, route="qi") == bell_oracle[n], n
            if n >= 1:
                rhs = sum(
                    (-1) ** (n - k)
                    * sum(lah(k, l) for l in range(1, k + 1))
                    * stirling2(n, k)
                    for k in range(1, n + 1)
                )
                assert bell_oracle[n] == rhs, n


def test_criterion_06_dobinski():
    with _Budget(6, "Dobinski series matches exact Dowling to 1e-9", 1.0):
        for a in (1, 2, 3):
            for n in range(11):
                approx = dowling(a, n, route="dobinski")
                exact = dowling(a, n)
                assert abs(approx - exact) / exact < 1e-9, (a, n)


def test_criterion_07_generating_functions():
    with _Budget(7, "EGF coefficient agreement, classical and q", 10.0):
        for a in (1, 2, 3):
            for k in range(7):
                for n in range(13):
                    expected = whitney_lah(a, n, k)
                    assert twl_egf_check(a, k, n) == (expected, expected), (a, k, n)
        from whitneylah.qroutes import qwl_egf_sum_series

        for a in (1, 2):
            for k in range(5):
                series = qwl_egf_sum_series(a, k, 8)
                scale = qfact(k, a) * qint(a) ** k
                for n in range(9):
                    lhs = qfact(n, a) * series.coeff(n)
                    assert lhs == scale * qwl(a, n, k), (a, k, n)


def test_criterion_08_q_suite():
    with _Budget(8, "full q identity suite, exact Laurent equalities", 30.0):
        cfg = Config(suite="q", alpha_list=(1, 2), n_max=8)
        report = run_suite(cfg)
        assert report.failed == []
        # every q identity contributed checks under this configuration
        for ident in (
            "q_defs",
            "qw1w2",
            "qr1",
            "qr1.1",
            "qr2",
            "qr2.1",
            "inv_qtw",
            "qbinom_inv",
            "pe1",
            "pe2",
            "qgqif1",
            "q_limits",
        ):
            assert get_identity(ident).domain(cfg), ident
        assert report.total == sum(
            len(get_identity(i).domain(cfg))
            for i in (
                "q_defs",
                "qw1w2",
                "qr1",
                "qr1.1",
                "qr2",
                "qr2.1",
                "inv_qtw",
                "qbinom_inv",
                "pe1",
                "pe2",
                "qgqif1",
                "q_limits",
            )
        )


def test_criterion_09_q_to_1_reduction():
    with _Budget(9, "q -> 1 reduction of every q-family entry, n <= 8", 2.0):
        for a in (1, 2):
            for n in range(9):
                for k in range(n + 1):
                    assert lp_eval_q1(qwl(a, n, k)) == a ** (n - k) * lah(n, k)
                    assert lp_eval_q1(qw2(a, n, k)) == a ** (n - k) * stirling2(n, k)
                    assert lp_eval_q1(qw1(a, n, k)) == (-1) ** (n - k) * a ** (
                        n - k
                    ) * stirling1u(n, k)
                    assert lp_eval_q1(qlah_gr(n, k)) == lah(n, k)
                assert lp_eval_q1(qdowling(a, n)) == dowling(a, n)
                assert lp_eval_q1(qdowling(a, n, route="qi")) == dowling(a, n)


def test_criterion_10_erratum_documentation():
    with _Budget(10, "as-printed mode reports exactly the known errata"):
        printed = run_suite(suite="all", alpha_list=(1, 2), n_max=6, mode="as_printed")
        failing_ids = {r.id for r in printed.failed}
        assert failing_ids == {"qr2", "qr2.1", "mansour"}
        mansour_points = {
            (r.params["alpha"], r.params["n"], r.params["k"])
            for r in printed.failed
            if r.id == "mansour"
        }
        assert mansour_points == {(1, 3, 1), (2, 3, 1)}
        assert any(r.id == "qr2" for r in printed.failed)
        assert any(r.id == "qr2.1" for r in printed.failed)
        corrected = run_suite(suite="all", alpha_list=(1, 2), n_max=6)
        assert corrected.failed == []


def test_criterion_11_cli_determinism_and_exit_codes(capsys):
    with _Budget(11, "CLI byte-determinism and 0/1/2 exit codes"):
        examples = [
            ["table", "--family", "whitney-lah", "--alpha", "2", "--n-max", "3",
             "--format", "csv"],
            ["eval", "--family", "q-lah", "--n", "2", "--k", "1"],
            ["verify", "--suite", "all", "--alpha-list", "1,2", "--n-max", "6",
             "--format", "json"],
            ["series", "--id", "qr1.1", "--alpha", "2", "--k", "2", "--order", "5"],
        ]
        for argv in examples:
            code1 = cli_main(argv)
            out1 = capsys.readouterr().out
            code2 = cli_main(argv)
            out2 = capsys.readouterr().out
            assert code1 == code2
            assert out1 == out2
            assert out1

        code = cli_main(["verify", "--suite", "all", "--alpha-list", "1,2",
                         "--n-max", "6", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["failed"] == []

        code = cli_main(["verify", "--suite", "q", "--alpha-list", "1",
                         "--n-max", "2", "--mode", "as_printed"])
        capsys.readouterr()
        assert code == 1

        code = cli_main(["eval", "--family", "lah", "--n", "3"])
        capsys.readouterr()
        assert code == 2

        code = cli_main(["table", "--family", "unknown", "--n-max", "2"])
        capsys.readouterr()
        assert code == 2
