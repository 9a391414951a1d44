"""q-primitive tests: q-integers, q-factorials, Gaussian binomials,
q-falling factorials, generalized q-factorials at integer points."""

import math
import sys
import threading

import pytest

from whitneylah.arith import LaurentPoly, monomial
from whitneylah.dense import lp_div_exact, lp_eval_q1
from whitneylah import qcalc
from whitneylah.classical import DomainError, TruncSeries, _triangles, ts_mul_geometric
from whitneylah.qcalc import (
    InvalidOrder,
    NegativeArgument,
    gqf_point,
    qbinom,
    qfact,
    qfalling,
    qint,
)


class TestQInt:
    def test_values(self):
        assert qint(3).to_str() == "1 + q + q^2"
        assert qint(0).is_zero
        assert qint(2, 2).to_str() == "1 + q^2"

    def test_base_is_substitution(self):
        # [n] over q^a is [n] over q with q -> q^a
        for n in range(6):
            subst = LaurentPoly({3 * e: c for e, c in qint(n).items()})
            assert qint(n, 3) == subst

    def test_rejects_bad_args(self):
        with pytest.raises(NegativeArgument):
            qfact(-1)
        with pytest.raises(NegativeArgument):
            qfalling(-1, 0)
        with pytest.raises(ValueError):
            qint(3, 0)

    @pytest.mark.parametrize("base", [1, 2, 3, 4])
    def test_defining_relation_at_both_signs(self, base):
        # [m] (1 - q^b) = 1 - q^(m b) over q^b, for every integer m: a
        # property of the value, whatever run builds it
        one = LaurentPoly.one()
        for m in range(-40, 41):
            assert qint(m, base) * (one - monomial(base)) == one - monomial(m * base), m

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: qint(10**20), r"\[100000000000000000000\] over q\^1"),
            (lambda: qint(2, 10**20), r"\[2\] over q\^100000000000000000000"),
            (lambda: qint(-(10**20)), r"\[-100000000000000000000\] over q\^1"),
        ],
    )
    def test_a_run_too_long_for_a_tuple_is_a_domain_error(self, call, name):
        # only past sys.maxsize coefficients: a run from about 10^8 terms
        # up to it may allocate gigabytes before it fails
        with pytest.raises(DomainError, match=f"the q-integer {name} is too large to store"):
            call()


@pytest.mark.parametrize(
    "primitive, args",
    [(qint, (1,)), (qfact, (1,)), (qbinom, (1, 1)), (qfalling, (1, 1))],
)
def test_bool_argument_is_rejected(primitive, args):
    # the entries of 1 are cached first: True must not read them
    primitive(*args, 1)
    with pytest.raises(ValueError, match="base must be a positive integer"):
        primitive(*args, True)
    with pytest.raises(ValueError, match="arguments must be integers"):
        primitive(True, *args[1:])


class TestQFact:
    def test_values(self):
        assert qfact(0) == 1
        assert qfact(3).to_str() == "1 + 2*q + 2*q^2 + q^3"
        assert lp_eval_q1(qfact(4)) == 24

    def test_cold_build_needs_no_recursion(self, cold_memo):
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            value = qfact(60)
        finally:
            sys.setrecursionlimit(limit)
        assert lp_eval_q1(value) == math.factorial(60)
        assert value == qfact(59) * qint(60)


@pytest.fixture
def products(monkeypatch):
    """The arguments of every q-integer that ``gqf_point`` multiplies by,
    one per product, with the memo cleared before and after."""
    calls = []

    def counted(m, base=1):
        calls.append((m, base))
        return qint(m, base)

    qcalc._GQF_POINTS.clear()
    monkeypatch.setattr(qcalc, "qint", counted)
    yield calls
    qcalc._GQF_POINTS.clear()


class TestOneProductPerStep:
    """``qfact`` and ``qfalling`` read the prefixes that ``gqf_point``
    stores, so the next one costs a single product."""

    @pytest.mark.parametrize("base", [1, 2])
    def test_qfact_after_its_predecessor(self, products, base):
        qfact(11, base)
        for n in range(12, 20):
            products.clear()
            assert qfact(n, base) == qfact(n - 1, base) * qint(n, base)
            assert products == [(n, base)]

    @pytest.mark.parametrize("base", [1, 3])
    def test_qfalling_sweep_over_k(self, products, base):
        n = 15
        for k in range(n + 1):
            qfalling(n, k, base)
            assert products == [(n - i, base) for i in range(k)]


def test_threads_that_sweep_one_key_store_equal_prefixes(cold_memo):
    # one entry per n: a thread that reads a prefix another thread is
    # storing finds the whole value or none, never a shifted one
    plain = [LaurentPoly.one()]
    for i in range(24):
        plain.append(plain[-1] * qint(-3 + 2 * i, 2))
    orders = [range(25), range(24, -1, -1), range(0, 25, 3), [24, 5, 17, 0, 24]]
    errors = []

    def sweep(order):
        for n in order:
            if gqf_point(-3, -2, n, 2) != plain[n]:
                errors.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(o,)) for o in orders * 2]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(qcalc._GQF_POINTS[-3, -2, 2, n] == plain[n] for n in range(1, 25))


class TestQBinom:
    def test_values(self):
        assert qbinom(2, 1).to_str() == "1 + q"
        assert qbinom(4, 2).to_str() == "1 + q + 2*q^2 + q^3 + q^4"
        assert qbinom(5, 0) == 1

    def test_out_of_range_is_zero(self):
        assert qbinom(3, -1).is_zero
        assert qbinom(3, 4).is_zero
        assert qbinom(-2, 0).is_zero

    def test_symmetry(self):
        # qbinom reads C(n, n - k) from the cell of C(n, k); the palindrome
        # C(n, k) = q^(a k (n-k)) C(n, k) at q^-1, over q^a, is no restatement
        for a in (1, 2):
            for n in range(13):
                for k in range(n + 1):
                    value = qbinom(n, k, a)
                    mirror = LaurentPoly({a * k * (n - k) - e: c for e, c in value.items()})
                    assert qbinom(n, n - k, a) == value == mirror, (a, n, k)

    def test_band_is_the_narrower_column(self, cold_memo):
        # C(300, 298) is column 2 of row 300, a band three columns wide
        assert lp_eval_q1(qbinom(300, 298)) == math.comb(300, 2)
        assert _triangles() == [
            {"weights": "_qbinom_weights", "alpha": 1, "rows": 1, "cells": 3}
        ]

    def test_equals_the_factorial_quotient(self):
        # [n]! / ([k]! [n-k]!) by long division, not the q-Pascal rule
        for a in (1, 2, 3):
            for n in range(13):
                for k in range(n + 1):
                    expected = lp_div_exact(qfact(n, a), qfact(k, a) * qfact(n - k, a))
                    assert qbinom(n, k, a) == expected, (a, n, k)


class TestQFalling:
    def test_values(self):
        assert qfalling(3, 2).to_str() == "1 + 2*q + 2*q^2 + q^3"
        assert qfalling(5, 0) == 1
        assert lp_eval_q1(qfalling(4, 2)) == 12

    def test_order_too_large(self):
        with pytest.raises(InvalidOrder):
            qfalling(2, 3)


class TestGqfPoint:
    def test_values(self):
        # [aj|-a]_n = [aj][a(j+1)]...[a(j+n-1)]
        assert gqf_point(1, -1, 2).to_str() == "1 + q"
        assert gqf_point(0, -2, 3).is_zero


class TestProductIdentities:
    def test_ascending_product_factors_through_base(self):
        # [aj|-a]_n = [a]^n prod_i [j+i] over q^a
        for a in (1, 2, 3):
            for j in range(6):
                for n in range(7):
                    lhs = gqf_point(a * j, -a, n)
                    rhs = qint(a) ** n
                    for i in range(n):
                        rhs = rhs * qint(j + i, a)
                    assert lhs == rhs, (a, j, n)

    def test_falling_over_factorial_is_binomial(self):
        for a in (1, 2, 3):
            for j in range(1, 6):
                for n in range(7):
                    lhs = lp_div_exact(qfalling(j + n - 1, n, a), qfact(n, a))
                    assert lhs == qbinom(j + n - 1, n, a), (a, j, n)

    def test_geometric_product_generates_binomials(self):
        for n in range(1, 5):
            prod = TruncSeries.one(8)
            for i in range(n):
                prod = ts_mul_geometric(prod, monomial(i))
            for k in range(9):
                assert prod.coeff(k) == qbinom(n + k - 1, k), (n, k)


class TestClassicalLimits:
    def test_q1_values(self):
        for n in range(11):
            assert lp_eval_q1(qint(n)) == n
            assert lp_eval_q1(qfact(n)) == math.factorial(n)
            for k in range(n + 1):
                assert lp_eval_q1(qbinom(n, k)) == math.comb(n, k)
                assert lp_eval_q1(qfalling(n, k)) == math.perm(n, k)
