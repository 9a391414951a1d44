"""q-Whitney family tests: recurrences against their defining basis
expansions, cross-route equalities, inversion, and classical limits."""

import math
from functools import partial

import pytest

from whitneylah.arith import LaurentPoly, monomial
from whitneylah.base import TruncSeries
from whitneylah.classical import lah, stirling1u, stirling2
from whitneylah.dense import lp_eval_q1
from whitneylah.qcalc import gqf_point, qbinom, qfact, qfalling, qint
from whitneylah.whitney import InvalidAlpha, dowling
from whitneylah import qcalc
from whitneylah.qroutes import (
    _qbinom_inverse_entry,
    _qbinom_transform_entry,
    qwl_egf_sum_series,
)
from whitneylah.qwhitney import qdowling, qw1, qw2, qwl


q = LaurentPoly.var()


class TestQIntReflection:
    def test_reflection(self):
        assert qint(-1).to_str() == "-q^-1"
        assert qint(-2).to_str() == "-q^-2 - q^-1"
        assert qint(-3, 2) == -monomial(-6) * qint(3, 2)

    def test_reflection_consistency(self):
        # [m] + q^m [-m] reversed: [-m]_q = -q^(-m) [m]_q
        for m in range(1, 8):
            assert qint(-m) == -1 * (monomial(-m) * qint(m))

    @pytest.mark.parametrize("base", [1, 2, 3])
    def test_reflection_over_q_to_the_base(self, base):
        # built as a run of -1 at stride base, with no product
        for m in range(-12, 0):
            expected = -1 * monomial(m * base) * qint(-m, base)
            value = qint(m, base)
            assert value == expected, (m, base)
            assert dict(value.items()) == {e: -1 for e in range(m * base, 0, base)}


class TestGeneralizedQFactorial:
    """``gqf_point`` stores every prefix [t|a]_1..n it computes, so it makes
    one product past the longest stored prefix."""

    def test_cold_sweep_makes_one_product_per_step(self, cold_memo, monkeypatch):
        calls = []

        def counted(m, base=1):
            calls.append(m)
            return qint(m, base)

        monkeypatch.setattr(qcalc, "qint", counted)
        for n in range(21):
            gqf_point(-5, 2, n)
        assert calls == [-5 - 2 * i for i in range(20)]

    @pytest.mark.parametrize("a", [1, 2, 3, -1, -2, -3])
    def test_memo_equals_a_plain_product(self, cold_memo, a):
        for t in (-1, -4, -7):
            plain = [LaurentPoly.one()]
            for i in range(30):
                plain.append(plain[-1] * qint(t - i * a))
            # descending, then ascending, then again: each reads its prefixes
            for n in [*range(30, -1, -7), *range(31), 30]:
                assert gqf_point(t, a, n) == plain[n], (t, a, n)


@pytest.mark.parametrize("family", [qw1, qw2, qwl, partial(qwl, route="explicit")])
def test_bool_alpha_is_rejected(family):
    family(1, 3, 1)
    with pytest.raises(InvalidAlpha):
        family(True, 3, 1)


class TestFirstKind:
    def test_values(self):
        assert qw1(1, 2, 1).to_str() == "-q^-1"
        assert qw1(1, 2, 2).to_str() == "q^-1"
        for a in (1, 2):
            for n in range(6):
                assert lp_eval_q1(qw1(a, n, n)) == 1

    def test_zero_alpha_rejected(self):
        with pytest.raises(InvalidAlpha):
            qw1(0, 2, 1)

    def test_defining_expansion_at_points(self):
        # [t|a]_n = sum_k qw1(a,n,k) [t]^k at t = m*a for m = 0..n
        for a in (1, 2, -1, -2):
            for n in range(7):
                for m in range(n + 1):
                    t = m * a
                    tval = qint(t)
                    rhs = LaurentPoly.zero()
                    for k in range(n + 1):
                        rhs = rhs + qw1(a, n, k) * tval**k
                    assert gqf_point(t, a, n) == rhs, (a, n, m)


class TestSecondKind:
    def test_values(self):
        assert qw2(1, 3, 2).to_str() == "2*q + q^2"
        assert lp_eval_q1(qw2(1, 3, 2)) == stirling2(3, 2)
        assert qw2(-1, 2, 1).to_str() == "-q^-1"

    def test_diagonal_is_monomial(self):
        for a in (1, 2, -1, -2):
            for n in range(7):
                assert qw2(a, n, n) == monomial(a * n * (n - 1) // 2), (a, n)

    def test_defining_expansion_at_points(self):
        # [t]^n = sum_k qw2(a,n,k) [t|a]_k at t = m*a for m = 0..n
        for a in (1, 2, -1, -2):
            for n in range(7):
                for m in range(n + 1):
                    t = m * a
                    tval = qint(t)
                    rhs = LaurentPoly.zero()
                    for k in range(n + 1):
                        rhs = rhs + qw2(a, n, k) * gqf_point(t, a, k)
                    assert tval**n == rhs, (a, n, m)


class TestThirdKind:
    def test_values(self):
        assert qwl(1, 2, 1).to_str() == "1 + q"
        assert qwl(2, 2, 1).to_str() == "1 + q + q^2 + q^3"
        assert qwl(1, 2, 2).to_str() == "q^2"

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidAlpha):
            qwl(-1, 2, 1)

    def test_defining_expansion_at_points(self):
        # [t|-a]_n = sum_k qwl(a,n,k) [t|a]_k at t = m*a for m = 0..n
        for a in (1, 2):
            for n in range(7):
                for m in range(n + 1):
                    t = m * a
                    rhs = LaurentPoly.zero()
                    for k in range(n + 1):
                        rhs = rhs + qwl(a, n, k) * gqf_point(t, a, k)
                    assert gqf_point(t, -a, n) == rhs, (a, n, m)

    def test_explicit_route(self):
        assert qwl(1, 2, 1, route="explicit").to_str() == "1 + q"
        assert qwl(2, 2, 1, route="explicit").to_str() == "1 + q + q^2 + q^3"
        for n in range(1, 6):
            assert qwl(1, n, 0, route="explicit").is_zero
        for a in (1, 2):
            for n in range(8):
                for k in range(n + 1):
                    assert qwl(a, n, k, route="explicit") == qwl(a, n, k), (a, n, k)

    def test_convolution_of_first_and_second_kinds(self):
        for a in (1, 2):
            for n in range(8):
                for k in range(n + 1):
                    rhs = LaurentPoly.zero()
                    for j in range(n + 1):
                        rhs = rhs + qw1(-a, n, j) * qw2(a, j, k)
                    assert qwl(a, n, k) == rhs, (a, n, k)

    def test_support_and_signs(self):
        for a in (1, 2):
            for n in range(8):
                for k in range(n + 1):
                    for e, c in qwl(a, n, k).items():
                        assert e >= 0 and c > 0 and c.denominator == 1
                    for e, c in qw2(a, n, k).items():
                        assert e >= 0 and c > 0 and c.denominator == 1
                    signed = (-1) ** (n - k) * qw1(a, n, k)
                    for e, c in signed.items():
                        assert c > 0, (a, n, k)


class TestEgfSumSeries:
    @staticmethod
    def reference(a, k, order):
        # sum_j (-1)^(k-j) q^(a C(k-j,2)) C(k,j)_{q^a} prod_{m<j} G_m, each
        # G_m = sum_i c_m^i t^i with c_m = q^(a m) [a]_q, multiplied out
        total = TruncSeries.zero(order).coeffs
        prod = TruncSeries.one(order)
        for j in range(k + 1):
            sign = (-1) ** (k - j)
            weight = monomial(a * math.comb(k - j, 2), sign) * qbinom(k, j, a)
            total = [x + y for x, y in zip(total, (prod * weight).coeffs)]
            c = monomial(a * j) * qint(a)
            prod = prod * TruncSeries([c**i for i in range(order + 1)], order)
        return TruncSeries(total, order)

    def test_equals_the_product_of_geometric_series(self):
        for a in (1, 2, 3):
            for k in range(6):
                for order in range(9):
                    expected = self.reference(a, k, order)
                    assert qwl_egf_sum_series(a, k, order) == expected, (a, k, order)

    def test_reads_row_k_in_one_build(self, cold_memo, monkeypatch):
        """C(k, j) is column min(j, k - j) of row k, and j = k // 2 is read
        first, so the band of row k is built once, one weights call per row
        below it, and every other j hits it. An ascending read of j widens
        the band one column at a time and rebuilds the rows below for each:
        840 calls at k = 40."""
        weights, rows = qcalc._qbinom_weights, []

        def counted(base, n, lo, hi):
            rows.append(n)
            return weights(base, n, lo, hi)

        monkeypatch.setattr(qcalc, "_qbinom_weights", counted)
        # every coefficient below t^k vanishes
        assert qwl_egf_sum_series(1, 40, 3) == TruncSeries.zero(3)
        assert len(rows) <= 2 * 40


class TestGarsiaRemmel:
    """The Garsia-Remmel q-Lah numbers are the q-Whitney-Lah triangle at
    alpha 1, by its recurrence and by its product route."""

    @pytest.mark.parametrize("route", ["recurrence", "product"])
    def test_values(self, route):
        assert qwl(1, 2, 1, route=route).to_str() == "1 + q"
        assert qwl(1, 1, 1, route=route) == 1
        assert qwl(1, 2, 2, route=route).to_str() == "q^2"

    def test_routes_agree(self):
        for n in range(9):
            for k in range(1, n + 1):
                assert qwl(1, n, k, route="product") == qwl(1, n, k), (n, k)

    def test_is_the_garsia_remmel_closed_form(self):
        # L_q(n, k) = q^(k(k-1)) C(n-1, k-1)_q [n]!/[k]!, in Garsia-Remmel's
        # own shape rather than the product route's C(n, k)_q [n-1|1]_(n-k)
        for n in range(1, 9):
            for k in range(1, n + 1):
                expected = (
                    monomial(k * (k - 1)) * qbinom(n - 1, k - 1) * qfalling(n, n - k)
                )
                assert qwl(1, n, k) == expected, (n, k)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_product_route_at_q_1_is_the_lah_product(self, a):
        # q -> 1 takes the product route to twl's: a^(n-k) L(n, k)
        for n in range(8):
            for k in range(n + 1):
                value = lp_eval_q1(qwl(a, n, k, route="product"))
                assert value == a ** (n - k) * lah(n, k), (a, n, k)


class TestQDowling:
    def test_values(self):
        assert qdowling(1, 2).to_str() == "1 + q"
        assert qdowling(3, 0) == 1
        for n in range(9):
            assert lp_eval_q1(qdowling(1, n)) == dowling(1, n)

    def test_qi_formula(self):
        assert qdowling(1, 2, route="qi").to_str() == "1 + q"
        assert qdowling(1, 0, route="qi") == 1
        assert lp_eval_q1(qdowling(2, 2, route="qi")) == 3
        for a in (1, 2):
            for n in range(7):
                assert qdowling(a, n, route="qi") == qdowling(a, n), (a, n)


class TestInverseRelation:
    def test_matrices_are_mutual_inverses(self):
        dim = 7
        for a in (1, 2, -1, -2):
            for n in range(dim):
                for m in range(n + 1):
                    want = LaurentPoly.one() if n == m else LaurentPoly.zero()
                    s1 = LaurentPoly.zero()
                    s2 = LaurentPoly.zero()
                    for j in range(m, n + 1):
                        s1 = s1 + qw1(a, n, j) * qw2(a, j, m)
                        s2 = s2 + qw2(a, n, j) * qw1(a, j, m)
                    assert s1 == want and s2 == want, (a, n, m)


class TestQBinomialInversion:
    def test_round_trip(self):
        samples = [
            [monomial(j) for j in range(9)],
            [(1 + q) ** j for j in range(9)],
            [monomial(-j) + j for j in range(9)],
        ]
        for a in (1, 2):
            for f in samples:
                F = [_qbinom_transform_entry(f, k, a) for k in range(len(f))]
                assert [_qbinom_inverse_entry(F, k, a) for k in range(len(F))] == f


class TestFactorialSumIdentity:
    @staticmethod
    def _sides(a, k, n, printed):
        aq = qint(a)
        lhs = LaurentPoly.zero()
        for j in range(k + 1):
            exp = n * j + math.comb(j + 1, 2)
            if not printed:
                exp *= a
            lhs = lhs + (-1) ** j * (
                aq**j * monomial(-exp) * qwl(a, k, j) * qfact(n + j, a)
            )
        rhs = (-1) ** k * aq**k * qfact(n, a)
        if not printed:
            rhs = rhs * monomial(-a * (k * (n + 1) - math.comb(k, 2)))
        for i in range(n - k + 2, n + 2):
            rhs = rhs * qint(i, a)
        return lhs, rhs

    def test_desk_anchor(self):
        lhs, rhs = self._sides(1, 1, 1, printed=False)
        assert lhs.to_str() == "-q^-2 - q^-1"
        assert lhs == rhs

    def test_corrected_grid(self):
        for a in (1, 2):
            for k in range(1, 7):
                for n in range(k - 1, 9):
                    lhs, rhs = self._sides(a, k, n, printed=False)
                    assert lhs == rhs, (a, k, n)

    def test_printed_form_fails(self):
        lhs, rhs = self._sides(1, 1, 1, printed=True)
        assert lhs.to_str() == "-q^-2 - q^-1"
        assert rhs.to_str() == "-1 - q"
        assert lhs != rhs

    def test_q_to_1_reduces_to_lah_factorial_sum(self):
        # the alpha = 1 corollary collapses to the classical alternating sum
        for k in range(1, 6):
            for n in range(k - 1, 8):
                lhs, rhs = self._sides(1, k, n, printed=False)
                classical = sum(
                    (-1) ** j * lah(k, j) * math.factorial(n + j)
                    for j in range(k + 1)
                )
                assert lp_eval_q1(lhs) == classical
                assert lp_eval_q1(rhs) == (-1) ** k * math.factorial(n) * (
                    math.factorial(n + 1) // math.factorial(n - k + 1)
                )


class TestClassicalLimits:
    def test_all_families(self):
        for a in (1, 2):
            for n in range(8):
                for k in range(n + 1):
                    assert lp_eval_q1(qwl(a, n, k)) == a ** (n - k) * lah(n, k)
                    assert lp_eval_q1(qw2(a, n, k)) == a ** (n - k) * stirling2(n, k)
                    assert lp_eval_q1(qw1(a, n, k)) == (-1) ** (n - k) * a ** (
                        n - k
                    ) * stirling1u(n, k)
                assert lp_eval_q1(qdowling(a, n)) == dowling(a, n)
