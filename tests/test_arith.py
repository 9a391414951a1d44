"""Kernel tests: Laurent polynomials and truncated series."""

from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitneylah.arith import LaurentPoly, monomial
from whitneylah.classical import NonExactDivision, TruncSeries, ts_mul_geometric
from whitneylah.dense import DivisionByZero, lp_div_exact, lp_eval_q1

q = LaurentPoly.var()
qinv = monomial(-1)


class TestSerialization:
    def test_canonical_forms(self):
        assert LaurentPoly().to_str() == "0"
        assert (1 + q).to_str() == "1 + q"
        assert (-qinv).to_str() == "-q^-1"
        assert (2 * q + q**2).to_str() == "2*q + q^2"
        assert (LaurentPoly({0: 7}) + q**3).to_str() == "7 + q^3"
        with pytest.raises(TypeError):
            LaurentPoly({0: Fraction(1, 2)})

    def test_sign_folding_and_elisions(self):
        assert (q - 1).to_str() == "-1 + q"
        assert (q - q**2).to_str() == "q - q^2"
        assert (-q - 1).to_str() == "-1 - q"
        assert monomial(2, -3).to_str() == "-3*q^2"
        with pytest.raises(TypeError):
            monomial(2, Fraction(-1, 3))
        assert monomial(0, -1).to_str() == "-1"
        assert monomial(1).to_str() == "q"

    def test_variable_name_override(self):
        assert (q**2 - 3).to_str("t") == "-3 + t^2"


class TestMul:
    def test_cross_cancellation(self):
        assert (qinv + 1) * (q - 1) == q - qinv

    def test_annihilator(self):
        assert ((1 + 5 * q) * LaurentPoly.zero()).is_zero

    def test_qfactorial_shape(self):
        assert (1 + q) * (1 + q + q**2) == 1 + 2 * q + 2 * q**2 + q**3


class TestDivExact:
    def test_geometric_factor(self):
        assert lp_div_exact(1 - q**2, 1 - q) == 1 + q

    def test_inverse_of_mul_example(self):
        assert lp_div_exact(q - qinv, qinv + 1) == q - 1

    def test_remainder_raises(self):
        with pytest.raises(NonExactDivision):
            lp_div_exact(1 + q**2, 1 + q)

    def test_zero_divisor_raises(self):
        with pytest.raises(DivisionByZero):
            lp_div_exact(1 + q, LaurentPoly.zero())

    def test_zero_dividend(self):
        assert lp_div_exact(LaurentPoly.zero(), 1 + q).is_zero


class TestEvalQ1:
    def test_coefficient_sum(self):
        assert lp_eval_q1(2 * q + q**2) == 3

    def test_negative_exponents(self):
        assert lp_eval_q1(-monomial(-2) - qinv) == -2

    def test_qint_four(self):
        assert lp_eval_q1(1 + q + q**2 + q**3) == 4


class TestIntegerCoefficients:
    def test_fraction_operand_raises(self):
        for op in (add, sub, mul):
            with pytest.raises(TypeError):
                op(q, Fraction(1, 2))
            with pytest.raises(TypeError):
                op(Fraction(1, 2), q)

    def test_bool_coefficient_raises(self):
        # as a bool exponent and a bool operand already do
        for make in (lambda: LaurentPoly({0: True}), lambda: monomial(3, True)):
            with pytest.raises(TypeError):
                make()
        with pytest.raises(TypeError):
            monomial(True)
        with pytest.raises(TypeError):
            q * True

    def test_bool_exponent_raises(self):
        # True is not the exponent 1, as it is not the coefficient 1
        for base in (q, 1 + q):
            with pytest.raises(ValueError):
                base**True
            with pytest.raises(ValueError):
                base**False


class TestTruncSeries:
    def test_mul_geometric_int_ratio(self):
        one = TruncSeries.one
        assert ts_mul_geometric(one(3), 1) == TruncSeries([1, 1, 1, 1], 3)
        assert ts_mul_geometric(one(4), -2) == TruncSeries([1, -2, 4, -8, 16], 4)
        assert ts_mul_geometric(one(0), 7) == one(0)
        # p[n] = s[n] + c p[n-1]: by 1/(1 - t), a series becomes its partial sums
        assert ts_mul_geometric(TruncSeries([1, 2, 3], 3), 1) == TruncSeries([1, 3, 6, 6], 3)
        assert ts_mul_geometric(TruncSeries([0, 0, 1], 4), 3) == TruncSeries(
            [0, 0, 1, 3, 9], 4
        )

    def test_mul_geometric_zero_ratio_is_identity(self):
        s = TruncSeries([4, -1, 0, 2], 5)
        assert ts_mul_geometric(s, 0) == s
        assert ts_mul_geometric(TruncSeries.one(3), LaurentPoly.zero()) == TruncSeries.one(3)
        assert ts_mul_geometric(TruncSeries.zero(3), q) == TruncSeries.zero(3)

    def test_mul_geometric_laurent_coeffs(self):
        cs = ts_mul_geometric(TruncSeries.one(2), q).coeffs
        assert list(cs) == [LaurentPoly.one(), q, q**2]
        # every coefficient lies in the ring of c and s, the first one too,
        # also where every coefficient of s is an int
        c = monomial(-1, 2)
        for s in (TruncSeries.one(0), TruncSeries.one(3), TruncSeries([3, 0, -1], 4)):
            cs = ts_mul_geometric(s, c).coeffs
            assert all(isinstance(x, LaurentPoly) for x in cs), cs

    def test_order_must_be_a_non_negative_int(self):
        for order in (True, False, 2.5, -1):
            with pytest.raises(ValueError, match="order"):
                TruncSeries([1], order)

    def test_order_mixing_takes_minimum(self):
        a = TruncSeries([1, 1, 1, 1], 3)
        b = TruncSeries([1, 2], 1)
        assert (a * b).order == 1


# -- randomized properties ---------------------------------------------------

coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(10**30), max_value=10**30),
)
exponents = st.integers(min_value=-4, max_value=4)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(LaurentPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, nonzero_polys)
def test_mul_div_roundtrip(a, b):
    assert lp_div_exact(a * b, b) == a


@given(polys, polys)
def test_eval_q1_is_homomorphism(a, b):
    assert lp_eval_q1(a * b) == lp_eval_q1(a) * lp_eval_q1(b)
    assert lp_eval_q1(a + b) == lp_eval_q1(a) + lp_eval_q1(b)


@given(st.lists(st.tuples(exponents, coeffs), max_size=8))
def test_canonical_form_is_construction_order_independent(pairs):
    built = LaurentPoly(pairs)
    rebuilt = LaurentPoly(list(reversed(pairs)))
    assert built == rebuilt
    assert list(built.items()) == list(rebuilt.items())
    assert built.to_str() == rebuilt.to_str()


@given(
    st.lists(st.one_of(coeffs, polys), max_size=7),
    st.one_of(coeffs, polys),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=60)
def test_mul_geometric_inverts_one_minus_ct(cs, c, order):
    s = TruncSeries(cs, order)
    assert ts_mul_geometric(s, c) * TruncSeries([1, -c], order) == s


@given(st.lists(coeffs, max_size=7), st.integers(min_value=0, max_value=6))
@settings(max_examples=30)
def test_mul_geometric_is_the_product_by_the_geometric_series(cs, order):
    # against the convolution by sum_j c^j t^j, the series it stands for
    for c in (-3, 0, 1, 2, q, monomial(-1, 2) + 1):
        s = TruncSeries(cs, order)
        geometric = TruncSeries([c**j for j in range(order + 1)], order)
        assert ts_mul_geometric(s, c) == s * geometric
