"""Translated Whitney family tests: recurrences, the four Whitney-Lah
routes, the generic two-sequence triangle, and the Dowling numbers."""

import math
from fractions import Fraction
from functools import partial

import pytest

from independent import whitney_lah
from whitneylah import whitney
from whitneylah.arith import LaurentPoly
from whitneylah.base import DomainError, TruncSeries
from whitneylah.classical import (
    bell,
    binomial,
    genfact_poly,
    lah,
    stirling1u,
    stirling2,
)
from whitneylah.qroutes import qwl_egf_check
from whitneylah.whitney import (
    ROUTES,
    DuplicateBValues,
    InvalidAlpha,
    MansourSpec,
    dowling,
    mansour_u,
    mansour_u_explicit_as_printed,
    tw1,
    tw2,
    twl,
    twl_egf_check,
)


@pytest.mark.parametrize(
    "family, args",
    [
        (tw1, (3, 1)),
        (tw2, (3, 1)),
        (twl, (3, 1)),
        (dowling, (3,)),
        (partial(dowling, route="dobinski"), (3,)),
        (partial(dowling, route="qi"), (3,)),
        (twl_egf_check, (3, 5)),
    ],
)
def test_bool_alpha_is_rejected(family, args):
    # True == 1, but no family takes a bool for its alpha
    family(1, *args)
    with pytest.raises(InvalidAlpha):
        family(True, *args)


def test_float_alpha_misses_the_egf_memo():
    # the memo is typed: 2.0 == 2 hashes alike, but must not read 2's entry
    twl_egf_check(2, 3, 5)
    with pytest.raises(InvalidAlpha):
        twl_egf_check(2.0, 3, 5)


@pytest.mark.parametrize("alpha", [True, 1.0])
def test_bool_and_float_alpha_miss_the_q_egf_memo(alpha):
    # the qr1.1 memo is typed too: alpha 1 fills it first
    qwl_egf_check(1, 1, 2)
    with pytest.raises(InvalidAlpha):
        qwl_egf_check(alpha, 1, 2)


class TestFirstKind:
    def test_values(self):
        assert tw1(2, 3, 2) == 6
        assert tw1(1, 4, 2) == 11
        for n in range(8):
            assert tw1(3, n, n) == 1

    def test_scaling_law(self):
        for a in (1, 2, 3):
            for n in range(13):
                for k in range(n + 1):
                    assert tw1(a, n, k) == a ** (n - k) * stirling1u(n, k)

    def test_alpha_validation(self):
        with pytest.raises(InvalidAlpha):
            tw1(0, 3, 1)


class TestSecondKind:
    def test_values(self):
        assert tw2(2, 3, 2) == 6
        assert tw2(1, 4, 2) == 7
        assert tw2(5, 1, 1) == 1

    def test_scaling_law(self):
        for a in (1, 2, 3):
            for n in range(13):
                for k in range(n + 1):
                    assert tw2(a, n, k) == a ** (n - k) * stirling2(n, k)


class TestWhitneyLah:
    def test_values_all_routes(self):
        for route in ROUTES["twl"]:
            assert twl(2, 3, 2, route=route) == 12, route
            assert twl(3, 2, 1, route=route) == 6, route
            assert twl(2, 6, 6, route=route) == 1, route
            assert twl(2, 0, 0, route=route) == 1, route
            assert twl(2, 3, 0, route=route) == 0, route

    def test_route_agreement(self):
        for a in (1, 2, 3):
            for n in range(11):
                for k in range(n + 1):
                    ref = twl(a, n, k)
                    for route in ROUTES["twl"][1:]:
                        assert twl(a, n, k, route=route) == ref, (a, n, k, route)

    def test_scaled_is_lah_multiple(self):
        for a in (1, 2, 3):
            for n in range(13):
                for k in range(n + 1):
                    assert twl(a, n, k) == a ** (n - k) * lah(n, k)

    def test_unknown_route(self):
        with pytest.raises(ValueError, match="unknown route 'oracle' of twl"):
            twl(1, 3, 2, route="oracle")

    def test_scaled_is_not_a_route(self):
        # alpha^(n-k) L(n,k) is the product route multiplied out; r2 writes it inline
        message = "unknown route 'scaled' of twl; its routes are recurrence, explicit, product"
        with pytest.raises(DomainError) as caught:
            twl(2, 3, 2, route="scaled")
        assert type(caught.value) is DomainError and str(caught.value) == message

    def test_basis_change_identity(self):
        # (t|-a)_n expanded over the (t|a)_k basis with twl coefficients
        for a in (1, 2, 3):
            for n in range(11):
                rhs = LaurentPoly.zero()
                for k in range(n + 1):
                    rhs = rhs + twl(a, n, k) * genfact_poly(k, a)
                assert genfact_poly(n, -a) == rhs, (a, n)

    def test_convolution_of_both_kinds(self):
        for a in (1, 2, 3):
            for n in range(11):
                for j in range(n + 1):
                    rhs = sum(tw1(a, n, k) * tw2(a, k, j) for k in range(j, n + 1))
                    assert twl(a, n, j) == rhs, (a, n, j)

    def test_triangle_is_the_closed_form(self):
        # the recursive triangle against the reference the EGF tests use
        for a in (1, 2, 3):
            for n in range(13):
                for k in range(n + 2):
                    assert twl(a, n, k) == whitney_lah(a, n, k), (a, n, k)

    def test_egf_coefficients(self):
        for a in (1, 2, 3):
            for k in range(5):
                for n in range(11):
                    expected = whitney_lah(a, n, k)
                    assert twl_egf_check(a, k, n, 10) == (expected, expected), (a, k, n)

    def test_egf_series_equals_the_power_of_t_over_one_minus_alpha_t(self):
        # the reference multiplies by t/(1 - alpha t) by convolution, its
        # geometric factor written out as sum_j alpha^j t^j; the memo holds
        # its coefficient n times n!
        for a in (1, 2, 3):
            for order in range(41):
                t = TruncSeries([0, 1], order)
                geometric = TruncSeries([a**j for j in range(order + 1)], order)
                powered = TruncSeries.one(order)
                for k in range(7):
                    scaled = [c * math.factorial(n) for n, c in enumerate(powered.coeffs)]
                    stored = whitney._egf_series_cached(a, k, order)
                    assert stored == TruncSeries(scaled, order), (a, k, order)
                    powered = powered * (t * geometric)

    def test_egf_series_past_its_order_is_zero(self):
        # t^k vanishes modulo t^(order+1): no k passes and no k!
        assert twl_egf_check(2, 10**6, 3) == (0, 0)


class TestHorizontalGeneratingFunctions:
    def test_first_kind_in_powers(self):
        t = LaurentPoly.var()
        for a in (1, 2, 3):
            for n in range(11):
                rhs = LaurentPoly.zero()
                for k in range(n + 1):
                    rhs = rhs + tw1(a, n, k) * t**k
                assert genfact_poly(n, -a) == rhs, (a, n)

    def test_powers_in_generalized_factorials(self):
        t = LaurentPoly.var()
        for a in (1, 2, 3):
            for n in range(11):
                rhs = LaurentPoly.zero()
                for k in range(n + 1):
                    rhs = rhs + tw2(a, n, k) * genfact_poly(k, a)
                assert t**n == rhs, (a, n)


class TestOrthogonality:
    def test_both_orders(self):
        for a in (1, 2, 3):
            for n in range(11):
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


class TestMansour:
    def test_unit_spec_values(self):
        spec = MansourSpec(a=lambda i: i, b=lambda j: j)
        assert mansour_u(spec, 1, 1) == 1
        assert mansour_u(spec, 3, 1) == 6
        assert mansour_u(spec, 3, 1, route="explicit") == 6

    def test_printed_denominator_bound_contradicts_recurrence(self):
        spec = MansourSpec(a=lambda i: i, b=lambda j: j)
        assert mansour_u_explicit_as_printed(spec, 3, 1) == -6

    def test_printed_bound_agrees_when_k_equals_n_minus_1(self):
        spec = MansourSpec(a=lambda i: i, b=lambda j: j)
        assert mansour_u_explicit_as_printed(spec, 2, 1) == mansour_u(spec, 2, 1)

    def test_linear_spec_is_whitney_lah(self):
        for a in (1, 2, 3):
            spec = MansourSpec.linear(a)
            for n in range(9):
                for k in range(n + 1):
                    assert mansour_u(spec, n, k) == twl(a, n, k), (a, n, k)
                    assert mansour_u(spec, n, k, route="explicit") == twl(a, n, k)

    def test_rational_sequences(self):
        spec = MansourSpec(
            a=lambda i: Fraction(i, 2), b=lambda j: Fraction(2 * j + 1, 3)
        )
        for n in range(7):
            for k in range(n + 1):
                assert mansour_u(spec, n, k) == mansour_u(spec, n, k, route="explicit")

    def test_integer_spec_stays_int(self):
        for a in (1, 2, 3):
            spec = MansourSpec.linear(a)
            for n in range(9):
                for k in range(n + 2):
                    assert type(mansour_u(spec, n, k)) is int, (a, n, k)

    def test_rational_spec_values(self):
        spec = MansourSpec(
            a=lambda i: Fraction(i, 2), b=lambda j: Fraction(2 * j + 1, 3)
        )
        for n, k, want in [(0, 0, 1), (3, 1, Fraction(71, 18)),
                           (5, 2, Fraction(1385, 18)), (6, 6, 1), (2, 3, 0)]:
            assert mansour_u(spec, n, k) == want, (n, k)
            got = mansour_u(spec, n, k, route="explicit")
            assert type(got) is Fraction and got == want, (n, k)

    def test_duplicate_b_values_rejected(self):
        spec = MansourSpec(a=lambda i: i, b=lambda j: j % 2)
        with pytest.raises(DuplicateBValues):
            mansour_u(spec, 4, 3, route="explicit")

    def test_boundary_column(self):
        spec = MansourSpec(a=lambda i: 2 * i, b=lambda j: j + 1)
        for n in range(6):
            prod = Fraction(1)
            for i in range(n):
                prod *= 2 * i + 1
            assert mansour_u(spec, n, 0) == prod

    def test_deep_recurrence(self):
        # far past the default recursion limit, so the route must not recurse
        assert mansour_u(MansourSpec.linear(2), 1200, 1) == twl(2, 1200, 1, route="product")

    def test_spec_is_immutable(self):
        spec = MansourSpec(a=lambda i: i, b=lambda j: j)
        with pytest.raises(AttributeError):
            spec.a = lambda i: 2 * i
        assert spec.b(3) == 3
        assert MansourSpec.linear(2).a(5) == 10


class TestDowling:
    def test_values(self):
        assert dowling(1, 3) == 5
        assert dowling(2, 3) == 11
        assert dowling(4, 0) == 1

    def test_alpha_one_is_bell(self):
        for n in range(13):
            assert dowling(1, n) == bell(n)

    def test_qi_formula(self):
        assert dowling(1, 2, route="qi") == 2
        assert dowling(2, 2, route="qi") == 3
        for a in (1, 2, 3):
            for n in range(13):
                assert dowling(a, n, route="qi") == dowling(a, n), (a, n)

    def test_dobinski(self):
        assert dowling(1, 3, route="dobinski") == 5
        assert dowling(2, 3, route="dobinski") == 11
        for a in (1, 2, 3):
            assert dowling(a, 0, route="dobinski") == 1

    def test_dobinski_is_exact(self):
        for a in range(1, 6):
            for n in range(61):
                value = dowling(a, n, route="dobinski")
                assert type(value) is int and value == dowling(a, n), (a, n)

    @pytest.mark.parametrize(
        "alpha, n", [(3, 1000), (1, 219), (1, 221), (2, 193), (3, 182), (5, 166)]
    )
    def test_dobinski_exact_where_a_float_overflows(self, alpha, n):
        # a float partial sum overflows here; the integer bracket does not
        value = dowling(alpha, n, route="dobinski")
        assert type(value) is int and value == dowling(alpha, n)

    def test_dobinski_is_apart_from_the_engine(self, monkeypatch):
        def engine(*args):
            raise RuntimeError("the triangle engine was read")

        expected = dowling(2, 12)
        monkeypatch.setattr(whitney, "_cell", engine)
        monkeypatch.setattr(whitney, "_row_sum", engine)
        assert dowling(2, 12, route="dobinski") == expected
        with pytest.raises(RuntimeError):
            dowling(2, 12)

    def test_dobinski_validation(self):
        with pytest.raises(InvalidAlpha):
            dowling(0, 3, route="dobinski")

    # n = -1 gives 0, as the other routes do (test_routes)
    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_dobinski_rejects_n_that_is_not_a_non_negative_int(self, n):
        with pytest.raises(DomainError, match="n and k must be integers"):
            dowling(1, n, route="dobinski")


class TestGrahamIdentity:
    def test_full_grid(self):
        for l in range(9):
            for m in range(-2, 3):
                for s in range(9):
                    for n in range(9):
                        lhs = sum(
                            binomial(l, m + j) * binomial(s + j, n) * (-1) ** j
                            for j in range(-m, l - m + 1)
                        )
                        rhs = (-1) ** (l + m) * binomial(s - m, n - l)
                        assert lhs == rhs, (l, m, s, n)


class TestFactorialSum:
    def test_whitney_lah_alternating_sum(self):
        for a in (1, 2, 3):
            for k in range(2, 9):
                for n in range(k - 1, 13):
                    lhs = sum(
                        (-a) ** j * twl(a, k, j) * math.factorial(n + j)
                        for j in range(1, k + 1)
                    )
                    rhs = (
                        (-a) ** k
                        * math.factorial(n)
                        * (math.factorial(n + 1) // math.factorial(n - k + 1))
                    )
                    assert lhs == rhs, (a, k, n)

    def test_lah_alternating_sum(self):
        for k in range(2, 9):
            for n in range(k - 1, 13):
                lhs = sum(
                    (-1) ** j * lah(k, j) * math.factorial(n + j)
                    for j in range(1, k + 1)
                )
                rhs = (
                    (-1) ** k
                    * math.factorial(n)
                    * (math.factorial(n + 1) // math.factorial(n - k + 1))
                )
                assert lhs == rhs, (k, n)
