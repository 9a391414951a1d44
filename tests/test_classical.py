"""Classical-family tests: Stirling, Lah, Bell, the enumeration oracle,
and the factorial polynomials."""

import math

import pytest

from independent import lah_oracle
from whitneylah.arith import LaurentPoly
from whitneylah.classical import (
    bell,
    binomial,
    falling_poly,
    genfact_poly,
    lah,
    rising_poly,
    stirling1u,
    stirling2,
)


class TestStirling:
    def test_first_kind_values(self):
        assert stirling1u(0, 0) == 1
        assert stirling1u(3, 2) == 3
        assert stirling1u(4, 2) == 11

    def test_second_kind_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        for n in range(11):
            assert stirling2(n, n) == 1

    def test_out_of_range(self):
        assert stirling1u(3, 4) == 0
        assert stirling1u(3, -1) == 0
        assert stirling2(-1, 0) == 0

    def test_first_kind_rows_sum_to_factorial(self):
        for n in range(9):
            assert sum(stirling1u(n, k) for k in range(n + 1)) == math.factorial(n)


class TestLah:
    def test_values(self):
        assert lah(3, 2) == 6
        assert lah(4, 2) == 36
        assert lah(4, 4) == 1
        assert lah(0, 0) == 1
        assert lah(3, 0) == 0

    def test_recurrence(self):
        for n in range(13):
            for k in range(n + 2):
                assert lah(n + 1, k) == lah(n, k - 1) + (n + k) * lah(n, k)

    def test_oracle_examples(self):
        assert lah_oracle(3, 2) == 6
        assert lah_oracle(1, 1) == 1
        assert lah_oracle(4, 1) == 24
        assert lah_oracle(0, 0) == 1
        assert lah_oracle(5, 0) == 0

    def test_oracle_agrees_with_closed_form(self):
        for n in range(8):
            for k in range(n + 1):
                assert lah(n, k) == lah_oracle(n, k), (n, k)

    def test_oracle_scale_limit(self):
        with pytest.raises(ValueError, match="n <= 10"):
            lah_oracle(11, 3)

    def test_stirling_convolution(self):
        for n in range(13):
            for k in range(n + 1):
                assert lah(n, k) == sum(
                    stirling1u(n, j) * stirling2(j, k) for j in range(k, n + 1)
                )


class TestBell:
    def test_values(self):
        assert bell(0) == 1
        assert bell(3) == 5
        assert bell(5) == 52

    def test_lah_stirling_formula(self):
        for n in range(1, 13):
            rhs = sum(
                (-1) ** (n - k)
                * sum(lah(k, l) for l in range(1, k + 1))
                * stirling2(n, k)
                for k in range(1, n + 1)
            )
            assert bell(n) == rhs, n


class TestBinomial:
    def test_matches_math_comb(self):
        for r in range(10):
            for k in range(12):
                assert binomial(r, k) == math.comb(r, k)

    def test_negative_upper_argument(self):
        assert binomial(-1, 0) == 1
        assert binomial(-1, 2) == 1
        assert binomial(-2, 3) == -4
        assert binomial(-3, 1) == -3

    def test_negative_lower_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(-5, -2) == 0


class TestFactorialPolynomials:
    def test_small_cases(self):
        t = LaurentPoly.var()
        assert rising_poly(0) == 1
        assert falling_poly(2) == t**2 - t
        assert rising_poly(2) == t**2 + t
        assert genfact_poly(2, 3) == t**2 - 3 * t
        assert genfact_poly(2, -3) == t**2 + 3 * t

    def test_rising_in_powers_of_t(self):
        t = LaurentPoly.var()
        for n in range(11):
            rhs = LaurentPoly.zero()
            for k in range(n + 1):
                rhs = rhs + stirling1u(n, k) * t**k
            assert rising_poly(n) == rhs, n

    def test_falling_in_powers_of_t(self):
        t = LaurentPoly.var()
        for n in range(11):
            rhs = LaurentPoly.zero()
            for k in range(n + 1):
                rhs = rhs + (-1) ** (n - k) * stirling1u(n, k) * t**k
            assert falling_poly(n) == rhs, n

    def test_powers_in_falling_basis(self):
        t = LaurentPoly.var()
        for n in range(11):
            rhs = LaurentPoly.zero()
            for k in range(n + 1):
                rhs = rhs + stirling2(n, k) * falling_poly(k)
            assert t**n == rhs, n

    def test_rising_in_falling_basis(self):
        for n in range(11):
            rhs = LaurentPoly.zero()
            for k in range(n + 1):
                rhs = rhs + lah(n, k) * falling_poly(k)
            assert rising_poly(n) == rhs, n
