"""Translated Whitney numbers and relatives.

Covers the translated Whitney numbers of the first and second kind, the
translated Whitney-Lah numbers through three independent computation routes,
the generic two-sequence recurrence they specialize, and the translated
Dowling numbers (exact row sums, the alternating Qi-type explicit formula,
and a Dobinski-style series whose exact integer value is read off from a
bracket of certified rational bounds). ``ROUTES`` names each family's
``route`` values, the default first.

The recurrence triangles are weights for the triangle engine in classical,
whose comment block states how it builds, stores and resumes rows. Values
and row sums are read through the engine's ``_cell`` and ``_row_sum``.

``twl_egf_check`` is the ``r3`` identity of the registry, the EGF of a
Whitney-Lah column against the engine's triangle, computed over the
integers; the CLI's ``series`` runs it without loading the registry. Its
memo stores each coefficient of (t/(1 - alpha t))^k already multiplied by
n!, so a check reads one integer and divides it by k!. Only
the explicit two-sequence formula and the Dobinski bracket compute with
rationals, and they import ``fractions`` when called, so the Whitney and
Dowling families and ``r3`` run without it. The module takes its errors,
memo table and ``TruncSeries`` from ``classical`` and never loads the
Laurent kernel ``arith``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import TYPE_CHECKING, Callable, NamedTuple

from .classical import (
    DomainError,
    InvalidAlpha,
    NonExactDivision,
    TruncSeries,
    _cell,
    _check_alpha,
    _check_route,
    _lru_memo,
    _off_triangle,
    _row_sum,
    _tw1_weights,
    _tw2_weights,
    ts_mul_geometric,
)

if TYPE_CHECKING:
    from fractions import Fraction

ROUTES = {
    "twl": ("recurrence", "explicit", "product"),
    "mansour_u": ("recurrence", "explicit"),
    "dowling": ("recurrence", "qi", "dobinski"),
}


class DuplicateBValues(DomainError):
    """The explicit two-sequence formula needs pairwise distinct b values."""


def _twl_weights(alpha: int, n: int, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """Whitney-Lah: u(n,k) = u(n-1,k-1) + alpha (n-1+k) u(n-1,k)."""
    return [1] * (hi - lo + 1), [alpha * (n - 1 + k) for k in range(lo, hi + 1)]


def tw1(alpha: int, n: int, k: int) -> int:
    """Translated Whitney number of the first kind, by its recurrence."""
    _check_alpha(alpha)
    return _cell(_tw1_weights, alpha, n, k)


def tw2(alpha: int, n: int, k: int) -> int:
    """Translated Whitney number of the second kind, by its recurrence."""
    _check_alpha(alpha)
    return _cell(_tw2_weights, alpha, n, k)


def twl(alpha: int, n: int, k: int, route: str = "recurrence") -> int:
    """Translated Whitney-Lah number by one of three independent routes.

    recurrence : additive triangle recurrence (the default)
    explicit   : alternating binomial sum over rising factorials
    product    : alpha^(n-k) (n!/k!) C(n-1, n-k)
    """
    _check_alpha(alpha)
    if route == "recurrence":
        return _cell(_twl_weights, alpha, n, k)
    _check_route(ROUTES, "twl", route)
    # the product form needs 1 <= k <= n; column 0 is 1 at n = 0 and 0
    # below it, and off the triangle every route is 0
    if _off_triangle(n, k) or k == 0:
        return int(n == k == 0)
    if route == "explicit":
        acc = 0
        for j in range(k + 1):
            acc += (-1) ** (k - j) * math.comb(k, j) * math.prod(range(j, j + n))
        q, rem = divmod(acc, math.factorial(k))
        if rem:
            raise NonExactDivision(f"rising sum for ({n}, {k}) is not divisible by {k}!")
        return alpha ** (n - k) * q
    return alpha ** (n - k) * math.perm(n, n - k) * math.comb(n - 1, n - k)


class MansourSpec(NamedTuple):
    """Coefficient sequences (a_i) and (b_i) for the generic triangle
    recurrence u(n,k) = u(n-1,k-1) + (a_{n-1} + b_k) u(n-1,k). Immutable."""

    a: Callable[[int], Fraction | int]
    b: Callable[[int], Fraction | int]

    @classmethod
    def linear(cls, alpha: int) -> "MansourSpec":
        """a_i = alpha*i, b_j = alpha*j: specializes u to the translated
        Whitney-Lah triangle."""
        return cls(a=lambda i: alpha * i, b=lambda j: alpha * j)


def mansour_u(spec: MansourSpec, n: int, k: int, route: str = "recurrence") -> Fraction | int:
    """Generic two-sequence triangle value, by recurrence (the default) or
    by the partial-fraction explicit formula. The recurrence stays in the
    values' own ring, ``int`` for an integer spec; the explicit formula
    divides, so its value is a ``Fraction``.

    The explicit route's denominator runs over i = 0..k (i != j); it
    requires b_0..b_k pairwise distinct.
    """
    if route == "recurrence":
        return _mansour_recurrence(spec, n, k)
    _check_route(ROUTES, "mansour_u", route)
    return _mansour_explicit(spec, n, k, denom_bound=k)


def _mansour_recurrence(spec: MansourSpec, n: int, k: int) -> Fraction | int:
    # Its own loop, apart from the triangle engine: the mansour identity
    # compares it with the engine's Whitney-Lah rows.
    if _off_triangle(n, k):
        return 0
    bs = [spec.b(j) for j in range(k + 1)]
    col = [1] + [0] * k  # u(m, 0..k), from m = 0 up
    for m in range(1, n + 1):
        a = spec.a(m - 1)
        for j in range(min(m, k), 0, -1):
            col[j] = col[j - 1] + (a + bs[j]) * col[j]
        col[0] *= a + bs[0]
    return col[k]


def _mansour_explicit(spec: MansourSpec, n: int, k: int, denom_bound: int) -> Fraction:
    from fractions import Fraction

    if _off_triangle(n, k):
        return Fraction(0)
    bs = [spec.b(j) for j in range(max(k, denom_bound) + 1)]
    if len(set(bs[: k + 1])) != k + 1:
        raise DuplicateBValues(f"b_0..b_{k} must be pairwise distinct, got {bs[:k + 1]}")
    total = Fraction(0)
    for j in range(k + 1):
        num = 1
        for i in range(n):
            num *= bs[j] + spec.a(i)
        den = 1
        for i in range(denom_bound + 1):
            if i != j:
                if bs[j] == bs[i]:
                    raise DuplicateBValues(
                        f"b_{j} = b_{i} = {bs[j]} inside denominator range"
                    )
                den *= bs[j] - bs[i]
        total += Fraction(num, den)
    return total


def mansour_u_explicit_as_printed(spec: MansourSpec, n: int, k: int) -> Fraction:
    """Explicit formula with its denominator product over i = 0..n-1
    (i != j), the bound that contradicts the recurrence at (n,k) = (3,1).
    Kept for erratum documentation, not for computation."""
    return _mansour_explicit(spec, n, k, denom_bound=n - 1)


def dowling(alpha: int, n: int, route: str = "recurrence") -> int:
    """Translated Dowling number by one of three routes.

    recurrence : row sum of the second-kind triangle (the default)
    qi         : sum_j (-1)^(n-j) (sum_k twl(alpha,j,k)) tw2(alpha,n,j)
    dobinski   : the exact value of the Dobinski-style series
    """
    _check_alpha(alpha)
    if route == "recurrence":
        return _row_sum(_tw2_weights, alpha, n)
    _check_route(ROUTES, "dowling", route)
    if _off_triangle(n):
        return 0
    if route == "dobinski":
        return _dowling_dobinski(alpha, n)
    return sum(
        (-1) ** (n - j) * _row_sum(_twl_weights, alpha, j) * tw2(alpha, n, j)
        for j in range(n + 1)
    )


def _dowling_dobinski(alpha: int, n: int) -> int:
    """Translated Dowling number as the exact value of the Dobinski-style
    series D = e^(-1/alpha) S, S = sum_i T_i, T_i = (i alpha)^n / (i! alpha^i),
    computed apart from the triangle engine.

    The term ratio r_i = T_(i+1)/T_i = (i+1)^(n-1) / (i^n alpha) falls as i
    grows. At the first N with T_N > 0, r_N <= 1/2 and 8 T_(N+1) < 1, every
    later ratio is at most 1/2 too, so the tail after T_N is at most
    2 T_(N+1): S lies in [S_(N+1), S_(N+1) + T_(N+1)], narrower than 1/8.
    The partial sums E_m of the alternating series of e^(-1/alpha), whose
    terms never grow, fall on alternate sides of it inside [0, 1]; the first
    pair E_m, E_(m+1) whose gap times the upper end of S is below 1/4
    brackets it. The product of the two brackets is then narrower than 1/2
    and holds the integer D, its lower end rounded up. A product that does
    not show this raises ``ArithmeticError``.
    """
    from fractions import Fraction

    # S_i = p/q with q = i! alpha^i; t = (i alpha)^n is the numerator of T_i
    p, q, i = 0**n, 1, 0
    while True:
        i += 1
        t = (i * alpha) ** n
        p, q = p * i * alpha + t, q * i * alpha
        if 2 * i**n <= alpha * i * (i - 1) ** n and 8 * t < q:
            break
    # E_m = e/d with d = m! alpha^m
    e, d, m = 1, 1, 0
    while 4 * (p + t) >= q * d * (m + 1) * alpha:
        m += 1
        e, d = e * m * alpha + (-1) ** m, d * m * alpha
    e_next = Fraction(e * (m + 1) * alpha - (-1) ** m, d * (m + 1) * alpha)
    e_lo, e_hi = sorted((Fraction(e, d), e_next))
    lo, hi = e_lo * Fraction(p, q), e_hi * Fraction(p + t, q)
    value = math.ceil(lo)
    if not (hi - lo < 1 and value <= hi):
        raise ArithmeticError(f"the Dobinski bracket at ({alpha}, {n}) holds no single integer")
    return value


@_lru_memo("egf_series")
@lru_cache(maxsize=None, typed=True)
def _egf_series_cached(alpha: int, k: int, order: int) -> TruncSeries:
    """n! times the t^n coefficient of (t/(1 - alpha t))^k for n = 0..order,
    that is k! twl(alpha, n, k): the left side of ``r3`` before its division
    by k!, over the integers. t^k is multiplied k times by 1/(1 - alpha t),
    k O(N) passes and no series product, and one running product then
    scales coefficient n by n!. The memo is typed, so ``True`` or ``1.0``
    never reads the entry of 1 and meets ``_check_alpha`` instead."""
    _check_alpha(alpha)
    if k > order:  # t^k vanishes modulo t^(order+1)
        return TruncSeries.zero(order)
    powered = TruncSeries([0] * k + [1], order)
    for _ in range(k):
        powered = ts_mul_geometric(powered, alpha)
    factorials = accumulate(range(1, order + 1), mul, initial=1)
    return TruncSeries(map(mul, powered.coeffs, factorials), order)


def twl_egf_check(alpha: int, k: int, n: int, order: int = 12) -> tuple[int, int]:
    """Both sides of the Whitney-Lah EGF identity (``r3``) at (alpha, k, n),
    as exact integers: n! times the t^n coefficient of (t/(1 - alpha t))^k,
    truncated at max(order, n), divided by k!, and ``twl(alpha, n, k)``
    from the triangle engine. A division that leaves a remainder raises
    ``NonExactDivision``."""
    _check_alpha(alpha)
    # n or k below 0 is off the triangle; a k past n is left to the series,
    # whose zero coefficients below t^k are part of what the check compares;
    # `|`, not `or`, so that both n and k meet the int test
    if _off_triangle(n) | _off_triangle(k):
        return 0, 0
    scaled = _egf_series_cached(alpha, k, max(order, n)).coeff(n)
    # a zero side needs no k!, which is costly for a k far past n
    lhs, rem = divmod(scaled, math.factorial(k)) if scaled else (0, 0)
    if rem:
        raise NonExactDivision(f"{n}! times the t^{n} coefficient is not divisible by {k}!")
    return lhs, twl(alpha, n, k)
