"""The q-families' second routes, the Gaussian-binomial transform pair and
the generating-function side of ``qr1.1``.

``qwhitney`` keeps the engine weights, the five family functions and
``ROUTES``; a family function imports this module only when it is asked
for a route other than its recurrence. A q-table runs only the
recurrences, so it neither loads nor compiles this module or the dense
kernel ``dense`` that the sums and divisions here use (``qwhitney``'s
docstring).

The Gaussian-binomial inversion sum, on which ``qwl``'s explicit route and
the generating-function side ``qwl_egf_sum_series`` rest, is written once,
in ``_qbinom_inverse_entry``; it and the forward entry
``_qbinom_transform_entry`` are the two sides of the registry's
``qbinom_inv``. No route body here reads the triangle it is checked
against: ``qwl``'s explicit sum is built from generalized q-factorials,
``qlah_gr``'s from Gaussian binomials and q-falling factorials, and
``qdowling``'s Qi sum from the q-Whitney-Lah row sums and the second-kind
triangle at -alpha.

``qwl_egf_check`` is the ``qr1.1`` identity of the registry, that
generating-function side against the engine's triangle; the CLI's
``series`` runs it without loading the registry. Its memo stores each
coefficient already multiplied by [n]_{q^alpha}!, so a check reads its
left side whole.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .arith import _ONE_POLY, LaurentPoly, monomial
from .base import TruncSeries, _lru_memo, ts_mul_geometric
from .classical import _check_alpha, _off_triangle, _row_sum
from .dense import lp_div_exact, lp_dot
from .qcalc import gqf_point, qbinom, qfact, qfalling, qint
from .qwhitney import _qwl_weights, qw2, qwl


def _qwl_explicit(alpha: int, n: int, k: int) -> LaurentPoly:
    """``qwl``'s explicit route for a checked alpha (its docstring)."""
    if _off_triangle(n, k):
        return LaurentPoly.zero()
    points = [gqf_point(alpha * j, -alpha, n) for j in range(k + 1)]
    acc = _qbinom_inverse_entry(points, k, alpha)
    for i in range(2, k + 1):
        acc = lp_div_exact(acc, qint(i, alpha))
    if alpha > 1:
        a = qint(alpha)
        for _ in range(k):
            acc = lp_div_exact(acc, a)
    return acc


def _qlah_gr_explicit(n: int, k: int) -> LaurentPoly:
    """``qlah_gr``'s explicit route (its docstring)."""
    # the product needs 1 <= k <= n; column 0 is 1 at n = 0 and 0 below it,
    # and off the triangle the route is 0
    if _off_triangle(n, k) or k == 0:
        return LaurentPoly.one() if n == k == 0 else LaurentPoly.zero()
    return qbinom(n, k) * qfalling(n - 1, n - k) * monomial(k * (k - 1))


def _qdowling_qi(alpha: int, n: int) -> LaurentPoly:
    """``qdowling``'s Qi route for a checked alpha (its docstring)."""
    if _off_triangle(n):
        return LaurentPoly.zero()
    return lp_dot(
        (_row_sum(_qwl_weights, alpha, j, _ONE_POLY), qw2(-alpha, n, j)) for j in range(n + 1)
    )


@_lru_memo("inverse_weights")
@lru_cache(maxsize=None)
def _inverse_weights(alpha: int, k: int) -> tuple[LaurentPoly, ...]:
    """The weights (-1)^(k-j) q^(alpha C(k-j,2)) C(k,j)_{q^alpha} of the
    inverse Gaussian-binomial transform's entry k, for j = 0..k."""
    # j = k // 2 first: its read builds columns 0..k // 2 of row k, which the
    # reads below it hit, and C(k, j) = C(k, k - j) gives the rest
    half = [qbinom(k, j, alpha) for j in range(k // 2, -1, -1)][::-1]
    return tuple(
        monomial(alpha * math.comb(k - j, 2), (-1) ** (k - j)) * half[min(j, k - j)]
        for j in range(k + 1)
    )


def _qbinom_inverse_entry(F: Sequence, k: int, alpha: int):
    """Entry k >= 0 of the inverse Gaussian-binomial transform over q^alpha
    of F_0..F_k, Laurent polynomials or series with Laurent coefficients:
    sum_{j<=k} (-1)^(k-j) q^(alpha C(k-j,2)) C(k,j)_{q^alpha} F_j, one
    ``lp_dot`` per coefficient of a series."""
    weights = _inverse_weights(alpha, k)
    if isinstance(F[0], TruncSeries):
        # zip stops at the shortest series, so the sum has the smallest order
        columns = zip(*(f.coeffs for f in F[: k + 1]))
        return TruncSeries([lp_dot(zip(weights, col)) for col in columns])
    return lp_dot(zip(F, weights))


def _qbinom_transform_entry(f: Sequence[LaurentPoly], k: int, alpha: int) -> LaurentPoly:
    """Entry k of the forward Gaussian-binomial transform over q^alpha of
    f_0..f_k: sum_{j<=k} C(k,j)_{q^alpha} f_j."""
    return lp_dot((qbinom(k, j, alpha), f[j]) for j in range(k + 1))


def qwl_egf_sum_series(alpha: int, k: int, order: int) -> TruncSeries:
    """Denominator-cleared generating-function side for the q-Whitney-Lah
    column k: sum_j (-1)^(k-j) q^(alpha C(k-j,2)) C(k,j)_{q^alpha}
    prod_{m<j} (1 - q^(alpha m) [alpha]_q t)^(-1), truncated at ``order``.

    Multiplying its t^n coefficient by [n]_{q^alpha}! yields
    [k]_{q^alpha}! [alpha]_q^k qwl(alpha, n, k).
    """
    _check_alpha(alpha)
    if k < 0:
        return TruncSeries.zero(order)
    a = qint(alpha)
    prods = [TruncSeries.one(order)]
    for m in range(k):
        prods.append(ts_mul_geometric(prods[-1], monomial(alpha * m) * a))
    return _qbinom_inverse_entry(prods, k, alpha)


@_lru_memo("qwl_egf_series")
@lru_cache(maxsize=None, typed=True)
def _qwl_egf_cached(alpha: int, k: int, order: int) -> TruncSeries:
    """[n]_{q^alpha}! times coefficient n of ``qwl_egf_sum_series``, for
    n = 0..order: the left side of ``qr1.1``. Typed, so ``True`` or ``1.0``
    meets ``_check_alpha``, not 1's entry."""
    # the series comes first: it rejects a bad alpha with InvalidAlpha
    series = qwl_egf_sum_series(alpha, k, order)
    return TruncSeries([c * qfact(n, alpha) for n, c in enumerate(series.coeffs)], order)


def qwl_egf_check(
    alpha: int, k: int, n: int, order: int = 8
) -> tuple[LaurentPoly, LaurentPoly]:
    """Both sides of the q-Whitney-Lah generating-function identity
    (``qr1.1``) at (alpha, k, n): [n]_{q^alpha}! times the t^n coefficient
    of ``qwl_egf_sum_series``, truncated at max(order, n), and
    [k]_{q^alpha}! [alpha]_q^k ``qwl(alpha, n, k)`` from the triangle engine."""
    _check_alpha(alpha)
    # n or k below 0 is off the triangle; a k past n is left to the series,
    # whose zero coefficients below t^k are part of what the check compares;
    # `|`, not `or`, so that both n and k meet the int test
    if _off_triangle(n) | _off_triangle(k):
        return LaurentPoly.zero(), LaurentPoly.zero()
    lhs = _qwl_egf_cached(alpha, k, max(order, n)).coeff(n)
    return lhs, qfact(k, alpha) * qint(alpha) ** k * qwl(alpha, n, k)
