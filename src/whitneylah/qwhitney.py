"""Translated q-Whitney numbers of the first, second, and third kinds,
Garsia-Remmel q-Lah numbers, and translated q-Dowling numbers.

The first- and second-kind families are defined by horizontal generating
functions (change of basis between powers of [t] and the generalized
q-factorials [t|alpha]); the recurrences implemented here are forced by two
one-line basis manipulations:

    [t - m]_q      = q^(-m) ([t]_q - [m]_q)
    [t]_q [t|a]_k  = q^(k a) [t|a]_{k+1} + [k a]_q [t|a]_k

so that

    w1[n+1, k] = q^(-n a) ( w1[n, k-1] - [n a]_q w1[n, k] )
    w2[n+1, k] = q^((k-1) a) w2[n, k-1] + [k a]_q w2[n, k]

Negative alpha (needed by the convolution and Dowling identities) enters
through the reflection [-m]_q = -q^(-m) [m]_q of ``qcalc.qint_signed``
applied inside the recurrences. Values are Laurent polynomials; negative
exponents are normal.

The triangles are weights for the triangle engine in classical, whose
comment block states how it builds, stores and resumes rows. A band of
columns 0..k makes k + 1 q-integers per row, not n + 1. Values and row sums
are read through the engine's ``_cell`` and ``_row_sum`` with the
polynomial 1 as u(0, 0), so a value outside the triangle is the zero
polynomial.

The generalized q-factorial [t|alpha]_n at integer points is
``qcalc.gqf_point``, which stores every prefix [t|alpha]_1..n it computes,
the q-factorials' among them. The Gaussian-binomial inversion sum, on which
``qwl``'s explicit route and the generating-function side
``qwl_egf_sum_series`` rest, is written once, in ``_qbinom_inverse_entry``;
it and the forward entry ``_qbinom_transform_entry`` are the two sides of
the registry's ``qbinom_inv``. The translated q-Whitney-Lah and q-Dowling
families take positive alpha and reject any other with ``InvalidAlpha``;
the first and second kinds take any nonzero alpha. ``ROUTES`` names each
family's ``route`` values, the default first.

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

from .arith import _ONE_POLY, LaurentPoly, lp_div_exact, lp_dot, monomial
from .base import DomainError, TruncSeries, _is_int, _lru_memo, ts_mul_geometric
from .classical import InvalidAlpha, _cell, _check_alpha, _check_route, _row_sum
from .qcalc import gqf_point, qbinom, qfact, qfalling, qint, qint_signed

ROUTES = {
    "qwl": ("recurrence", "explicit"),
    "qlah_gr": ("recurrence", "explicit"),
    "qdowling": ("recurrence", "qi"),
}


class InvalidRange(DomainError):
    """Arguments outside the closed formula's domain of validity."""


def _check_alpha_nonzero(alpha: int) -> None:
    if not (type(alpha) is int or _is_int(alpha)) or alpha == 0:
        raise InvalidAlpha(f"alpha must be a nonzero integer, got {alpha!r}")


# Weights of the q-triangles for the engine in classical; the Garsia-Remmel
# q-Lah triangle is the q-Whitney-Lah triangle at alpha = 1.


def _qw1_weights(alpha: int, n: int, lo: int, hi: int) -> tuple[list, list]:
    """First kind: u(n,k) = q^(-m) (u(n-1,k-1) - [m]_q u(n-1,k)), m = (n-1) alpha;
    the right weight -q^(-m) [m]_q is [-m]_q by the reflection rule."""
    m = (n - 1) * alpha
    return [monomial(-m)] * (hi - lo + 1), [qint_signed(-m)] * (hi - lo + 1)


def _qw2_weights(alpha: int, n: int, lo: int, hi: int) -> tuple[list, list]:
    """Second kind: u(n,k) = q^((k-1) alpha) u(n-1,k-1) + [k alpha]_q u(n-1,k)."""
    return (
        [monomial((k - 1) * alpha) for k in range(lo, hi + 1)],
        [qint_signed(k * alpha) for k in range(lo, hi + 1)],
    )


def _qwl_weights(alpha: int, n: int, lo: int, hi: int) -> tuple[list, list]:
    """Whitney-Lah: u(n,k) = q^((n+k-2) alpha) u(n-1,k-1) + [(n-1+k) alpha]_q u(n-1,k)."""
    return (
        [monomial(alpha * (n - 2 + k)) for k in range(lo, hi + 1)],
        [qint((n - 1 + k) * alpha) for k in range(lo, hi + 1)],
    )


def qw1(alpha: int, n: int, k: int) -> LaurentPoly:
    """Translated q-Whitney number of the first kind."""
    _check_alpha_nonzero(alpha)
    return _cell(_qw1_weights, alpha, n, k, _ONE_POLY)


def qw2(alpha: int, n: int, k: int) -> LaurentPoly:
    """Translated q-Whitney number of the second kind."""
    _check_alpha_nonzero(alpha)
    return _cell(_qw2_weights, alpha, n, k, _ONE_POLY)


def qwl(alpha: int, n: int, k: int, route: str = "recurrence") -> LaurentPoly:
    """Translated q-Whitney-Lah number by one of two routes.

    recurrence : the triangle recurrence (the default)
    explicit   : the alternating Gaussian-binomial sum, divided exactly by
                 [k]_{q^alpha}! [alpha]_q^k one q-integer at a time,
                 [2]_{q^alpha}, ..., [k]_{q^alpha}, then [alpha]_q k times,
                 each a run division in O(len); a remainder would signal a
                 transcription fault, so it is allowed to raise
    """
    _check_alpha(alpha)
    if route == "recurrence":
        return _cell(_qwl_weights, alpha, n, k, _ONE_POLY)
    _check_route(ROUTES, "qwl", route)
    if n < 0 or k < 0 or k > n:
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


def qlah_gr(n: int, k: int, route: str = "recurrence") -> LaurentPoly:
    """Garsia-Remmel q-Lah number, by recurrence (the default) or by the
    ``explicit`` product C(n,k)_q ([n-1]!/[k-1]!) q^(k(k-1)), 1 <= k <= n."""
    if route == "recurrence":
        return _cell(_qwl_weights, 1, n, k, _ONE_POLY)
    _check_route(ROUTES, "qlah_gr", route)
    if not 1 <= k <= n:
        raise InvalidRange(f"closed formula needs 1 <= k <= n, got ({n}, {k})")
    return qbinom(n, k) * qfalling(n - 1, n - k) * monomial(k * (k - 1))


def qdowling(alpha: int, n: int, route: str = "recurrence") -> LaurentPoly:
    """Translated q-Dowling number by one of two routes.

    recurrence : row sum of the second-kind triangle (the default)
    qi         : sum_j (sum_{k<=j} qwl(alpha,j,k)) qw2(-alpha,n,j), the
                 Qi-type sum, its classical sign carried by the negated alpha
    """
    _check_alpha(alpha)
    if route == "recurrence":
        return _row_sum(_qw2_weights, alpha, n, _ONE_POLY)
    _check_route(ROUTES, "qdowling", route)
    return lp_dot(
        (_row_sum(_qwl_weights, alpha, j, _ONE_POLY), qw2(-alpha, n, j)) for j in range(n + 1)
    )


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
    lhs = _qwl_egf_cached(alpha, k, max(order, n)).coeff(n)
    return lhs, qfact(k, alpha) * qint(alpha) ** k * qwl(alpha, n, k)


def _qbinom_transform_entry(f: Sequence[LaurentPoly], k: int, alpha: int) -> LaurentPoly:
    """Entry k of the forward Gaussian-binomial transform over q^alpha of
    f_0..f_k: sum_{j<=k} C(k,j)_{q^alpha} f_j."""
    return lp_dot((qbinom(k, j, alpha), f[j]) for j in range(k + 1))
