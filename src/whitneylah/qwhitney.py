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

The translated q-Whitney-Lah and q-Dowling families take positive alpha
and reject any other with ``InvalidAlpha``; the first and second kinds
take any nonzero alpha. ``ROUTES`` names each family's ``route`` values,
the default first.

This module holds what a q-table runs: the weights and the five family
functions, whose default route is the engine's recurrence. The bodies of
the other routes, the Gaussian-binomial transform pair and the ``qr1.1``
series side are ``qroutes``, which a family function imports only when a
caller asks for another route. With bytecode writing off, a cold call
compiles every module it loads, so a q-table compiles neither those
bodies nor the dense kernel ``dense`` that they use.
"""

from __future__ import annotations

from .arith import _ONE_POLY, LaurentPoly, monomial
from .base import DomainError, _is_int
from .classical import InvalidAlpha, _cell, _check_alpha, _check_route, _row_sum
from .qcalc import qint, qint_signed

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
    from .qroutes import _qwl_explicit

    return _qwl_explicit(alpha, n, k)


def qlah_gr(n: int, k: int, route: str = "recurrence") -> LaurentPoly:
    """Garsia-Remmel q-Lah number, by recurrence (the default) or by the
    ``explicit`` product C(n,k)_q ([n-1]!/[k-1]!) q^(k(k-1)), 1 <= k <= n."""
    if route == "recurrence":
        return _cell(_qwl_weights, 1, n, k, _ONE_POLY)
    _check_route(ROUTES, "qlah_gr", route)
    from .qroutes import _qlah_gr_explicit

    return _qlah_gr_explicit(n, k)


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
    from .qroutes import _qdowling_qi

    return _qdowling_qi(alpha, n)
