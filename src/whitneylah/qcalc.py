"""q-arithmetic primitives, all returned as Laurent polynomials: q-integers,
q-factorials, Gaussian binomials and q-falling factorials.

The optional ``base`` argument realizes the substitution q -> q^base, so
quantities like [n] over q^a live in the same Laurent ring as everything
else and mixed-base expressions compose directly. The generalized
q-factorial [t|alpha]_n, which needs the reflection rule for negative
arguments, is ``qwhitney.gqf_point``.

The Gaussian binomials are the q-Pascal triangle of the engine in
``classical``, whose row memo is their cache; no primitive here divides.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import LaurentPoly, _is_int, monomial
from .classical import _cell


class InvalidOrder(ValueError):
    """Falling-factorial order exceeds its argument."""


class NegativeArgument(ValueError):
    """A q-integer of a negative integer was requested.

    Callers that genuinely need one must apply the reflection
    [-m]_q = -q^(-m) [m]_q themselves, keeping its sign and q-power
    conventions visible at the call site.
    """


def _check_args(base: int, *args: int) -> None:
    """``base`` must be a positive int and each other argument an int; a
    ``bool`` is neither. The caches are typed, so ``True`` never reads the
    entry of 1."""
    if not _is_int(base) or base < 1:
        raise ValueError(f"base must be a positive integer, got {base!r}")
    if not all(map(_is_int, args)):
        raise ValueError(f"arguments must be integers, got {args!r}")


@lru_cache(maxsize=None, typed=True)
def qint(n: int, base: int = 1) -> LaurentPoly:
    """q-integer [n] over q^base: 1 + q^base + ... + q^((n-1)*base).

    ``qint(0)`` is the empty sum, i.e. 0.
    """
    _check_args(base, n)
    if n < 0:
        raise NegativeArgument(f"q-integer of negative {n}")
    return LaurentPoly({i * base: 1 for i in range(n)})


@lru_cache(maxsize=None, typed=True)
def qfact(n: int, base: int = 1) -> LaurentPoly:
    """q-factorial [n]! over q^base: the product [1][2]...[n]; [0]! = 1."""
    _check_args(base, n)
    if n < 0:
        raise NegativeArgument(f"q-factorial of negative {n}")
    out = LaurentPoly.one()
    for m in range(1, n + 1):
        out = out * qint(m, base)
    return out


def _qbinom_weights(base: int, n: int, lo: int, hi: int) -> tuple[list, list]:
    """q-Pascal: u(n,k) = u(n-1,k-1) + q^(base k) u(n-1,k)."""
    ones = [LaurentPoly.one()] * (hi - lo + 1)
    return ones, [monomial(base * k) for k in range(lo, hi + 1)]


def qbinom(n: int, k: int, base: int = 1) -> LaurentPoly:
    """Gaussian binomial coefficient over q^base: zero outside 0 <= k <= n.

    Column min(k, n - k) of the engine's triangle of ``_qbinom_weights``,
    by the symmetry C(n, k) = C(n, n - k): a k near 0 or n is cheap at any n.
    """
    _check_args(base, n, k)
    return _cell(_qbinom_weights, base, n, min(k, n - k), LaurentPoly.one())


def qfalling(n: int, k: int, base: int = 1) -> LaurentPoly:
    """q-falling factorial [n][n-1]...[n-k+1] over q^base (= [n]!/[n-k]!)."""
    _check_args(base, n, k)
    if n < 0:
        raise NegativeArgument(f"q-falling factorial of negative {n}")
    if k < 0 or k > n:
        raise InvalidOrder(f"order {k} outside 0 <= k <= n = {n}")
    out = LaurentPoly.one()
    for i in range(k):
        out = out * qint(n - i, base)
    return out
