"""q-arithmetic primitives, all returned as Laurent polynomials: q-integers,
the generalized q-factorial and its two special cases, the q-factorial and
the q-falling factorial, and the Gaussian binomials.

The optional ``base`` argument realizes the substitution q -> q^base, so
quantities like [n] over q^a live in the same Laurent ring as everything
else and mixed-base expressions compose directly. ``qint`` takes any
integer, a negative one by the reflection rule [-m] = -q^(-m base) [m] over
q^base.

A product of q-integers in arithmetic progression is a generalized
q-factorial [t|alpha]_n = [t][t - alpha]...[t - (n-1) alpha], built in one
place, ``gqf_point``, whose memo stores each prefix it computes:
``qfact(n)`` is [1|-1]_n and ``qfalling(n, k)`` is [n|1]_k, so a sweep over
n or k costs one product per step.

The Gaussian binomials are the q-Pascal triangle of the engine in
``classical``, whose row memo is their cache; no primitive here divides.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from .arith import _ONE_POLY, LaurentPoly, _make, monomial
from .classical import _MEMOS, DomainError, _cell, _is_int, _lru_memo


class InvalidOrder(DomainError):
    """Falling-factorial order exceeds its argument."""


class NegativeArgument(DomainError):
    """A q-factorial or q-falling factorial of a negative integer was
    requested. A q-integer has none: ``qint`` takes every integer."""


def _check_args(base: int, *args: int) -> None:
    """``base`` must be a positive int and each other argument an int; a
    ``bool`` is neither. The caches are typed, so ``True`` never reads the
    entry of 1."""
    if not _is_int(base) or base < 1:
        raise DomainError(f"base must be a positive integer, got {base!r}")
    if not all(map(_is_int, args)):
        raise DomainError(f"arguments must be integers, got {args!r}")


@_lru_memo("qint")
@lru_cache(maxsize=None, typed=True)
def qint(n: int, base: int = 1) -> LaurentPoly:
    """q-integer [n] over q^base for any integer n: 1 + q^base + ... +
    q^((n-1)*base) for n > 0, and for n < 0, by the reflection
    [-m] = -q^(-m base) [m] over q^base, the run
    -(q^(n base) + q^((n+1) base) + ... + q^(-base)).

    ``qint(0)`` is the empty sum, i.e. 0.
    """
    _check_args(base, n)
    if n < 0:
        return _run(n, base, n * base, -1)
    return _run(n, base, 0, 1) if n else LaurentPoly.zero()


def _run(m: int, base: int, lo: int, sign: int) -> LaurentPoly:
    """The run of [m] over q^base, m != 0: sign (q^lo + q^(lo + base) +
    ... ), |m| terms. A run of more than a tuple can hold, |m| base
    coefficients, is a ``DomainError`` that names [m]."""
    if abs(m) * base > sys.maxsize:
        raise DomainError(
            f"the q-integer [{m}] over q^{base} is too large to store:"
            f" {abs(m) * base} coefficients"
        )
    return _make(lo, ((sign,) + (0,) * (base - 1)) * (abs(m) - 1) + (sign,))


# [t|alpha]_n over q^base by (t, alpha, base, n), for every n computed so far.
# One entry per n: two threads that fill one key at once store equal values.
_GQF_POINTS: dict[tuple[int, int, int, int], LaurentPoly] = {}
_MEMOS["gqf_points"] = (lambda: len(_GQF_POINTS)), _GQF_POINTS.clear


def gqf_point(t: int, alpha: int, n: int, base: int = 1) -> LaurentPoly:
    """The generalized q-factorial [t|alpha]_n over q^base at an integer
    point t: the product of [t - i*alpha] over q^base for i = 0..n-1, with
    negative arguments resolved by the reflection rule, and 1 for n <= 0.
    alpha may be negative. One product for each factor past the longest
    prefix stored, and each new prefix is stored."""
    i = n
    while i > 0 and (t, alpha, base, i) not in _GQF_POINTS:
        i -= 1
    out = _GQF_POINTS[t, alpha, base, i] if i else LaurentPoly.one()
    for i in range(i, n):
        out = out * qint(t - i * alpha, base)
        _GQF_POINTS[t, alpha, base, i + 1] = out
    return out


def qfact(n: int, base: int = 1) -> LaurentPoly:
    """q-factorial [n]! over q^base: the product [1][2]...[n], that is
    [1|-1]_n; [0]! = 1."""
    _check_args(base, n)
    if n < 0:
        raise NegativeArgument(f"q-factorial of negative {n}")
    return gqf_point(1, -1, n, base)


def _qbinom_weights(base: int, n: int, lo: int, hi: int) -> tuple[list, list]:
    """q-Pascal: u(n,k) = u(n-1,k-1) + q^(base k) u(n-1,k)."""
    return [_ONE_POLY] * (hi - lo + 1), [monomial(base * k) for k in range(lo, hi + 1)]


def qbinom(n: int, k: int, base: int = 1) -> LaurentPoly:
    """Gaussian binomial coefficient over q^base: zero outside 0 <= k <= n.

    Column min(k, n - k) of the engine's triangle of ``_qbinom_weights``,
    by the symmetry C(n, k) = C(n, n - k): a k near 0 or n is cheap at any n.
    """
    _check_args(base, n, k)
    return _cell(_qbinom_weights, base, n, min(k, n - k), _ONE_POLY)


def qfalling(n: int, k: int, base: int = 1) -> LaurentPoly:
    """q-falling factorial [n][n-1]...[n-k+1] over q^base, that is [n|1]_k
    (= [n]!/[n-k]!)."""
    _check_args(base, n, k)
    if n < 0:
        raise NegativeArgument(f"q-falling factorial of negative {n}")
    if k < 0 or k > n:
        raise InvalidOrder(f"order {k} outside 0 <= k <= n = {n}")
    return gqf_point(n, 1, k, base)
