"""The ring-agnostic core of the package: its errors, its memo table,
truncated power series and its one triangle engine, with the classical
triangles built on that engine: unsigned Stirling (both kinds), Lah, and
Bell numbers.

* :class:`DomainError` -- an input outside the domain of the function given
  it, the base of every exception class of the package, and
  :class:`NonExactDivision`, an exact quotient that left a remainder.
  :class:`InvalidAlpha` is the error of every family that takes a
  translation parameter, which ``whitney`` and ``qwhitney`` share without
  importing each other.
* ``_MEMOS`` -- every memo of the package by its name in ``Report.caches``,
  entered where the memo is defined (:func:`_lru_memo` enters an
  ``lru_cache``); :func:`clear_caches` empties them all.
* :class:`TruncSeries` -- a power series in a formal variable t, truncated
  at a fixed order, whose coefficients are integers or Laurent
  polynomials. The package builds every series with
  :func:`ts_mul_geometric`, which multiplies a series by ``1/(1 - c t)``
  in O(N) products by ``c``, with no convolution, and reads it through
  ``coeffs`` and ``coeff``. Its ``*`` is the convolution, kept as the
  reference the tests check that route against.
* The triangle engine: every recurrence triangle, classical, translated or
  q, the Gaussian binomials included, is a weights function handed to it
  that gives the weights of a range of columns of one row; the comment
  block above ``_ROWS`` states how it builds, stores and resumes rows.
  Every family reads its values through ``_cell`` and its row sums
  through ``_row_sum``. Both, and every other route of a family, read the
  package's one domain rule, ``_off_triangle``: n and k are ints, and off
  the triangle every value is the zero of its ring.

The classical triangles are the alpha = 1 / q = 1 reference layer. The
Stirling triangles are built by their additive recurrences; the generating
relations that define them are checked separately by the identity suite,
keeping construction and validation apart.

Nothing here imports the Laurent kernel ``arith`` at load: the engine
computes in the ring of the ``one`` it is given, and a series takes the
ring of its coefficients from the coefficients themselves, so the integer
families and the ``r3`` series run without loading it. The module also
provides the rising/falling/generalized factorial polynomials in a formal
variable t (as Laurent polynomials with integer coefficients), used to
verify horizontal generating-function identities by dense expansion; only
the registry reads them, and they import the Laurent kernel (``arith`` and
``dense``) when called.

A series is immutable after construction, so it may be shared freely
between threads.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    from .arith import LaurentPoly


class DomainError(ValueError):
    """An input outside the domain of the function given it: the base of
    every exception class of the package, beside its builtin base."""


class NonExactDivision(DomainError, ArithmeticError):
    """An exact division, of integers or Laurent polynomials, left a
    nonzero remainder."""


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool``."""
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


# Every memo of the package by its name in ``Report.caches``: a function that
# counts its entries and one that empties it, entered where the memo is defined.
_MEMOS: dict[str, tuple[Callable[[], object], Callable[[], None]]] = {}


def _lru_memo(name: str) -> Callable:
    """Decorator: enter the ``lru_cache`` below it as ``name``, by methods
    bound here: a tracer may rebind its name to a wrapper without them."""

    def enter(cached):
        info = cached.cache_info
        _MEMOS[name] = (lambda: info().currsize), cached.cache_clear
        return cached

    return enter


def clear_caches() -> None:
    """Empty every memo of the package that ``Report.caches`` counts. A
    module not imported yet has entered no memo, and holds none."""
    for _, clear in list(_MEMOS.values()):
        clear()


class TruncSeries:
    """Power series truncated at a fixed order N (exact modulo t^(N+1)).

    Coefficients are ints or LaurentPoly values, and so are the scalar
    operands of ``*``. Missing coefficients are the zero of the ring (the
    zero polynomial when any coefficient is a LaurentPoly, else 0). The
    product of series of different orders truncates to the smaller order,
    never claiming more precision than both operands carry.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, coeffs: Iterable = (), order: int | None = None):
        cs = list(coeffs)
        if order is None:
            if not cs:
                raise DomainError("need coefficients or an explicit order")
            order = len(cs) - 1
        if not _is_int(order) or order < 0:
            raise DomainError("order must be a non-negative integer")
        cs = cs[: order + 1]
        if len(cs) <= order:
            # c - c of a polynomial coefficient is the zero polynomial
            zero = next((c - c for c in cs if not _is_int(c)), 0)
            cs += [zero] * (order + 1 - len(cs))
        self._order = order
        self._coeffs = tuple(cs)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls([1], order)

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls([0], order)

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coeff(self, n: int):
        if not 0 <= n <= self._order:
            raise IndexError(f"coefficient {n} outside truncation order {self._order}")
        return self._coeffs[n]

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            n = min(self._order, other._order)
            a, b = self._coeffs, other._coeffs
            out = [sum(map(mul, a[: m + 1], b[m::-1])) for m in range(n + 1)]
            return TruncSeries(out, n)
        if not _is_int(other):
            # a polynomial scalar was made by the kernel, which is loaded
            from .arith import LaurentPoly

            if not isinstance(other, LaurentPoly):
                return NotImplemented
        return TruncSeries([c * other for c in self._coeffs], self._order)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._order == other._order and all(
            a == b for a, b in zip(self._coeffs, other._coeffs)
        )

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self._coeffs)
        return f"TruncSeries([{body}], order={self._order})"


def ts_mul_geometric(s: TruncSeries, c) -> TruncSeries:
    """``s * 1/(1 - c t)`` modulo t^(N+1), for an ``int`` or
    :class:`LaurentPoly` ``c``: ``p[n] = s[n] + c p[n-1]`` with
    ``p[-1] = 0``, one product by ``c`` per coefficient and no convolution.
    Every coefficient lies in the ring of ``c`` and ``s``."""
    # p[-1] is c * 0, the zero of c's ring
    steps = accumulate(s.coeffs, lambda p, x: x + c * p, initial=c * 0)
    return TruncSeries(list(steps)[1:], s.order)


class InvalidAlpha(DomainError):
    """The translation parameter must be a positive integer."""


def _check_alpha(alpha: int) -> None:
    if not (type(alpha) is int or _is_int(alpha)) or alpha < 1:
        raise InvalidAlpha(f"alpha must be a positive integer, got {alpha!r}")


def _check_route(routes: dict[str, tuple[str, ...]], family: str, route: str) -> None:
    """Reject a route not among ``family``'s in ``routes``, its module's ROUTES."""
    if route not in routes[family]:
        names = ", ".join(routes[family])
        raise DomainError(f"unknown route {route!r} of {family}; its routes are {names}")


def _off_triangle(n: int, k: int = 0) -> bool:
    """Whether (n, k) is off the triangle 0 <= k <= n, or n is off n >= 0
    for a sequence (k = 0): there every family, by every route, is the
    zero of its ring. The package's one domain rule; it also requires n
    and k to be ints, so a ``bool``, ``float`` or ``str`` is a
    ``DomainError`` whatever a memo holds."""
    if not (type(n) is type(k) is int or _is_int(n) and _is_int(k)):
        value = k if _is_int(n) else n
        raise DomainError(f"n and k must be integers, got {value!r}")
    return k < 0 or k > n


# -- the triangle engine ------------------------------------------------------
#
# Every recurrence triangle of the package, the Gaussian binomials' q-Pascal
# rule in ``qcalc`` included, is one case of the paper's two-sequence
# recurrence, with a weight on the left term as well:
#
#     u(n, k) = l_k u(n-1, k-1) + r_k u(n-1, k),    u(0, 0) = 1.
#
# A family is a weights function (alpha, n, lo, hi) -> (l_lo..l_hi,
# r_lo..r_hi) for columns lo..hi of row n. Column k of row n needs only
# columns 0..k of row n-1, so a request for column k builds each row below
# it at width min(i, k) + 1. A stored row is an exact prefix of its row,
# columns 0..len(row)-1, and answers any request for a column inside it.
# Only the rows that callers ask for are stored, per (weights, alpha), so a
# deep request holds one row rather than the whole triangle.
#
# The miss policy: a request that its stored prefix cannot answer resumes
# from the nearest row m below it whose stored prefix covers the band,
# columns 0..min(m, k); row 0, u(0, 0), always does. Each row after it is
# built at the band's width, so a wide row leaves narrow requests above it
# narrow. A row asked again whose row n-1 covers the band is extended to
# every column that row n-1 gives, so an ascending sweep (k = 0..n at each
# n) computes each cell once in two extensions per row. Stored rows are
# tuples and never change; a longer prefix replaces a shorter one.

_ROWS: dict[tuple[Callable, int], dict[int, tuple]] = {}


def _triangles() -> list[dict]:
    """How full the triangle engine's memo is: each triangle's stored rows
    and cells, by weights function and alpha."""
    triangles = [
        {
            "weights": weights.__name__,
            "alpha": alpha,
            "rows": len(rows),
            "cells": sum(map(len, list(rows.values()))),
        }
        # list(...): another thread may store a row while this one counts
        for (weights, alpha), rows in list(_ROWS.items())
    ]
    return sorted(triangles, key=lambda t: (t["weights"], t["alpha"]))


_MEMOS["triangles"] = _triangles, _ROWS.clear


def _row(weights: Callable, alpha: int, n: int, k: int, one=1) -> tuple:
    """A prefix of row n (n >= 0) of the triangle of ``weights`` at
    ``alpha`` that holds at least columns 0..min(k, n); ``one`` is u(0, 0)
    in the ring of the values."""
    memo = _ROWS.setdefault((weights, alpha), {})
    hi = k if k < n else n
    row = memo.get(n, ())
    if len(row) > hi:
        return row
    if n == 0:
        return (one,)
    start = n - 1
    while start and len(memo.get(start, ())) <= min(start, k):
        start -= 1
    prev = memo.get(start, (one,))
    if start == n - 1 and row:
        # asked again: every column the stored row above gives
        hi = max(hi, n if len(prev) == n else len(prev) - 1)
    for i in range(start + 1, n):
        prev = _extend(weights, alpha, i, prev, (), min(i, k))
    row = _extend(weights, alpha, n, prev, row, hi)
    memo[n] = row
    return row


def _cell(weights: Callable, alpha: int, n: int, k: int, one=1):
    """u(n, k) of the triangle of ``weights`` at ``alpha``, in the ring of
    ``one``: its zero outside 0 <= k <= n."""
    # the common case, int n and k inside the triangle, makes no call
    if not (type(n) is type(k) is int and 0 <= k <= n) and _off_triangle(n, k):
        return one - one
    row = _ROWS.get((weights, alpha), {}).get(n, ())
    return row[k] if k < len(row) else _row(weights, alpha, n, k, one)[k]


def _row_sum(weights: Callable, alpha: int, n: int, one=1):
    """The sum of row n of the triangle of ``weights`` at ``alpha``, in the
    ring of ``one``: its zero for n < 0."""
    if _off_triangle(n):
        return one - one
    return sum(_row(weights, alpha, n, n, one), one - one)


def _extend(
    weights: Callable, alpha: int, i: int, prev: tuple, row: tuple, hi: int
) -> tuple:
    """The prefix ``row`` of row i (i >= 1) extended to columns 0..hi, from
    a prefix ``prev`` of row i-1 that holds columns 0..min(hi, i-1)."""
    lo = len(row)
    left, right = weights(alpha, i, lo, hi)
    a, b = max(lo, 1), min(hi, i - 1)  # columns a..b have both terms
    both = zip(left[a - lo :], prev[a - 1 : b], right[a - lo :], prev[a : b + 1])
    return (
        *row,
        *((right[0] * prev[0],) if lo == 0 else ()),
        *[l * x + r * y for l, x, r, y in both],
        *((left[-1] * prev[i - 1],) if hi == i else ()),
    )


# The Stirling triangles are the translated Whitney triangles at alpha = 1.


def _tw1_weights(alpha: int, n: int, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """First kind: u(n,k) = u(n-1,k-1) + alpha (n-1) u(n-1,k)."""
    return [1] * (hi - lo + 1), [alpha * (n - 1)] * (hi - lo + 1)


def _tw2_weights(alpha: int, n: int, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """Second kind: u(n,k) = u(n-1,k-1) + alpha k u(n-1,k)."""
    return [1] * (hi - lo + 1), [alpha * k for k in range(lo, hi + 1)]


def stirling1u(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of an
    n-set with k cycles. Zero outside 0 <= k <= n."""
    return _cell(_tw1_weights, 1, n, k)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into
    k nonempty blocks. Zero outside 0 <= k <= n."""
    return _cell(_tw2_weights, 1, n, k)


def lah(n: int, k: int) -> int:
    """Lah number: partitions of an n-set into k nonempty ordered lists.

    Closed form (n!/k!) C(n-1, k-1) for 1 <= k <= n, with L(0,0) = 1.
    """
    if _off_triangle(n, k) or k == 0:
        return int(n == k == 0)
    return math.perm(n, n - k) * math.comb(n - 1, k - 1)


def bell(n: int) -> int:
    """Bell number: total number of partitions of an n-set."""
    return _row_sum(_tw2_weights, 1, n)


def binomial(r: int, k: int) -> int:
    """Binomial coefficient with arbitrary (possibly negative) integer
    upper argument: r(r-1)...(r-k+1)/k!, and 0 for k < 0."""
    if k < 0:
        return 0
    if r >= 0:
        return math.comb(r, k)
    q, rem = divmod(math.prod(range(r, r - k, -1)), math.factorial(k))
    if rem:
        raise NonExactDivision(f"falling product of {r} is not divisible by {k}!")
    return q


# -- factorial polynomials in a formal variable t ---------------------------


def rising_poly(n: int) -> LaurentPoly:
    """Rising factorial t(t+1)...(t+n-1) as a polynomial in t."""
    return genfact_poly(n, -1)


def falling_poly(n: int) -> LaurentPoly:
    """Falling factorial t(t-1)...(t-n+1) as a polynomial in t."""
    return genfact_poly(n, 1)


def genfact_poly(n: int, alpha: int) -> LaurentPoly:
    """Generalized factorial t(t-alpha)...(t-(n-1)alpha) as a polynomial
    in t. A negative increment gives the ascending product."""
    from .arith import LaurentPoly
    from .dense import lp_dot

    t = LaurentPoly.var()
    out = LaurentPoly.one()
    for i in range(n):
        # out (t - i alpha) as out t + (-i alpha) out: a shift and a scale
        out = lp_dot(((out, t), (out, -i * alpha)))
    return out
