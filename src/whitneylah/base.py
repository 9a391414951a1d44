"""The ring-agnostic base of the package: its errors, its memo table and
truncated power series.

* :class:`DomainError` -- an input outside the domain of the function given
  it, the base of every exception class of the package, and
  :class:`NonExactDivision`, an exact quotient that left a remainder.
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

Nothing here names the Laurent kernel ``arith`` at import: a series takes
the ring of its coefficients from the coefficients themselves, so the
integer families and the ``r3`` series run without loading it.

All values are immutable after construction and all operations are pure,
so instances may be shared freely between threads.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import Callable, Iterable


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
