"""Exact arithmetic kernels.

Two building blocks used everywhere else in the package:

* :class:`LaurentPoly` -- a dense polynomial with integer coefficients in
  one formal variable with signed integer exponents: a lowest exponent
  plus a tuple of Python ``int`` coefficients. Every q-analogue of the
  package lies in this ring, Z[q, q^-1].
* :class:`TruncSeries` -- a power series in a second formal variable,
  truncated at a fixed order, whose coefficients live in any ring that
  supports ``+``/``-``/``*``. Its scalars are integers and Laurent
  polynomials. The one series it divides by is ``1 - c t``:
  :func:`ts_mul_geometric` multiplies a series by ``1/(1 - c t)`` in
  O(N) products by ``c``, with no convolution.

Integers themselves are Python ``int``: arbitrary precision and already
canonical, so no wrapper type is introduced. The kernel computes over Z
alone; the package's one rational series, the ``1/k!`` of
``whitney.twl_egf_series``, is formed in ``whitney.py``.

All values are immutable after construction and all operations are pure,
so instances may be shared freely between threads.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Iterable, Iterator, Mapping


class DivisionByZero(ZeroDivisionError):
    """Division of a Laurent polynomial by the zero polynomial."""


class NonExactDivision(ArithmeticError):
    """Laurent polynomial division left a nonzero remainder."""


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _scalar(value) -> int:
    """A coefficient as a plain ``int``; any other type, ``bool`` included,
    is a TypeError."""
    if type(value) is int:
        return value
    if _is_int(value):
        return int(value)
    raise TypeError(f"coefficient must be int, got {value!r}")


class LaurentPoly:
    """Dense Laurent polynomial over the integers: ``sum(c[i] * q^(lo + i))``.

    The stored form is canonical: the coefficient tuple never starts or
    ends with a zero, the zero polynomial is ``lo = 0`` with no
    coefficients, and every coefficient is an ``int``. Two polynomials
    are therefore mathematically equal iff their stored forms are
    identical; ``==`` is a structural check. Exponents may be negative.
    Storage is proportional to the span from the lowest to the highest
    exponent, not to the number of nonzero terms.
    """

    __slots__ = ("_lo", "_c")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            if not _is_int(exp):
                raise TypeError(f"exponent must be int, got {exp!r}")
            acc[exp] = acc.get(exp, 0) + _scalar(coeff)
        exps = [e for e, c in acc.items() if c]
        self._lo = min(exps, default=0)
        dense = [0] * (max(exps) - self._lo + 1 if exps else 0)
        for e in exps:
            dense[e - self._lo] = acc[e]
        self._c = tuple(dense)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO_POLY

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE_POLY

    @classmethod
    def var(cls) -> "LaurentPoly":
        """The formal variable itself (exponent 1, coefficient 1)."""
        return _make(1, (1,))

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    def items(self) -> Iterator[tuple[int, int]]:
        """Nonzero terms in ascending exponent order."""
        lo = self._lo
        return ((lo + i, c) for i, c in enumerate(self._c) if c)

    def coeff(self, exp: int) -> int:
        i = exp - self._lo
        return self._c[i] if 0 <= i < len(self._c) else 0

    def is_constant(self) -> bool:
        return not self._c or (self._lo == 0 and len(self._c) == 1)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __len__(self) -> int:
        """Number of nonzero terms."""
        return len(self._c) - self._c.count(0)

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if _is_int(other):
            return _make(0, (int(other),)) if other else _ZERO_POLY
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, add)

    __radd__ = __add__

    def __neg__(self):
        return _make(self._lo, tuple([-c for c in self._c]))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(o, self, sub)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._c, o._c
        if not a or not b:
            return _ZERO_POLY
        lo = self._lo + o._lo
        if len(a) == 1:
            return _scaled(lo, b, a[0])
        if len(b) == 1:
            return _scaled(lo, a, b[0])
        # the product of two nonzero polynomials has nonzero end terms
        return _make(lo, tuple(_product(a, b)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """By repeated squaring: about log2(k) products, none against 1."""
        if not _is_int(k) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result, x = None, self
        while k:
            if k & 1:
                result = x if result is None else result * x
            k >>= 1
            if k:
                x = x * x
        return _ONE_POLY if result is None else result

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._lo == o._lo and self._c == o._c

    def __hash__(self) -> int:
        if self.is_constant():
            # constants must hash like the scalar they equal
            return hash(self.coeff(0))
        return hash(tuple(self.items()))

    # -- rendering -------------------------------------------------------

    def to_str(self, var: str = "q") -> str:
        """Canonical text form: ascending exponents, ``C*q^E`` terms.

        Exponent 0 omits the variable, exponent 1 drops ``^1``, and unit
        coefficients on a variable part are elided (``q^2``, ``-q^2``).
        This rendering is bit-exact for equal polynomials.
        """
        cs = self._c
        if not cs:
            return "0"
        lo, end = self._lo, self._lo + len(cs)
        # the indices of exponents 0 and 2, clipped to the tuple
        i0, i2 = min(max(-lo, 0), len(cs)), min(max(2 - lo, 0), len(cs))
        parts = _power_terms(lo, cs[:i0], var)
        if lo <= 0 < end and (c := cs[-lo]):
            parts.append(f" - {-c}" if c < 0 else f" + {c}")
        if lo <= 1 < end and (c := cs[1 - lo]):
            if c < 0:
                parts.append(f" - {var}" if c == -1 else f" - {-c}*{var}")
            else:
                parts.append(f" + {var}" if c == 1 else f" + {c}*{var}")
        parts += _power_terms(lo + i2, cs[i2:], var)
        text = "".join(parts)
        # the first separator becomes a bare sign, or nothing
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_str()!r})"


def _power_terms(lo: int, cs: tuple, var: str) -> list[str]:
    """The text of the nonzero terms ``c*var^e`` of coefficients ``cs`` from
    exponent ``lo``, each with its separator; no exponent may be 0 or 1."""
    return [
        (f" - {var}^{e}" if c == -1 else f" - {-c}*{var}^{e}")
        if c < 0
        else (f" + {var}^{e}" if c == 1 else f" + {c}*{var}^{e}")
        for e, c in enumerate(cs, lo)
        if c
    ]


def _make(lo: int, cs: tuple) -> LaurentPoly:
    """Wrap an already canonical coefficient tuple (no end zeros)."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._lo = lo
    p._c = cs
    return p


_ZERO_POLY = _make(0, ())
_ONE_POLY = _make(0, (1,))


def _trimmed(lo: int, cs: list) -> LaurentPoly:
    """Canonical polynomial from a coefficient list that may carry end zeros."""
    end = len(cs)
    while end and not cs[end - 1]:
        end -= 1
    start = 0
    while start < end and not cs[start]:
        start += 1
    if not end:
        return _ZERO_POLY
    return _make(lo + start, tuple(cs[start:end]))


def _combine(p: LaurentPoly, o: LaurentPoly, op) -> LaurentPoly:
    """``op(p, o)`` coefficient-wise, for ``op`` in (add, sub)."""
    a, b = p._c, o._c
    if not b:
        return p
    if not a:
        return o if op is add else -o
    lo = min(p._lo, o._lo)
    out = [0] * (max(p._lo + len(a), o._lo + len(b)) - lo)
    i = p._lo - lo
    out[i : i + len(a)] = a
    j = o._lo - lo
    out[j : j + len(b)] = map(op, out[j : j + len(b)], b)
    return _trimmed(lo, out)


def _scaled(lo: int, cs: tuple, s: int) -> LaurentPoly:
    """``s * q^lo * sum(cs[i] q^i)`` for a nonzero scalar ``s``: a shift and
    scale in O(len); a unit scalar reuses the tuple."""
    if s == 1:
        return _make(lo, cs)
    if s == -1:
        return _make(lo, tuple([-c for c in cs]))
    return _make(lo, tuple([c * s for c in cs]))


# A factor c (1 + q^s + ... + q^((m-1) s)) with more than this many terms is
# multiplied by window sums rather than term by term. tools/window_switchover.py
# times both paths: from m = 3 the window wins at stride 1, the stride of most
# runs the checks multiply by; at larger strides it still loses against
# operands of a few dozen terms or fewer.
_RUN_MIN = 2


def _run(cs: tuple, nonzero: int) -> int:
    """The stride s when the ``nonzero`` terms of ``cs`` are one coefficient
    repeated at stride s, more than ``_RUN_MIN`` of them; else 0."""
    if nonzero <= _RUN_MIN or (len(cs) - 1) % (nonzero - 1):
        return 0
    s = (len(cs) - 1) // (nonzero - 1)
    return s if cs[::s].count(cs[0]) == nonzero else 0


def _window_product(c: int, m: int, s: int, b: tuple) -> list:
    """``c (1 + q^s + ... + q^((m-1) s))`` times ``b`` in O(len(b) + m s):
    in each residue class mod s, an output coefficient is c times the sum of
    a window of m consecutive coefficients of ``b``, read from prefix sums."""
    out = [0] * (len(b) + (m - 1) * s)
    pad = [0] * (m - 1)
    for r in range(s):
        sums = list(accumulate(b[r::s], initial=0))
        window = map(sub, sums[1:] + [sums[-1]] * (m - 1), pad + sums[:-1])
        out[r::s] = window if c == 1 else map(mul, repeat(c), window)
    return out


def _product(a: tuple, b: tuple) -> list:
    """Product of two dense coefficient tuples.

    A factor that is a strided run of more than ``_RUN_MIN`` equal
    coefficients, such as ``qint(m, alpha)`` for m > _RUN_MIN, goes through
    ``_window_product``; ``tools/window_switchover.py`` measures where that
    starts to win. Any other pair goes through ``_term_product``.
    """
    na, nb = len(a) - a.count(0), len(b) - b.count(0)
    s = _run(a, na)
    if s:
        return _window_product(a[0], na, s, b)
    s = _run(b, nb)
    if s:
        return _window_product(b[0], nb, s, a)
    if na * len(b) > nb * len(a):
        a, b = b, a
    return _term_product(a, b)


def _term_product(a: tuple, b: tuple) -> list:
    """``a`` times ``b`` term by term: the loop runs over the nonzero
    coefficients of ``a`` and adds a scaled copy of ``b`` for each, so a
    sparse ``a`` costs one pass over ``b`` per nonzero term."""
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        j = i + nb
        if x == 1:
            out[i:j] = map(add, out[i:j], b)
        elif x == -1:
            out[i:j] = map(sub, out[i:j], b)
        else:
            out[i:j] = map(add, out[i:j], map(mul, repeat(x), b))
    return out


def monomial(exp: int, coeff: int = 1) -> LaurentPoly:
    """The single-term polynomial ``coeff * q^exp``."""
    if not _is_int(exp):
        raise TypeError(f"exponent must be int, got {exp!r}")
    c = _scalar(coeff)
    return _make(exp, (c,)) if c else _ZERO_POLY


def lp_div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient ``a / b`` in the Laurent ring Z[q, q^-1].

    Performs ascending-exponent long division after shifting both operands
    so the divisor's lowest exponent is zero. A quotient coefficient that
    the divisor's lowest coefficient does not divide, or a nonzero
    remainder, raises :class:`NonExactDivision`; nothing is ever truncated
    silently.
    """
    if b.is_zero:
        raise DivisionByZero("division by the zero polynomial")
    if a.is_zero:
        return _ZERO_POLY
    rem = list(a._c)
    div = b._c
    nd = len(div)
    lead = div[0]
    # exact quotients are bounded in degree by deg(a) - deg(b)
    nq = max(len(rem) - nd + 1, 0)
    quot = [0] * nq
    for i in range(nq):
        c = rem[i]
        if not c:
            continue
        qc, r = divmod(c, lead)
        if r:
            break
        quot[i] = qc
        j = i + nd
        rem[i:j] = map(sub, rem[i:j], map(mul, repeat(qc), div))
    else:
        if not any(rem[nq:]):
            return _trimmed(a._lo - b._lo, quot)
    raise NonExactDivision(f"{a.to_str()!s} is not divisible by {b.to_str()!s}")


def lp_eval_q1(a: LaurentPoly) -> int:
    """Value at the point q = 1, i.e. the sum of all coefficients.

    Negative exponents contribute like non-negative ones since 1^e = 1.
    This is a ring homomorphism onto the integers.
    """
    return sum(a._c)


class TruncSeries:
    """Power series truncated at a fixed order N (exact modulo t^(N+1)).

    Coefficients need only ring arithmetic: ints, LaurentPoly values, or
    the rationals that ``twl_egf_series`` stores. Scalar operands are ints
    and LaurentPoly values. Missing coefficients are the zero of the ring
    (the zero polynomial when any coefficient is a LaurentPoly, else 0).
    Binary operations between series of different orders truncate to the
    smaller order, never claiming more precision than both operands carry.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, coeffs: Iterable = (), order: int | None = None):
        cs = list(coeffs)
        if order is None:
            if not cs:
                raise ValueError("need coefficients or an explicit order")
            order = len(cs) - 1
        if not _is_int(order) or order < 0:
            raise ValueError("order must be a non-negative integer")
        cs = cs[: order + 1]
        if len(cs) <= order:
            zero = _ZERO_POLY if any(isinstance(c, LaurentPoly) for c in cs) else 0
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

    @staticmethod
    def _is_scalar(other) -> bool:
        return _is_int(other) or isinstance(other, LaurentPoly)

    def __add__(self, other):
        if isinstance(other, TruncSeries):
            n = min(self._order, other._order)
            return TruncSeries(
                [self._coeffs[i] + other._coeffs[i] for i in range(n + 1)], n
            )
        if self._is_scalar(other):
            cs = list(self._coeffs)
            cs[0] = cs[0] + other
            return TruncSeries(cs, self._order)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            n = min(self._order, other._order)
            a, b = self._coeffs, other._coeffs
            out = [sum(map(mul, a[: m + 1], b[m::-1])) for m in range(n + 1)]
            return TruncSeries(out, n)
        if self._is_scalar(other):
            return TruncSeries([c * other for c in self._coeffs], self._order)
        return NotImplemented

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

