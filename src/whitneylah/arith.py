"""The Laurent kernel: exact arithmetic in Z[q, q^-1].

:class:`LaurentPoly` is a dense polynomial with integer coefficients in
one formal variable with signed integer exponents: a lowest exponent plus
a tuple of Python ``int`` coefficients. Every q-analogue of the package
lies in this ring. The ring-agnostic base -- ``DomainError``, the memo
table and ``TruncSeries`` -- is ``base``, so that the integer families and
the ``r3`` series run without loading this module; ``TruncSeries`` is
also bound here, where ``perfbench/tracer.py`` reads it.

This module is the ring that the triangle engine multiplies in: the
constructors, addition, the products, ``monomial`` and the rendering. The
dense operations that only the identity registry, the series and the
families' second routes reach -- ``lp_dot``, the Kronecker product, exact
division and ``lp_eval_q1`` -- are ``dense``. The split is by what a cold
call runs: with bytecode writing off, a call compiles every module it
loads, and a q-table, which multiplies only by monomials and q-integers,
loads this module and never ``dense``.

A product of two Laurent polynomials takes one of four paths, chosen by
the shape of its factors in ``_times``: by a scalar or a monomial, a shift
and scale; by a strided run of equal coefficients (a q-integer), window
sums; when both factors have at least ``_KRONECKER_MIN`` nonzero terms,
Kronecker substitution, one product of two big ints, which ``_product``
reads from ``dense`` when it runs it; otherwise term by term.

The canonical text of a polynomial, ``LaurentPoly.to_str``, is one ``%``
format: a table per variable holds the format of each exponent,
``%d*q^e``; the formats of the nonzero terms are joined by `` + ``, every
coefficient is filled in at once, and two replacements turn ``+ -c`` into
``- c`` and drop a unit coefficient's ``1*``.

Integers themselves are Python ``int``: arbitrary precision and already
canonical, so no wrapper type is introduced. The kernel computes over Z
alone.

All values are immutable after construction and all operations are pure,
so instances may be shared freely between threads.
"""

from __future__ import annotations

from itertools import accumulate, compress, repeat
from operator import add, mul, sub
from typing import Iterable, Iterator, Mapping

from .base import _MEMOS, DomainError, TruncSeries, _is_int


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

    # Each operator takes an exact LaurentPoly operand as it is, and lifts
    # any other through _coerce: an exact int first, a bool never.
    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if type(other) is int:
            return _make(0, (other,)) if other else _ZERO_POLY
        if isinstance(other, LaurentPoly):
            return other
        if _is_int(other):
            return _make(0, (int(other),)) if other else _ZERO_POLY
        return None

    def __add__(self, other):
        o = other if type(other) is LaurentPoly else self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, add)

    __radd__ = __add__

    def __neg__(self):
        return _make(self._lo, tuple([-c for c in self._c]))

    def __sub__(self, other):
        o = other if type(other) is LaurentPoly else self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, sub)

    def __rsub__(self, other):
        o = other if type(other) is LaurentPoly else self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(o, self, sub)

    def __mul__(self, other):
        o = other if type(other) is LaurentPoly else self._coerce(other)
        if o is None:
            return NotImplemented
        lo, cs, s = _times(self, o)
        return _scaled(lo, cs, s)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """By repeated squaring: about log2(k) products, none against 1."""
        if not _is_int(k) or k < 0:
            raise DomainError("exponent must be a non-negative integer")
        result, x = None, self
        while k:
            if k & 1:
                result = x if result is None else result * x
            k >>= 1
            if k:
                x = x * x
        return _ONE_POLY if result is None else result

    def __eq__(self, other) -> bool:
        o = other if type(other) is LaurentPoly else self._coerce(other)
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
        This rendering is bit-exact for equal polynomials. ``var`` must be
        an identifier: the formats embed it, and the fixes below hold only
        if it has no space, ``+``, ``*`` or ``%``.
        """
        if not var.isidentifier():
            raise DomainError(f"variable must be an identifier, got {var!r}")
        cs = self._c
        if not cs:
            return "0"
        lo = self._lo
        base, fmts = _formats(var, lo, lo + len(cs))
        fmts = fmts[lo - base : lo - base + len(cs)]
        if 0 in cs:
            fmts, cs = compress(fmts, cs), tuple(compress(cs, cs))
        # "c*q^e" joined by " + ", then "+ -c" -> "- c" and " 1*q" -> " q";
        # each fix runs only if the text can hold its pattern. A negative
        # coefficient prints a "-": one byte scan of the text costs less
        # than comparing the coefficients, ``min(cs) < 0``
        text = " + ".join(fmts) % cs
        if "-" in text:
            text = text.replace("+ -", "- ")
        if 1 in cs or -1 in cs:
            text = text.replace(" 1*", " ")
        if text.startswith("1*"):
            return text[2:]
        if text.startswith("-1*"):
            return "-" + text[3:]
        return text

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_str()!r})"


# var -> (lowest exponent, the format of each exponent from it up), replaced
# whole: no reader sees half a growth; one lost in a race is redone
_FORMATS: dict[str, tuple[int, tuple]] = {}
# list(...): another thread may grow a table while this one counts
_MEMOS["render_formats"] = (
    lambda: sum(len(fmts) for _, fmts in list(_FORMATS.values())),
    _FORMATS.clear,
)


def _formats(var: str, lo: int, hi: int) -> tuple[int, tuple]:
    """``_FORMATS[var]``, grown on each side exponents lo..hi-1 pass."""
    base, fmts = _FORMATS.get(var, (lo, ()))
    top = base + len(fmts)
    if lo < base or top < hi:

        def made(e):
            return "%d" if e == 0 else f"%d*{var}" if e == 1 else f"%d*{var}^{e}"

        fmts = (*map(made, range(lo, base)), *fmts, *map(made, range(top, hi)))
        base = min(base, lo)
        _FORMATS[var] = base, fmts
    return base, fmts


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
    return _make(lo + start, tuple(cs[start:end] if end - start < len(cs) else cs))


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


def _scaled(lo: int, cs, s: int) -> LaurentPoly:
    """``s * q^lo * sum(cs[i] q^i)`` for ``cs`` without end zeros and a
    nonzero ``s``: a shift and scale in O(len); a unit ``s`` reuses a tuple."""
    if s == 1:
        return _make(lo, tuple(cs)) if cs else _ZERO_POLY
    if s == -1:
        return _make(lo, tuple([-c for c in cs]))
    return _make(lo, tuple([c * s for c in cs]))


# A factor c (1 + q^s + ... + q^((m-1) s)) with more than this many terms is
# multiplied by window sums rather than term by term. tools/window_switchover.py
# times both paths: from m = 3 the window wins at stride 1, the stride of most
# runs the checks multiply by; at larger strides it still loses against
# operands of a few dozen terms or fewer.
_RUN_MIN = 2

# Two factors that both have at least this many nonzero terms are multiplied
# by Kronecker substitution rather than term by term. tools/window_switchover.py
# times both paths on dense operands: Kronecker wins most of its cases from 5
# terms on, and in sum from 6 or 7, where 40-digit coefficients weigh most.
# On the dense pairs that the benchmark's workloads multiply, whose
# coefficients have a few digits, thresholds 4 and 5 cost least.
_KRONECKER_MIN = 5


# The module ``dense``, imported by the first Kronecker product, which a
# q-table never makes; ``_product`` reads the entry off it on each call, so
# a rebound ``dense._kronecker_product`` is the one that runs.
_dense = None


def _run(cs: tuple, nonzero: int, fewest: int = _RUN_MIN) -> int:
    """The stride s when the ``nonzero`` terms of ``cs`` are one coefficient
    repeated at stride s, more than ``fewest`` of them; else 0."""
    if nonzero <= fewest or (len(cs) - 1) % (nonzero - 1):
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


def _times(p: LaurentPoly, o: LaurentPoly) -> tuple:
    """The product ``p o`` as ``(lo, cs, s)``: ``s`` times the coefficients
    ``cs`` from exponent ``lo``, with no end zeros. Every product of two
    polynomials, by ``__mul__`` or in ``dense.lp_dot``, is made here: by a
    scalar or a monomial, ``cs`` is the other factor's tuple and ``s`` the
    scalar; any other pair goes through ``_product``, with ``s`` = 1."""
    a, b = p._c, o._c
    if not a or not b:
        return 0, (), 1
    lo = p._lo + o._lo
    if len(a) == 1:
        return lo, b, a[0]
    if len(b) == 1:
        return lo, a, b[0]
    # the product of two nonzero polynomials has nonzero end terms
    return lo, _product(a, b), 1


def _product(a: tuple, b: tuple) -> list:
    """Product of two dense coefficient tuples of two terms or more (``_times``
    takes the scalar and monomial products): by ``_window_product`` if a
    factor is a strided run of more than ``_RUN_MIN`` equal coefficients,
    such as ``qint(m, alpha)``; by ``dense._kronecker_product``, read when
    it runs, if both have at least ``_KRONECKER_MIN`` nonzero terms; else
    by ``_term_product``."""
    na, nb = len(a) - a.count(0), len(b) - b.count(0)
    s = _run(a, na)
    if s:
        return _window_product(a[0], na, s, b)
    s = _run(b, nb)
    if s:
        return _window_product(b[0], nb, s, a)
    if na >= _KRONECKER_MIN and nb >= _KRONECKER_MIN:
        global _dense
        if _dense is None:
            from . import dense as _dense
        return _dense._kronecker_product(a, b)
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
