"""Exact arithmetic kernels.

Two building blocks used everywhere else in the package:

* :class:`LaurentPoly` -- a dense polynomial with integer coefficients in
  one formal variable with signed integer exponents: a lowest exponent
  plus a tuple of Python ``int`` coefficients. Every q-analogue of the
  package lies in this ring, Z[q, q^-1].
* :class:`TruncSeries` -- a power series in a second formal variable,
  truncated at a fixed order, whose coefficients are integers or Laurent
  polynomials. The package builds every series with
  :func:`ts_mul_geometric`, which multiplies a series by ``1/(1 - c t)``
  in O(N) products by ``c``, with no convolution, and reads it through
  ``coeffs`` and ``coeff``. Its ``*`` is the convolution, kept as the
  reference the tests check that route against.

A product of two Laurent polynomials takes one of four paths, chosen by
the shape of its factors in ``_times``: by a scalar or a monomial, a shift
and scale; by a strided run of equal coefficients (a q-integer), window
sums; when both factors have at least ``_KRONECKER_MIN`` nonzero terms,
Kronecker substitution, one product of two big ints; otherwise term by
term. A fifth entry, :func:`lp_dot`, adds products into one coefficient
list and wraps the sum once.
An exact quotient by a strided run ``c q^e [m]_{q^s}``, a single term
among them, is a product by ``1 - q^s`` and a running sum at stride
``m s``, both O(len); by any other divisor, ascending long division.

The canonical text of a polynomial, ``LaurentPoly.to_str``, is one ``%``
format: a table per variable holds the format of each exponent,
``%d*q^e``; the formats of the nonzero terms are joined by `` + ``, every
coefficient is filled in at once, and two replacements turn ``+ -c`` into
``- c`` and drop a unit coefficient's ``1*``.

Integers themselves are Python ``int``: arbitrary precision and already
canonical, so no wrapper type is introduced. The kernel computes over Z
alone, as does the ``r3`` check.

All values are immutable after construction and all operations are pure,
so instances may be shared freely between threads.
"""

from __future__ import annotations

import struct
from itertools import accumulate, compress, repeat
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, Mapping


class DomainError(ValueError):
    """An input outside the domain of the function given it: the base of
    every exception class of the package, beside its builtin base."""


class DivisionByZero(DomainError, ZeroDivisionError):
    """Division of a Laurent polynomial by the zero polynomial."""


class NonExactDivision(DomainError, ArithmeticError):
    """Laurent polynomial division left a nonzero remainder."""


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool``."""
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


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
        # "c*q^e" joined by " + ", then "+ -c" -> "- c" and " 1*q" -> " q"
        text = (" + ".join(fmts) % cs).replace("+ -", "- ").replace(" 1*", " ")
        if text.startswith("1*"):
            return text[2:]
        if text.startswith("-1*"):
            return "-" + text[3:]
        return text

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_str()!r})"


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
    polynomials, by ``__mul__`` or in ``lp_dot``, is made here: by a scalar
    or a monomial, ``cs`` is the other factor's tuple and ``s`` the scalar;
    any other pair goes through ``_product``, with ``s`` = 1."""
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


def lp_dot(pairs: Iterable[tuple]) -> LaurentPoly:
    """``sum(a * b for a, b in pairs)`` for factors that are LaurentPoly
    values or ints, the zero polynomial for no pairs. Each product of two
    polynomials takes its path through ``_times``, a product by an int is a
    scale, and every product is added into one coefficient list, which is
    trimmed and wrapped once. That list is the first product's own when it
    is a fresh one, as ``_product`` returns. A ``bool`` or any other factor
    is a TypeError."""
    out = None
    for a, b in pairs:
        if type(a) is LaurentPoly and type(b) is LaurentPoly:
            start, cs, s = _times(a, b)
        elif type(a) is LaurentPoly and type(b) is int:
            start, cs, s = a._lo, a._c, b
        elif type(a) is int and type(b) is LaurentPoly:
            start, cs, s = b._lo, b._c, a
        else:
            x, y = LaurentPoly._coerce(a), LaurentPoly._coerce(b)
            if x is None or y is None:
                raise TypeError(f"cannot multiply {a!r} by {b!r} in Z[q, q^-1]")
            start, cs, s = _times(x, y)
        if not cs or not s:
            continue
        if out is None:
            if type(cs) is list:  # a fresh product, with s = 1
                lo, out = start, cs
                continue
            lo, out = start, [0] * len(cs)
        i = start - lo
        if i < 0:
            out[:0] = repeat(0, -i)
            lo, i = start, 0
        j = i + len(cs)
        if j > len(out):
            out += repeat(0, j - len(out))
        if s == 1:
            out[i:j] = map(add, out[i:j], cs)
        elif s == -1:
            out[i:j] = map(sub, out[i:j], cs)
        else:
            out[i:j] = map(add, out[i:j], map(mul, repeat(s), cs))
    return _ZERO_POLY if out is None else _trimmed(lo, out)


def _product(a: tuple, b: tuple) -> list:
    """Product of two dense coefficient tuples of two terms or more (``_times``
    takes the scalar and monomial products): by ``_window_product`` if a
    factor is a strided run of more than ``_RUN_MIN`` equal coefficients,
    such as ``qint(m, alpha)``; by ``_kronecker_product`` if both have at
    least ``_KRONECKER_MIN`` nonzero terms; else by ``_term_product``."""
    na, nb = len(a) - a.count(0), len(b) - b.count(0)
    s = _run(a, na)
    if s:
        return _window_product(a[0], na, s, b)
    s = _run(b, nb)
    if s:
        return _window_product(b[0], nb, s, a)
    if na >= _KRONECKER_MIN and nb >= _KRONECKER_MIN:
        return _kronecker_product(a, b)
    if na * len(b) > nb * len(a):
        a, b = b, a
    return _term_product(a, b)


def _kronecker_product(a: tuple, b: tuple) -> list:
    """``a`` times ``b`` by Kronecker substitution (D. Harvey, J. Symbolic
    Comput. 2009): each factor's coefficients fill fixed-width byte slots of
    one ``int``, the two ints are multiplied once, and the product's slots
    are its coefficients. A slot holds ``max|a| max|b| min(len)``, a bound
    on every output coefficient, so none carries; one of up to 8 bytes is
    widened to 1, 2, 4 or 8, which ``struct`` packs in one call. With a
    negative coefficient, the slot gains a sign bit and each coefficient is
    offset by half the slot, h, so every slot is non-negative; the offsets
    are taken out of the packed ints."""
    n = len(a) + len(b) - 1
    signed = min(a) < 0 or min(b) < 0
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    w = (bound.bit_length() + signed + 7) // 8
    if w <= 8:  # a slot of 1, 2, 4 or 8 bytes, which struct packs in C
        w = 1 << (w - 1).bit_length()
        fmt = "<%d" + "BHIQ"[w.bit_length() - 1]

    def pack(cs, m: int) -> int:
        if w <= 8:
            return int.from_bytes(struct.pack(fmt % m, *cs), "little")
        data = b"".join(map(int.to_bytes, cs, repeat(w), repeat("little")))
        return int.from_bytes(data, "little")

    if signed:
        h = 1 << (8 * w - 1)
        slot = bytes(w - 1) + b"\x80"  # h, as one slot's bytes
        x = pack(map(add, a, repeat(h)), len(a)) - int.from_bytes(slot * len(a), "little")
        y = pack(map(add, b, repeat(h)), len(b)) - int.from_bytes(slot * len(b), "little")
        c = x * y + int.from_bytes(slot * n, "little")
    else:
        c = pack(a, len(a)) * pack(b, len(b))
    data = c.to_bytes(n * w, "little")
    if w <= 8:
        out = struct.unpack(fmt % n, data)
    else:
        it = iter(data)
        out = map(int.from_bytes, map(bytes, zip(*[it] * w)), repeat("little"))
    return list(map(sub, out, repeat(h))) if signed else list(out)


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

    A strided run ``c q^e [m]_{q^s}`` divisor, a single term or a q-integer
    among them, goes through ``_run_quotient`` in O(len(a)); any other
    through ascending long division. A quotient coefficient that is not an
    integer, or a nonzero remainder, raises :class:`NonExactDivision` on
    either path; nothing is ever truncated silently.
    """
    if b.is_zero:
        raise DivisionByZero("division by the zero polynomial")
    if a.is_zero:
        return _ZERO_POLY
    div = b._c
    nd = len(div) - div.count(0)
    s = _run(div, nd, 1) if nd > 1 else 1
    quot = _run_quotient(a._c, div[0], nd, s) if s else _long_quotient(a._c, div)
    if quot is None:
        raise NonExactDivision(f"{a.to_str()!s} is not divisible by {b.to_str()!s}")
    # an exact quotient's end coefficients are those of a over those of b
    return _make(a._lo - b._lo, tuple(quot))


def _run_quotient(a: tuple, c: int, m: int, s: int) -> list | None:
    """``a`` over ``c (1 + q^s + ... + q^((m-1) s))`` in O(len(a)), or None
    if the quotient is not exact. Times ``1 - q^s`` the divisor is ``c (1 -
    q^(m s))``, so the quotient of b = a (1 - q^s) by ``1 - q^(m s)`` is
    p[i] = b[i] + p[i - m s], a running sum in each residue class mod m s.
    It is exact iff p vanishes past len(a) - (m - 1) s, the length of an
    exact quotient (the recurrence then carries those zeros to every later
    coefficient), and c divides what is left."""
    nq = len(a) - (m - 1) * s
    if nq < 1:
        return None
    pad = (0,) * s
    p = list(map(sub, a + pad, pad + a))
    w = m * s
    # a class r >= len(p) - w holds one term, its own running sum
    for r in range(min(w, len(p) - w)):
        p[r::w] = accumulate(p[r::w])
    if any(p[nq:]):
        return None
    del p[nq:]
    if c != 1:
        if any(x % c for x in p):
            return None
        p = [x // c for x in p]
    return p


def _long_quotient(a: tuple, div: tuple) -> list | None:
    """``a`` over ``div`` by ascending long division, or None if a quotient
    coefficient is not an integer or a remainder is left; an exact
    quotient has len(a) - len(div) + 1 coefficients."""
    rem = list(a)
    nd = len(div)
    lead = div[0]
    nq = len(rem) - nd + 1
    if nq < 1:
        return None
    quot = [0] * nq
    for i in range(nq):
        c = rem[i]
        if not c:
            continue
        qc, r = divmod(c, lead)
        if r:
            return None
        quot[i] = qc
        j = i + nd
        rem[i:j] = map(sub, rem[i:j], map(mul, repeat(qc), div))
    return None if any(rem[nq:]) else quot


def lp_eval_q1(a: LaurentPoly) -> int:
    """The value at q = 1, the sum of the coefficients: a ring homomorphism
    onto the integers."""
    return sum(a._c)


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

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            n = min(self._order, other._order)
            a, b = self._coeffs, other._coeffs
            out = [sum(map(mul, a[: m + 1], b[m::-1])) for m in range(n + 1)]
            return TruncSeries(out, n)
        if _is_int(other) or isinstance(other, LaurentPoly):
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

