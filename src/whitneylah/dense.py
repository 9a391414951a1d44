"""The dense side of the Laurent kernel: sums of products, the Kronecker
product and exact division in Z[q, q^-1].

``arith`` holds the ring that the triangle engine multiplies in; this
module holds the operations that only the identity registry, the
generating-function series and the second routes of the families reach,
so that a q-table, which multiplies only by monomials and q-integers,
neither loads nor compiles it (``arith``'s docstring).

:func:`lp_dot` adds products into one coefficient list and wraps the sum
once; each product takes its path through ``arith._times``. When both
factors of a product have at least ``arith._KRONECKER_MIN`` nonzero terms,
``arith._product`` reads :func:`_kronecker_product` from this module when
it calls it: one product of two big ints.
An exact quotient by a strided run ``c q^e [m]_{q^s}``, a single term
among them, is a product by ``1 - q^s`` and a running sum at stride
``m s``, both O(len); by any other divisor, ascending long division.
"""

from __future__ import annotations

import struct
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Iterable

from .arith import _ZERO_POLY, LaurentPoly, _make, _run, _times, _trimmed
from .classical import DomainError, NonExactDivision


class DivisionByZero(DomainError, ZeroDivisionError):
    """Division of a Laurent polynomial by the zero polynomial."""


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
