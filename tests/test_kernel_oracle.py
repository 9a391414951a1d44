"""The dense integer Laurent kernel against the sparse dict-of-Fraction
kernel it replaced, kept here as a reference implementation.

Hypothesis draws polynomials with small and big integer coefficients and
negative exponents, and operands shaped like the q-families' own: runs of
equal coefficients at a stride, ``c q^s [m]_{q^b}``, and long dense ones.
Both kernels must agree on every ring operation, on exact division (exact
and non-exact cases, where a quotient the reference finds only over the
rationals is non-exact over the integers), on the canonical text form
byte for byte, and on ``==`` and ``hash``.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whitneylah.arith import (
    _RUN_MIN,
    DivisionByZero,
    LaurentPoly,
    NonExactDivision,
    _run,
    lp_div_exact,
    lp_eval_q1,
)

_ZERO = Fraction(0)


class DictLaurent:
    """Reference kernel: a sparse map exponent -> nonzero Fraction."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc = {}
        for exp, coeff in dict(terms).items():
            c = acc.get(exp, _ZERO) + Fraction(coeff)
            if c:
                acc[exp] = c
            else:
                acc.pop(exp, None)
        self._terms = acc

    @staticmethod
    def _coerce(other):
        if isinstance(other, DictLaurent):
            return other
        return DictLaurent({0: other})

    def __add__(self, other):
        out = dict(self._terms)
        for e, c in self._coerce(other)._terms.items():
            s = out.get(e, _ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return DictLaurent(out)

    __radd__ = __add__

    def __neg__(self):
        return DictLaurent({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in self._coerce(other)._terms.items():
                e = e1 + e2
                s = out.get(e, _ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return DictLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = DictLaurent({0: 1})
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        return self._terms == self._coerce(other)._terms

    def __hash__(self):
        if not self._terms or set(self._terms) == {0}:
            return hash(self._terms.get(0, _ZERO))
        return hash(tuple(sorted(self._terms.items())))

    def to_str(self, var="q"):
        if not self._terms:
            return "0"
        parts = []
        for e, c in sorted(self._terms.items()):
            if e == 0:
                body = str(c)
            else:
                qpart = var if e == 1 else f"{var}^{e}"
                if c == 1:
                    body = qpart
                elif c == -1:
                    body = "-" + qpart
                else:
                    body = f"{c}*{qpart}"
            parts.append(body)
        out = parts[0]
        for body in parts[1:]:
            if body.startswith("-"):
                out += " - " + body[1:]
            else:
                out += " + " + body
        return out


def dict_div_exact(a, b):
    """Ascending long division, as the dict kernel did it."""
    if not b._terms:
        raise DivisionByZero("division by the zero polynomial")
    if not a._terms:
        return DictLaurent()
    a_lo, b_lo = min(a._terms), min(b._terms)
    rem = {e - a_lo: c for e, c in a._terms.items()}
    div = {e - b_lo: c for e, c in b._terms.items()}
    max_qexp = max(rem) - max(div)
    quot = {}
    while rem:
        e = min(rem)
        if e > max_qexp:
            raise NonExactDivision("remainder")
        c = rem[e] / div[0]
        quot[e] = c
        for be, bc in div.items():
            s = rem.get(e + be, _ZERO) - c * bc
            if s:
                rem[e + be] = s
            else:
                rem.pop(e + be, None)
    return DictLaurent({e + a_lo - b_lo: c for e, c in quot.items()})


def agree(dense: LaurentPoly, ref: DictLaurent) -> None:
    """Same terms, same text, same hash, and every coefficient an int."""
    terms = list(dense.items())
    assert terms == sorted(ref._terms.items())
    assert all(type(c) is int for _, c in terms)
    assert all(c for _, c in terms)
    assert dense.to_str() == ref.to_str()
    assert dense.to_str("t") == ref.to_str("t")
    assert hash(dense) == hash(ref)
    assert len(dense) == len(ref._terms)


ints = st.integers(min_value=-12, max_value=12)
big_ints = st.integers(min_value=-(10**30), max_value=10**30)
scalars = st.one_of(ints, big_ints)
exponents = st.integers(min_value=-6, max_value=6)
term_maps = st.dictionaries(exponents, scalars, max_size=6)
int_term_maps = st.dictionaries(exponents, ints, max_size=6)


@st.composite
def run_maps(draw):
    """``c q^s [m]_{q^b}``: m equal coefficients at stride b, the shape of
    the q-integer factors in the q-families' recurrences."""
    c = draw(scalars.filter(bool))
    s = draw(exponents)
    b = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=40))
    return {s + b * i: c for i in range(m)}


@st.composite
def dense_maps(draw):
    """100 to 300 consecutive big-int coefficients, nonzero at both ends."""
    s = draw(exponents)
    ends = big_ints.filter(bool)
    cs = [draw(ends), *draw(st.lists(big_ints, min_size=98, max_size=298)), draw(ends)]
    return {s + i: c for i, c in enumerate(cs)}


@st.composite
def pairs(draw, maps=term_maps):
    """A dense polynomial and its reference twin."""
    terms = draw(maps)
    return LaurentPoly(terms), DictLaurent(terms)


@given(pairs(), pairs())
def test_add_sub_mul(x, y):
    (a, ra), (b, rb) = x, y
    agree(a, ra)
    agree(a + b, ra + rb)
    agree(a - b, ra - rb)
    agree(b - a, rb - ra)
    agree(-a, -ra)
    agree(a * b, ra * rb)
    agree(a - a, DictLaurent())


@given(pairs(), scalars)
def test_scalar_operands(x, s):
    a, ra = x
    agree(a + s, ra + s)
    agree(s + a, s + ra)
    agree(a - s, ra - s)
    agree(s - a, s - ra)
    agree(a * s, ra * s)
    agree(s * a, s * ra)


@given(pairs(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60)
def test_pow(x, k):
    a, ra = x
    agree(a**k, ra**k)


@given(pairs(), pairs())
def test_eq_and_hash(x, y):
    (a, ra), (b, rb) = x, y
    assert (a == b) == (ra == rb)
    assert a == LaurentPoly(dict(a.items()))
    assert hash(a) == hash(LaurentPoly(dict(a.items())))
    if a.is_constant():
        assert a == a.coeff(0)
        assert hash(a) == hash(a.coeff(0))


@given(pairs(), pairs().filter(lambda p: not p[0].is_zero))
def test_div_exact_of_a_product(x, y):
    (a, ra), (b, rb) = x, y
    agree(lp_div_exact(a * b, b), dict_div_exact(ra * rb, rb))


@given(pairs(int_term_maps), pairs(int_term_maps).filter(lambda p: not p[0].is_zero))
def test_div_exact_any_operands(x, y):
    """Arbitrary integer operands: mostly non-exact, sometimes a quotient
    that is exact only over the rationals, which is non-exact here."""
    (a, ra), (b, rb) = x, y
    try:
        expected = dict_div_exact(ra, rb)
    except NonExactDivision:
        expected = None
    if expected is None or any(c.denominator != 1 for c in expected._terms.values()):
        with pytest.raises(NonExactDivision):
            lp_div_exact(a, b)
    else:
        agree(lp_div_exact(a, b), expected)


@given(pairs(int_term_maps))
def test_div_by_zero(x):
    a, _ = x
    with pytest.raises(DivisionByZero):
        lp_div_exact(a, LaurentPoly.zero())


def test_div_with_fraction_quotient_raises():
    """The reference finds the quotient 3/2, which is not in Z[q, q^-1]."""
    expected = dict_div_exact(DictLaurent({0: 3, 1: 3}), DictLaurent({0: 2, 1: 2}))
    assert expected._terms == {0: Fraction(3, 2)}
    q = LaurentPoly.var()
    with pytest.raises(NonExactDivision):
        lp_div_exact(3 + 3 * q, 2 + 2 * q)


@given(pairs())
def test_eval_q1_returns_int(x):
    a, ra = x
    value = lp_eval_q1(a)
    assert type(value) is int
    assert value == sum(ra._terms.values(), _ZERO)


def _agree_on_product_and_quotients(x, y):
    """``a * b`` as the reference multiplies it, and both exact quotients
    of it, whose reference values are the factors themselves."""
    a, b = LaurentPoly(x), LaurentPoly(y)
    ra, rb = DictLaurent(x), DictLaurent(y)
    ab, ref = a * b, ra * rb
    agree(ab, ref)
    agree(b * a, ref)
    agree(lp_div_exact(ab, a), rb)
    if not b.is_zero:
        agree(lp_div_exact(ab, b), ra)


@given(run_maps(), st.one_of(term_maps, run_maps(), dense_maps()))
@example({3 * i: 1 for i in range(7)}, {-2: 5, 0: -1, 4: 3, 9: 2})
@settings(max_examples=60, deadline=None)
def test_run_shaped_factors(run, other):
    """A run times anything: [m]_{q^b} with b > 1 is mostly zeros."""
    _agree_on_product_and_quotients(run, other)


@pytest.mark.parametrize("c", [1, -1, 7])
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("m", [_RUN_MIN, _RUN_MIN + 1])
@given(other=st.one_of(term_maps, run_maps(), dense_maps()))
@example(other={5: 3})
@example(other={i - 40: (-1) ** i * (7919 * i + 1) << i % 70 for i in range(120)})
@settings(max_examples=10, deadline=None)
def test_runs_at_the_window_switch_over(m, s, c, other):
    """``c q^-3 [m]_{q^s}`` on either side of the length at which a product
    switches from term by term to window sums, against drawn operands and
    a 1-term and a 120-term one."""
    run = {-3 + s * i: c for i in range(m)}
    assert _run(LaurentPoly(run)._c, m) == (s if m > _RUN_MIN else 0)
    _agree_on_product_and_quotients(run, other)


@given(dense_maps(), st.one_of(term_maps, dense_maps()))
@settings(max_examples=20, deadline=None)
def test_large_dense_operands(dense, other):
    _agree_on_product_and_quotients(dense, other)


# Coefficients the renderer treats apart: 0 (skipped), ±1 (elided on a
# variable part), ±2, and ±40-digit integers.
render_coeffs = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2]),
    st.builds(
        lambda m, sign: sign * m,
        st.integers(min_value=10**39, max_value=10**40 - 1),
        st.sampled_from([1, -1]),
    ),
)


@st.composite
def render_maps(draw):
    """Up to 7 consecutive coefficients from an exponent in -4..3, so that
    the spans straddle -1, 0, 1 and 2; the empty map is the zero polynomial."""
    lo = draw(st.integers(min_value=-4, max_value=3))
    cs = draw(st.lists(render_coeffs, max_size=7))
    return {lo + i: c for i, c in enumerate(cs)}


@given(render_maps(), st.sampled_from(["q", "t"]))
@example({}, "q")
@example({0: 1}, "q")
@example({0: -1}, "t")
@example({1: 1}, "q")
@example({1: -1}, "t")
@example({1: -2}, "q")
@example({-1: -1, 0: 0, 1: 0, 2: 1}, "q")
@settings(max_examples=300, deadline=None)
def test_to_str_against_the_term_by_term_renderer(terms, var):
    """``to_str`` renders exponents below 0, 0, 1 and from 2 up apart; the
    reference renders the dict form one term at a time."""
    assert LaurentPoly(terms).to_str(var) == DictLaurent(terms).to_str(var)

