"""The dense integer Laurent kernel against the sparse dict-of-Fraction
kernel it replaced, kept here as a reference implementation.

Hypothesis draws polynomials with small and big integer coefficients and
negative exponents, and operands shaped like the q-families' own: runs of
equal coefficients at a stride, ``c q^s [m]_{q^b}``, and long dense ones.
Both kernels must agree on every ring operation, on ``lp_dot``'s sums of
products, on exact division (exact and non-exact cases, where a quotient
the reference finds only over the rationals is non-exact over the
integers), on the canonical text form byte for byte, and on ``==`` and
``hash``.
"""

import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from whitneylah import arith
from whitneylah import dense as dense_kernel
from whitneylah.arith import _KRONECKER_MIN, _RUN_MIN, LaurentPoly, _run
from whitneylah.base import NonExactDivision
from whitneylah.dense import DivisionByZero, lp_div_exact, lp_dot, lp_eval_q1

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


K = _KRONECKER_MIN


def _factor(cs: list, lo: int = -4) -> dict:
    """The terms of ``sum(cs[i] q^(lo + i))``; negative exponents by default."""
    return {lo + i: c for i, c in enumerate(cs)}


def _units(m: int) -> list:
    """m coefficients ±1 in the pattern + + - + + -, which is no run."""
    return [-1 if i % 3 == 2 else 1 for i in range(m)]


def _byte_boundary_cases() -> dict:
    """Factors whose coefficients are exactly 2^(8j) - 1 and 2^(8j), and
    factors that put the slot bound max|a| max|b| min(len) at exactly
    2^(8j) (8 terms) and 2^(8j) - 1 (15 terms), unsigned and signed, for
    slots packed by ``struct`` (up to 8 bytes) and by ``to_bytes``. The
    middle coefficients of the latter come within a few terms of the bound,
    so a slot one bit too narrow, the sign bit left out, corrupts them."""
    cases = {}
    for j in (1, 2, 3, 4, 8, 9, 16):
        top = 1 << (8 * j)
        for c in (top - 1, top):
            cases[f"coefficient-{c}"] = ([c, 1, c, 2, c, 1, c], [c, c, 1, c, c, 2, c, 3])
            cases[f"coefficient--{c}"] = ([c, 1, -c, 2, c, 1, c], [-c, c, 1, c, -c, 2, c])
        for bound, terms in ((top, 8), (top - 1, 15)):
            big = bound // terms
            assert big * terms == bound
            # neither factor is a run: a ends in big - 1, the ones skip a place
            a, ones = [big] * (terms - 1) + [big - 1], [1, 1, 1, 0] + [1] * (terms - 3)
            cases[f"bound-{bound}"] = (a, ones)
            cases[f"bound-{bound}-signed"] = (a, [-1] + ones[1:])
    return cases


KRONECKER_CASES = {
    **{
        f"{m}-terms": (
            [(-1) ** i * (2 * i + 3) for i in range(m)],
            [(i * i + 1) * (1 - i % 2) for i in range(2 * m - 1)],
        )
        for m in (K - 1, K, K + 1)
    },
    "interior-zeros": (
        [5, 0, 0, -3, 7, 0, 2, 9, 0, 0, 1, 4, 8, 0, 6],
        [2, 0, 1, 1, 0, 0, 0, 3, 5, 0, 8, 13, 0, 21],
    ),
    "units": (_units(K + 2), [(-1) ** i for i in range(K + 5)]),
    "all-negative": ([-(i + 1) for i in range(K + 1)], [-(5**i) for i in range(K + 3)]),
    "mixed-sign": (
        [(-1) ** (i // 2) * 3**i for i in range(K + 4)],
        [7, -2, 0, 5, -11, 13, 0, -1, 4, 9, -6],
    ),
    "300-digit": ([10**299 + 37 * i for i in range(K + 2)], [10**299 - i for i in range(K)]),
    "300-digit-signed": (
        [(-1) ** i * (10**299 + 37 * i) for i in range(K + 2)],
        [10**299 - i for i in range(K)],
    ),
    **_byte_boundary_cases(),
}


@pytest.mark.parametrize("x, y", KRONECKER_CASES.values(), ids=KRONECKER_CASES)
def test_kronecker_products(x, y, kronecker_calls):
    """Each case is a product of two factors of at least ``_KRONECKER_MIN``
    nonzero terms, except ``K-1``-terms, which stops one term short and must
    not take the Kronecker path."""
    _agree_on_product_and_quotients(_factor(x), _factor(y, 3))
    nonzero = min(len(x) - x.count(0), len(y) - y.count(0))
    assert len(kronecker_calls) == (2 if nonzero >= K else 0)


kronecker_coeffs = st.one_of(
    st.just(0),
    st.sampled_from([1, -1]),
    ints,
    big_ints,
    st.integers(min_value=-(10**300), max_value=10**300),
)


@st.composite
def kronecker_maps(draw):
    """``_KRONECKER_MIN`` to 40 consecutive coefficients from an exponent in
    -6..6, nonzero at both ends: zeros, ±1, small, 30-digit and 300-digit
    integers, of either sign."""
    lo = draw(exponents)
    ends = kronecker_coeffs.filter(bool)
    cs = [draw(ends), *draw(st.lists(kronecker_coeffs, min_size=K - 2, max_size=38)), draw(ends)]
    return _factor(cs, lo)


@given(kronecker_maps(), kronecker_maps())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_kronecker_against_drawn_operands(kronecker_calls, x, y):
    """Drawn operands, which take the Kronecker path whenever both have at
    least ``_KRONECKER_MIN`` nonzero terms and neither is a run."""
    before = len(kronecker_calls)
    _agree_on_product_and_quotients(x, y)
    a, b = LaurentPoly(x)._c, LaurentPoly(y)._c
    na, nb = len(a) - a.count(0), len(b) - b.count(0)
    dense = min(na, nb) >= K and not _run(a, na) and not _run(b, nb)
    assert len(kronecker_calls) - before == (2 if dense else 0)


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


@pytest.fixture
def formats():
    """``to_str``'s format tables, empty before and after the test."""
    arith._FORMATS.clear()
    yield arith._FORMATS
    arith._FORMATS.clear()


def test_far_spans_grow_each_table_on_the_side_they_pass(formats):
    """Renders in ``q`` and ``t`` take turns, over spans from -600 to 3000;
    each table grows on the side a span passes and on no other."""
    rng = random.Random(23)
    spans = [(0, 40), (-600, 5), (2900, 3000), (-3, 3), (-40, 2999), (-601, -598)]
    for i, (lo, hi) in enumerate(spans):
        terms = {rng.randint(lo, hi): rng.randint(-9, 9) for _ in range(30)}
        terms.update({lo: rng.choice([1, -1, 7]), hi: -2})
        for var in ("q", "t") if i % 2 else ("t", "q"):
            assert LaurentPoly(terms).to_str(var) == DictLaurent(terms).to_str(var)
        lows, highs = zip(*spans[: i + 1])
        for var in ("q", "t"):
            base, fmts = formats[var]
            assert (base, base + len(fmts)) == (min(lows), max(highs) + 1)
    assert formats["q"][1][601:604] == ("%d", "%d*q", "%d*q^2")
    assert formats["t"][1][:2] == ("%d*t^-601", "%d*t^-600")


@pytest.mark.parametrize("lo", [-1, 0, 1, 2])
def test_runs_of_units_across_exponents_0_and_1(lo):
    """Every pattern of -1, 0 and 1 over four exponents from ``lo``, in
    runs that cross -1, 0, 1 and 2, and beside them 11, -11 and 21, whose
    digits end in 1."""
    for cs in itertools.product((-1, 0, 1, 11, -11, 21), repeat=4):
        terms = {lo + i: c for i, c in enumerate(cs)}
        for var in ("q", "t"):
            assert LaurentPoly(terms).to_str(var) == DictLaurent(terms).to_str(var)


def test_interior_zeros_and_300_digit_coefficients():
    rng = random.Random(300)
    big = [rng.choice([1, -1]) * rng.randrange(10**299, 10**300) for _ in range(60)]
    terms = {e: big[i] if i % 3 else 0 for i, e in enumerate(range(-20, 40))}
    terms[-20] = big[0]
    terms.update({-19: 1, 1: -1, 2: 1})
    assert LaurentPoly(terms).to_str() == DictLaurent(terms).to_str()
    assert LaurentPoly(terms).to_str("t") == DictLaurent(terms).to_str("t")


def test_a_second_render_does_not_grow_the_table(formats):
    p = LaurentPoly({-5: 3, 0: 1, 9: -1})
    first = p.to_str()
    table = formats["q"]
    assert p.to_str() == first
    assert LaurentPoly({-2: 1, 4: 2}).to_str() == "q^-2 + 2*q^4"
    assert formats["q"] is table
    assert (table[0], len(table[1])) == (-5, 15)


def test_threads_growing_one_table_render_every_polynomial_right(formats):
    """Eight threads render in turns polynomials whose spans push the table
    of ``q`` down and up; a growth one thread loses to another's is made
    again, and every text matches the reference."""
    polys = [{e: 3, e + 1: -1, -e: 1} for e in range(1, 400, 7)]
    want = [DictLaurent(t).to_str() for t in polys]
    wrong = []

    def render(k):
        for i in range(k % 3, len(polys), 3):
            if LaurentPoly(polys[i]).to_str() != want[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=render, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    base, fmts = formats["q"]
    assert all(f == {0: "%d", 1: "%d*q"}.get(e, f"%d*q^{e}") for e, f in enumerate(fmts, base))


@pytest.mark.parametrize("var", ["", "q t", "q+", "q*", "%d", "1q", "q^", "-q"])
def test_to_str_rejects_a_variable_that_is_not_an_identifier(var, formats):
    for p in (LaurentPoly({-1: 2, 1: -1}), LaurentPoly()):
        with pytest.raises(ValueError, match="identifier"):
            p.to_str(var)
    assert var not in formats


@pytest.fixture
def digit_limit():
    """Restores CPython's int->str digit limit after the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int->str digit limit in this Python")
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


def test_a_coefficient_past_the_digit_limit(digit_limit):
    """Under the default limit of 4300 digits, a 5000-digit coefficient
    raises the ValueError of ``str(int)``; with the limit lifted, as the
    CLI lifts it, it renders in full."""
    c = 10**4999 + 7
    p = LaurentPoly({0: 1, 3: -c})
    sys.set_int_max_str_digits(4300)
    with pytest.raises(ValueError) as rendered:
        p.to_str()
    with pytest.raises(ValueError) as converted:
        str(c)
    assert str(rendered.value) == str(converted.value)
    sys.set_int_max_str_digits(0)
    assert p.to_str() == f"1 - {c}*q^3"
    assert p.to_str() == DictLaurent({0: 1, 3: -c}).to_str()


# -- run division ------------------------------------------------------------


def _run_divisor(m: int, s: int, c: int = 1, e: int = 0) -> dict:
    """The terms of ``c q^e [m]_{q^s}``."""
    return {e + s * i: c for i in range(m)}


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("m", range(2, 13))
@given(
    quot=term_maps.filter(lambda t: any(t.values())),
    c=st.sampled_from([1, -1, 6, -35]),
    e=exponents,
)
@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_run_division_against_the_reference(run_quotients, m, s, quot, c, e):
    """``c q^e [m]_{q^s}`` divides its products exactly through the run
    path, negative exponents and a scalar c != ±1 included, and leaves an
    off-by-one dividend non-exact."""
    div = _run_divisor(m, s, c, e)
    b, rb = LaurentPoly(div), DictLaurent(div)
    a, ra = LaurentPoly(quot) * b, DictLaurent(quot) * rb
    before = len(run_quotients)
    agree(lp_div_exact(a, b), dict_div_exact(ra, rb))
    assert run_quotients[before:] == [(len(a._c), m, s)]
    # a dividend off by one term at each end, or by one unit of c
    for bad in (a + _just_outside(a, -1), a + _just_outside(a, 1), a + 1):
        if _reference_divides(bad, b):
            continue
        with pytest.raises(NonExactDivision):
            lp_div_exact(bad, b)


def _just_outside(a: LaurentPoly, side: int) -> LaurentPoly:
    """q^e for the exponent just below (side -1) or above (side 1) ``a``."""
    exps = [e for e, _ in a.items()]
    return LaurentPoly({(min(exps) - 1) if side < 0 else (max(exps) + 1): 1})


def _reference_divides(a: LaurentPoly, b: LaurentPoly) -> bool:
    """The reference finds an integer quotient of ``a`` by ``b``."""
    try:
        quot = dict_div_exact(DictLaurent(dict(a.items())), DictLaurent(dict(b.items())))
    except NonExactDivision:
        return False
    return all(c.denominator == 1 for c in quot._terms.values())


@given(pairs(int_term_maps), st.sampled_from([1, -1, 3, -7]), exponents)
def test_one_term_divisor(x, c, e):
    """A one-term divisor, a run of one, shifts and scales; a coefficient
    that c does not divide is non-exact."""
    a, ra = x
    b, rb = LaurentPoly({e: c}), DictLaurent({e: c})
    expected = dict_div_exact(ra, rb)
    if all(v.denominator == 1 for v in expected._terms.values()):
        agree(lp_div_exact(a, b), expected)
    else:
        with pytest.raises(NonExactDivision):
            lp_div_exact(a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        # the quotient would be 1/2 + ..., exact only over the rationals
        ({0: 1, 1: 1}, {0: 2, 1: 2}),
        # the running sums of the run path do not vanish past the quotient
        ({0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 1: 1, 2: 1}),
        # [2]_{q^2} does not divide [2]_q, nor [3]_q its square less q^4
        ({0: 1, 1: 1}, {0: 1, 2: 1}),
        ({0: 1, 1: 2, 2: 3, 3: 2}, {0: 1, 1: 1, 2: 1}),
        # shorter than the divisor
        ({-3: 5}, {0: 1, 1: 1}),
        ({0: 1, 3: 1}, {0: 1, 2: 1, 4: 1, 6: 1}),
    ],
)
def test_run_division_of_a_non_exact_dividend_raises(a, b, run_quotients):
    with pytest.raises(NonExactDivision):
        lp_div_exact(LaurentPoly(a), LaurentPoly(b))
    assert len(run_quotients) == 1


def test_q_integer_divisors_take_the_run_path_and_dense_ones_do_not(run_quotients):
    from whitneylah.qcalc import qfact, qint

    x = LaurentPoly({-2: 3, 0: -1, 1: 4, 5: 2})
    for m, s in [(2, 1), (3, 2), (12, 3), (40, 1)]:
        assert lp_div_exact(x * qint(m, s), qint(m, s)) == x
    assert run_quotients == [
        (len((x * qint(m, s))._c), m, s) for m, s in [(2, 1), (3, 2), (12, 3), (40, 1)]
    ]
    run_quotients.clear()
    # [4]! and a dense divisor are no runs
    dense = LaurentPoly({0: 1, 1: 2, 2: 1, 3: 5})
    assert lp_div_exact(x * qfact(4), qfact(4)) == x
    assert lp_div_exact(x * dense, dense) == x
    assert run_quotients == []
    # a single term is a run of one
    assert lp_div_exact(x * LaurentPoly({-3: -1}), LaurentPoly({-3: -1})) == x
    assert run_quotients == [(len(x._c), 1, 1)]


# -- lp_dot: sums of products in one buffer ----------------------------------


@st.composite
def dot_factors(draw):
    """A factor of ``lp_dot`` and its reference twin: an int, zero among
    them, or a polynomial shaped like any the kernel multiplies (sparse,
    a run, dense enough for Kronecker substitution)."""
    kind = draw(st.sampled_from(["int", "terms", "run", "kronecker"]))
    if kind == "int":
        c = draw(scalars)
        return c, c
    maps = {"terms": term_maps, "run": run_maps(), "kronecker": kronecker_maps()}[kind]
    terms = draw(maps)
    return LaurentPoly(terms), DictLaurent(terms)


def reference_dot(pairs) -> DictLaurent:
    total = DictLaurent()
    for x, y in pairs:
        total = total + (DictLaurent({0: x * y}) if isinstance(x * y, int) else x * y)
    return total


@given(st.lists(st.tuples(dot_factors(), dot_factors()), max_size=6))
@settings(max_examples=80, deadline=None)
def test_dot_against_the_reference(terms):
    pairs = [(a, b) for (a, _), (b, _) in terms]
    result = lp_dot(iter(pairs))
    assert type(result) is LaurentPoly
    agree(result, reference_dot([(ra, rb) for (_, ra), (_, rb) in terms]))
    # the operands are untouched, and a second sum is the first
    assert [(a, b) for (a, _), (b, _) in terms] == pairs
    assert lp_dot(pairs) == result


def test_dot_takes_every_product_path(monkeypatch):
    """Each path of ``_times`` and the scale by an int, counted: a product
    of two polynomials passes ``_times`` once, and so does one of two ints,
    lifted to constants; a polynomial times an int is a scale, never."""
    counts = {"times": 0, "window": 0, "kronecker": 0, "term": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        # in each kernel module that holds it: lp_dot calls dense's _times
        for module in (arith, dense_kernel):
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapper)

    counted("times", arith._times)
    counted("window", arith._window_product)
    counted("kronecker", dense_kernel._kronecker_product)
    counted("term", arith._term_product)
    dense = _factor([3, -1, 4, 1, -5, 9, 2, -6])
    run = {-2 + 2 * i: -3 for i in range(5)}  # -3 q^-2 [5]_{q^2}
    sparse = {-3: 2, 0: -1, 4: 7}
    cases = [
        (7, sparse),  # int times a polynomial
        (sparse, -2),  # a polynomial times an int
        (5, -6),  # two ints
        (0, dense),  # a zero int
        ({}, dense),  # the zero polynomial
        ({-4: -1}, dense),  # a monomial, either side
        (dense, {3: 2}),
        (run, dense),  # window sums, either side
        (sparse, run),
        (dense, _factor([2, 7, -1, 8, 2, 8], 5)),  # Kronecker substitution
        (sparse, {1: 1, 2: -1}),  # term by term
    ]
    poly = lambda x: LaurentPoly(x) if isinstance(x, dict) else x
    ref = lambda x: DictLaurent(x) if isinstance(x, dict) else x
    result = lp_dot((poly(x), poly(y)) for x, y in cases)
    agree(result, reference_dot([(ref(x), ref(y)) for x, y in cases]))
    both = sum(isinstance(x, dict) == isinstance(y, dict) for x, y in cases)
    assert counts == {"times": both, "window": 2, "kronecker": 1, "term": 1}


@given(pairs(), pairs())
def test_dot_cancels_to_zero(x, y):
    (a, _), (b, _) = x, y
    cancelling = ([(a, b), (-a, b)], [(a, b), (b, -a)], [(a, 1), (a, -1)], [(a, b), (-1, a * b)])
    for terms in cancelling:
        zero = lp_dot(terms)
        assert zero.is_zero and zero == LaurentPoly.zero()
        agree(zero, DictLaurent())


def test_dot_of_no_pairs_is_the_zero_polynomial():
    assert type(lp_dot([])) is LaurentPoly
    assert lp_dot(iter(())).is_zero


def test_dot_with_negative_exponents_grows_its_buffer_down_and_up():
    """A later product reaching below and above the first one's span."""
    a, b = LaurentPoly({0: 1, 1: 1, 2: 1}), LaurentPoly({0: 2, 1: 3})
    low, high = LaurentPoly({-9: 5}), LaurentPoly({12: -4})
    result = lp_dot([(a, b), (low, 1), (high, b)])
    ref = DictLaurent({0: 1, 1: 1, 2: 1}) * DictLaurent({0: 2, 1: 3})
    agree(result, ref + DictLaurent({-9: 5}) + DictLaurent({12: -8, 13: -12}))


@pytest.mark.parametrize(
    "pair",
    [(True, 1), (1, False), (LaurentPoly({1: 1}), True), (False, LaurentPoly({1: 1})),
     (Fraction(1, 2), LaurentPoly({1: 1})), (LaurentPoly({1: 1}), 2.0), ("q", 1)],
    ids=repr,
)
def test_dot_rejects_bool_and_non_integer_factors(pair):
    with pytest.raises(TypeError):
        lp_dot([(LaurentPoly({0: 1}), 1), pair])


def test_dot_kronecker_products_are_counted(kronecker_calls):
    x, y = KRONECKER_CASES["mixed-sign"]
    a, b = LaurentPoly(_factor(x)), LaurentPoly(_factor(y, 3))
    assert lp_dot([(a, b), (b, a), (a, 1)]) == a * b + b * a + a
    # two in the dot, two in the check against ``*``
    assert kronecker_calls == [(len(x), len(y)), (len(y), len(x))] * 2
