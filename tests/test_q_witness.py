"""A kernel-free witness for the q-triangles and the Gaussian binomials.

Substituting an integer q is a ring homomorphism from Laurent polynomials
to the rationals, and it shares no code with ``LaurentPoly`` arithmetic.
Each q-Whitney triangle is built here by the triangle engine over the
Laurent kernel, substituted at q = 2 over ``Fraction``, and compared cell
by cell with the family's recurrence run over ``Fraction`` alone, where
[m]_2 = 2^m - 1 for every integer m. A row is built from monomial shifts,
window sums by q-integers and additions; a fault in any of them corrupts a
cell and shows here, even where it would corrupt both sides of an identity
check alike. The rows go to n = 30, and to n = 40 for one family. The
Gaussian binomials, the engine's q-Pascal triangle, are compared at q = 2
and q = 3 with their product formula, and so are the generalized
q-factorials of ``gqf_point`` and their special cases ``qfact`` and
``qfalling``, over q^b for b = 1..3, negative arguments included. Products
of random dense operands, which the kernel multiplies by Kronecker
substitution, are compared at q = 2 and q = 3 with the products of their
values, ``lp_dot``'s sums of such products, of q-integers and of ints with
the sums of those products, and so are both sides of the ``qr1.1`` generating-function check
with the value of its series at q. ``qwl``'s explicit route, whose sum is divided
by one q-integer at a time through the kernel's run division, and its
product route, which divides nothing, are compared at q = 2 and q = 3 with
the q-Whitney-Lah recurrence over ``Fraction``.
"""

import random
from fractions import Fraction

import pytest

from whitneylah.arith import _KRONECKER_MIN, LaurentPoly
from whitneylah.classical import _triangles
from whitneylah.dense import lp_dot
from whitneylah.qcalc import gqf_point, qbinom, qfact, qfalling, qint
from whitneylah.qroutes import qwl_egf_check
from whitneylah.qwhitney import qw1, qw2, qwl

TWO = Fraction(2)
FAMILIES = {"qw1": qw1, "qw2": qw2, "qwl": qwl}


def at(p, q: int) -> Fraction:
    """p(q), exactly, from the terms of p alone: Horner's rule from the
    highest exponent down to the lowest, lo, then times q^lo."""
    terms = list(p.items())
    if not terms:
        return Fraction(0)
    value, lo = 0, terms[-1][0]
    for e, c in reversed(terms):
        value = value * q ** (lo - e) + c
        lo = e
    return value * Fraction(q) ** lo


def qnum(m: int) -> Fraction:
    """[m]_q at q = 2, for any integer m: (2^m - 1) / (2 - 1)."""
    return TWO**m - 1


def weights(family: str, a: int, n: int, k: int) -> tuple[Fraction, Fraction]:
    """(l, r) of the family's recurrence u(n,k) = l u(n-1,k-1) + r u(n-1,k)
    at q = 2."""
    if family == "qw1":  # q^(-m) (u(n-1,k-1) - [m]_q u(n-1,k)), m = (n-1) a
        m = (n - 1) * a
        return TWO**-m, -(TWO**-m) * qnum(m)
    if family == "qw2":  # q^((k-1) a) u(n-1,k-1) + [k a]_q u(n-1,k)
        return TWO ** ((k - 1) * a), qnum(k * a)
    # qwl: q^((n+k-2) a) u(n-1,k-1) + [(n-1+k) a]_q u(n-1,k)
    return TWO ** ((n + k - 2) * a), qnum((n - 1 + k) * a)


def rows_at_2(family: str, a: int, n_max: int) -> list[list[Fraction]]:
    rows = [[Fraction(1)]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [Fraction(0)]
        row = []
        for k in range(n + 1):
            left, right = weights(family, a, n, k)
            row.append((left * prev[k - 1] if k else 0) + right * prev[k])
        rows.append(row)
    return rows


CASES = [
    (family, alpha, 30)
    for family in FAMILIES
    for alpha in (1, 2, 3, -2)
    if alpha > 0 or family != "qwl"
] + [("qwl", 3, 40)]


@pytest.mark.parametrize("family, alpha, n_max", CASES)
def test_triangle_at_q_2_is_the_recurrence_over_fraction(cold_memo, family, alpha, n_max):
    expected = rows_at_2(family, alpha, n_max)
    value = FAMILIES[family]
    for n in range(n_max + 1):
        got = [at(value(alpha, n, k), 2) for k in range(n + 1)]
        assert got == expected[n], (family, alpha, n)


def gaussian_binomial_at(q: int, n: int, k: int, b: int) -> Fraction:
    """C(n, k) over q^b at an integer q: the product of
    (q^(b (n-k+i)) - 1) / (q^(b i) - 1) for i = 1..k."""
    value = Fraction(1)
    for i in range(1, k + 1):
        value *= Fraction(q ** (b * (n - k + i)) - 1, q ** (b * i) - 1)
    return value


def test_gaussian_binomials_at_q_2_and_3_are_the_product_formula(cold_memo):
    # j = 30 first: C(60, j) is column min(j, 60 - j), so that read builds
    # the band of row 60 that every other j reads
    cases = [(120, 60, 3)] + [(60, j, 2) for j in [*range(30, -1, -1), *range(31, 61)]]
    for n, k, b in cases:
        value = qbinom(n, k, b)
        for q in (2, 3):
            assert at(value, q) == gaussian_binomial_at(q, n, k, b), (q, n, k, b)
    # they came from the engine's q-Pascal triangle, at each base
    built = {(t["weights"], t["alpha"]) for t in _triangles()}
    assert {("_qbinom_weights", 3), ("_qbinom_weights", 2)} <= built


def generalized_q_factorials_at(q: int, t: int, alpha: int, n: int, b: int) -> list:
    """[t|alpha]_0..n over q^b at an integer q: the running products of
    (q^(b (t - i alpha)) - 1) / (q^b - 1) for i = 0..n-1, where a negative
    exponent stands for the reflection [-m] = -q^(-m b) [m]."""
    values = [Fraction(1)]
    for i in range(n):
        factor = (Fraction(q) ** (b * (t - i * alpha)) - 1) / (q**b - 1)
        values.append(values[-1] * factor)
    return values


@pytest.mark.parametrize("b", [1, 2, 3])
def test_generalized_q_factorials_at_q_2_and_3_are_the_product_formula(cold_memo, b):
    for t in range(-6, 7):
        for alpha in (1, 2, 3, -1, -2, -3):
            for q in (2, 3):
                expected = generalized_q_factorials_at(q, t, alpha, 12, b)
                got = [at(gqf_point(t, alpha, n, b), q) for n in range(13)]
                assert got == expected, (q, t, alpha, b)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_q_factorials_at_q_2_and_3_are_the_product_formula(cold_memo, b):
    for q in (2, 3):
        # [n]! is [1|-1]_n and the falling [n][n-1]...[n-k+1] is [n|1]_k
        factorials = generalized_q_factorials_at(q, 1, -1, 20, b)
        assert [at(qfact(n, b), q) for n in range(21)] == factorials, (q, b)
        for n in range(21):
            falling = generalized_q_factorials_at(q, n, 1, n, b)
            assert [at(qfalling(n, k, b), q) for k in range(n + 1)] == falling, (q, n, b)


def random_dense(rng: random.Random) -> LaurentPoly:
    """``_KRONECKER_MIN`` to 80 nonzero coefficients of up to 60 digits and
    either sign, with a zero now and then, from an exponent in -20..20."""
    terms = rng.randrange(_KRONECKER_MIN, 81)
    digits = rng.choice((1, 5, 20, 60))
    cs = [rng.choice((-1, 1)) * rng.randrange(1, 10**digits) for _ in range(terms)]
    for i in rng.sample(range(1, terms - 1), terms // 8):
        cs.insert(i, 0)
    lo = rng.randrange(-20, 21)
    return LaurentPoly({lo + i: c for i, c in enumerate(cs)})


def test_dense_products_at_q_2_and_3_are_the_products_of_the_values(kronecker_calls):
    rng = random.Random(2004_13415)
    pairs = [(random_dense(rng), random_dense(rng)) for _ in range(40)]
    for x, y in pairs:
        product = x * y
        for q in (2, 3):
            assert at(product, q) == at(x, q) * at(y, q), (x, y, q)
    # every one of them took the Kronecker path
    assert len(kronecker_calls) == len(pairs)


def test_dots_at_q_2_and_3_are_the_sums_of_the_products_of_the_values(kronecker_calls):
    """Sums of up to six products of dense polynomials, q-integers over q^b
    at any integer argument and ints, zero among them."""
    rng = random.Random(2004_13416)

    def factor():
        kind = rng.randrange(3)
        if kind == 0:
            return random_dense(rng)
        if kind == 1:
            return qint(rng.randrange(-12, 13), rng.randrange(1, 4))
        return rng.choice((0, 1, -1, rng.randrange(-(10**20), 10**20)))

    def value(x, q: int) -> Fraction:
        return at(x, q) if isinstance(x, LaurentPoly) else Fraction(x)

    for _ in range(60):
        pairs = [(factor(), factor()) for _ in range(rng.randrange(7))]
        total = lp_dot(pairs)
        for q in (2, 3):
            expected = sum((value(x, q) * value(y, q) for x, y in pairs), Fraction(0))
            assert at(total, q) == expected, (pairs, q)
    assert kronecker_calls


def homogeneous(n: int, roots: list) -> Fraction:
    """h_n(roots), the t^n coefficient of prod 1/(1 - r t) over the roots."""
    h = [Fraction(1)] + [Fraction(0)] * n
    for r in roots:
        for m in range(1, n + 1):
            h[m] += r * h[m - 1]
    return h[n]


def qwl_egf_side_at(q: int, a: int, k: int, n: int) -> Fraction:
    """[n]_{q^a}! times the t^n coefficient of the ``qr1.1`` series at an
    integer q: sum_j (-1)^(k-j) q^(a C(k-j,2)) C(k,j)_{q^a} h_n(r_0..r_(j-1)),
    with r_m = q^(a m) [a]_q."""
    qa = Fraction(q**a - 1, q - 1)
    roots = [q ** (a * m) * qa for m in range(k)]
    total = sum(
        (-1) ** (k - j)
        * q ** (a * ((k - j) * (k - j - 1) // 2))
        * gaussian_binomial_at(q, k, j, a)
        * homogeneous(n, roots[:j])
        for j in range(k + 1)
    )
    return total * generalized_q_factorials_at(q, 1, -1, n, a)[n]


def test_qr1_1_sides_at_q_2_and_3_are_the_series_value(cold_memo, kronecker_calls):
    """Both sides of the generating-function check at alpha 3, k 4, n <= 12;
    the identity makes the series' value at q the value of each side."""
    for n in range(13):
        lhs, rhs = qwl_egf_check(3, 4, n)
        for q in (2, 3):
            expected = qwl_egf_side_at(q, 3, 4, n)
            assert at(lhs, q) == expected, (n, q)
            assert at(rhs, q) == expected, (n, q)
    assert kronecker_calls


def qwl_at(q: int, a: int, n: int, k: int) -> Fraction:
    """qwl(a, n, k) at an integer q by its recurrence over ``Fraction``:
    u(n,k) = q^((n+k-2) a) u(n-1,k-1) + [(n-1+k) a]_q u(n-1,k)."""
    row = [Fraction(1)]
    for m in range(1, n + 1):
        prev = row + [Fraction(0)]
        row = [
            (Fraction(q) ** ((m + j - 2) * a) * prev[j - 1] if j else 0)
            + Fraction(q ** ((m - 1 + j) * a) - 1, q - 1) * prev[j]
            for j in range(min(m, k) + 1)
        ]
    return row[k]


def test_qwl_explicit_at_q_2_and_3_is_the_recurrence_over_fraction(cold_memo, run_quotients):
    """(3, 40, 20): the sum is divided by [2]_{q^3}, ..., [20]_{q^3} and
    then by [3]_q twenty times, each through the run path."""
    value = qwl(3, 40, 20, route="explicit")
    for q in (2, 3):
        assert at(value, q) == qwl_at(q, 3, 40, 20), q
    runs = [(i, 3) for i in range(2, 21)] + [(3, 1)] * 20
    assert [(m, s) for _, m, s in run_quotients] == runs


@pytest.mark.parametrize("a, n, k", [(3, 40, 20), (2, 60, 30), (1, 80, 40)])
def test_qwl_product_at_q_2_and_3_is_the_recurrence_over_fraction(
    cold_memo, run_quotients, a, n, k
):
    """The Garsia-Remmel product over q^a: Gaussian binomials from the
    engine's q-Pascal triangle, a q-falling factorial and a power of [a]_q,
    multiplied together with no division; at a = 1, the q-Lah number."""
    value = qwl(a, n, k, route="product")
    for q in (2, 3):
        assert at(value, q) == qwl_at(q, a, n, k), q
    assert run_quotients == []
