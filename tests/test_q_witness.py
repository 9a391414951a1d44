"""A kernel-free witness for the q-triangles.

Substituting q = 2 is a ring homomorphism from Laurent polynomials to the
rationals, and it shares no code with ``LaurentPoly`` arithmetic. Each
q-Whitney triangle is built here by the triangle engine over the Laurent
kernel, substituted at q = 2 over ``Fraction``, and compared cell by cell
with the family's recurrence run over ``Fraction`` alone, where
[m]_2 = 2^m - 1 for every integer m. A row is built from monomial shifts,
window sums by q-integers and additions; a fault in any of them corrupts a
cell and shows here, even where it would corrupt both sides of an identity
check alike. The rows go to n = 30, and to n = 40 for one family.
"""

from fractions import Fraction

import pytest

from whitneylah.qwhitney import qw1, qw2, qwl

TWO = Fraction(2)
FAMILIES = {"qw1": qw1, "qw2": qw2, "qwl": qwl}


def at_2(p) -> Fraction:
    """p(2), exactly: the integer sum of c 2^(e - lo) over the terms,
    times 2^lo for the lowest exponent lo."""
    terms = list(p.items())
    if not terms:
        return Fraction(0)
    lo = min(e for e, _ in terms)
    return sum(c << (e - lo) for e, c in terms) * TWO**lo


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
        got = [at_2(value(alpha, n, k)) for k in range(n + 1)]
        assert got == expected[n], (family, alpha, n)

