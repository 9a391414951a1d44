"""Classical triangles: unsigned Stirling (both kinds), Lah, and Bell numbers.

These are the alpha = 1 / q = 1 reference layer. The Stirling triangles are
built by their additive recurrences; the generating relations that define
them are checked separately by the identity suite, keeping construction and
validation apart. A brute-force enumeration oracle for the Lah numbers is
included for end-to-end validation at small scale.

This module also holds the package's one triangle engine: every recurrence
triangle, classical, translated or q, is a weights function handed to it.
Rows are built in a loop, so any depth works, and only the rows that callers
request are memoized, per (family, alpha).

Also provides the rising/falling/generalized factorial polynomials in a
formal variable t (as Laurent polynomials with rational coefficients), used
to verify horizontal generating-function identities by dense expansion.
"""

from __future__ import annotations

import math
from typing import Callable

from .arith import LaurentPoly, NonExactDivision


class ScaleExceeded(ValueError):
    """Brute-force enumeration requested beyond its supported size."""


# -- the triangle engine ------------------------------------------------------
#
# Every recurrence triangle of the package is one case of the paper's
# two-sequence recurrence, with a weight on the left term as well:
#
#     u(n, k) = l_k u(n-1, k-1) + r_k u(n-1, k),    u(0, 0) = 1.
#
# A family is a weights function (alpha, n) -> (l_0..l_n, r_0..r_n) for row n.
# Only the rows that callers ask for are stored, per (weights, alpha), so a
# deep request holds one row rather than the whole triangle; a miss resumes
# from the nearest stored row below. Stored rows are tuples and never change.

_ROWS: dict[tuple[Callable, int], dict[int, tuple]] = {}


def _row(weights: Callable, alpha: int, n: int, one=1) -> tuple:
    """Row n (n >= 0) of the triangle of ``weights`` at ``alpha``; ``one``
    is u(0, 0) in the ring of the values."""
    memo = _ROWS.setdefault((weights, alpha), {})
    row = memo.get(n)
    if row is not None:
        return row
    # list(memo): another thread may store a row while this one looks
    start = n - 1 if n - 1 in memo else max((m for m in list(memo) if m < n), default=0)
    row = memo.get(start, (one,))
    for i in range(start + 1, n + 1):
        left, right = weights(alpha, i)
        row = (
            right[0] * row[0],
            *[l * a + r * b for l, a, r, b in zip(left[1:], row, right[1:], row[1:])],
            left[i] * row[-1],
        )
    memo[n] = row
    return row


# The Stirling triangles are the translated Whitney triangles at alpha = 1.


def _tw1_weights(alpha: int, n: int) -> tuple[list[int], list[int]]:
    """First kind: u(n,k) = u(n-1,k-1) + alpha (n-1) u(n-1,k)."""
    return [1] * (n + 1), [alpha * (n - 1)] * (n + 1)


def _tw2_weights(alpha: int, n: int) -> tuple[list[int], list[int]]:
    """Second kind: u(n,k) = u(n-1,k-1) + alpha k u(n-1,k)."""
    return [1] * (n + 1), [alpha * k for k in range(n + 1)]


def stirling1u(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of an
    n-set with k cycles. Zero outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _row(_tw1_weights, 1, n)[k]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into
    k nonempty blocks. Zero outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _row(_tw2_weights, 1, n)[k]


def lah(n: int, k: int) -> int:
    """Lah number: partitions of an n-set into k nonempty ordered lists.

    Closed form (n!/k!) C(n-1, k-1) for 1 <= k <= n, with L(0,0) = 1.
    """
    if n == 0 and k == 0:
        return 1
    if n < 1 or k < 1 or k > n:
        return 0
    return math.factorial(n) // math.factorial(k) * math.comb(n - 1, k - 1)


def lah_oracle(n: int, k: int) -> int:
    """Independent Lah count: enumerate set partitions of {1..n} into k
    blocks and weigh each block by the number of its linear orders.

    Enumeration is exponential; refuses n > 10.
    """
    if n > 10:
        raise ScaleExceeded(f"enumeration oracle supports n <= 10, got {n}")
    if n == 0 and k == 0:
        return 1
    if n < 1 or k < 1 or k > n:
        return 0
    total = 0
    sizes: list[int] = []

    def place(i: int) -> None:
        nonlocal total
        if i == n:
            if len(sizes) == k:
                w = 1
                for s in sizes:
                    w *= math.factorial(s)
                total += w
            return
        if len(sizes) + (n - i) < k:
            return
        for b in range(len(sizes)):
            sizes[b] += 1
            place(i + 1)
            sizes[b] -= 1
        if len(sizes) < k:
            sizes.append(1)
            place(i + 1)
            sizes.pop()

    place(0)
    return total


def bell(n: int) -> int:
    """Bell number: total number of partitions of an n-set."""
    if n < 0:
        return 0
    return sum(_row(_tw2_weights, 1, n))


def binomial(r: int, k: int) -> int:
    """Binomial coefficient with arbitrary (possibly negative) integer
    upper argument: r(r-1)...(r-k+1)/k!, and 0 for k < 0."""
    if k < 0:
        return 0
    if r >= 0:
        return math.comb(r, k)
    num = 1
    for i in range(k):
        num *= r - i
    q, rem = divmod(num, math.factorial(k))
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
    t = LaurentPoly.var()
    out = LaurentPoly.one()
    for i in range(n):
        out = out * (t - i * alpha)
    return out
