"""Classical triangles: unsigned Stirling (both kinds), Lah, and Bell numbers.

These are the alpha = 1 / q = 1 reference layer. The Stirling triangles are
built by their additive recurrences; the generating relations that define
them are checked separately by the identity suite, keeping construction and
validation apart. A brute-force enumeration oracle for the Lah numbers is
included for end-to-end validation at small scale.

Also provides the rising/falling/generalized factorial polynomials in a
formal variable t (as Laurent polynomials with rational coefficients), used
to verify horizontal generating-function identities by dense expansion.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import LaurentPoly, NonExactDivision

CLASSICAL_FAMILIES = ("stirling1u", "stirling2", "lah")


class ScaleExceeded(ValueError):
    """Brute-force enumeration requested beyond its supported size."""


@lru_cache(maxsize=None)
def _stirling1u_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _stirling1u_row(n - 1)
    row = []
    for k in range(n + 1):
        left = prev[k - 1] if 1 <= k <= n else 0
        right = prev[k] if k < n else 0
        row.append(left + (n - 1) * right)
    return tuple(row)


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _stirling2_row(n - 1)
    row = []
    for k in range(n + 1):
        left = prev[k - 1] if 1 <= k <= n else 0
        right = prev[k] if k < n else 0
        row.append(left + k * right)
    return tuple(row)


def stirling1u(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of an
    n-set with k cycles. Zero outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _stirling1u_row(n)[k]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into
    k nonempty blocks. Zero outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _stirling2_row(n)[k]


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
    return sum(_stirling2_row(n))


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
    t = LaurentPoly.var()
    out = LaurentPoly.one()
    for i in range(n):
        out = out * (t + i)
    return out


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
