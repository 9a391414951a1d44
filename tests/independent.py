"""Values computed apart from the package, from ``math`` alone: the
references that its routes are checked against."""

import math


def whitney_lah(alpha: int, n: int, k: int) -> int:
    """The translated Whitney-Lah number alpha^(n-k) n!/k! C(n-1, n-k): 1 at
    n = k = 0, 0 at k = 0 < n and off the triangle."""
    if n == k == 0:
        return 1
    if k == 0 or k > n:
        return 0
    return alpha ** (n - k) * math.factorial(n) // math.factorial(k) * math.comb(n - 1, n - k)


def lah_oracle(n: int, k: int) -> int:
    """Independent Lah count: enumerate set partitions of {1..n} into k
    blocks and weigh each block by the number of its linear orders.

    Enumeration is exponential; refuses n > 10.
    """
    if n > 10:
        raise ValueError(f"enumeration oracle supports n <= 10, got {n}")
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
