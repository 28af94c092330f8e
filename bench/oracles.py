"""Brute-force oracles the benchmark checks the program's outputs against.

They share no code with idemarith: factors come from trial division,
Ramanujan sums from von Sterneck's gcd formula, the divisor idempotents
from additive orders, and S(n) from complex roots of unity.
"""

from __future__ import annotations

import cmath
import math


def divisors(n: int) -> list[int]:
    """Divisors of n >= 1, ascending, by trial division."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def factor(n: int) -> list[tuple[int, int]]:
    """[(p, a) for each p^a || n], by trial division."""
    pairs = []
    p = 2
    while p * p <= n:
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        if a:
            pairs.append((p, a))
        p += 1
    if n > 1:
        pairs.append((n, 1))
    return pairs


def mobius(n: int) -> int:
    pairs = factor(n)
    if any(a > 1 for _, a in pairs):
        return 0
    return -1 if len(pairs) % 2 else 1


def totient(n: int) -> int:
    for p, _ in factor(n):
        n = n // p * (p - 1)
    return n


def ramanujan_row(n: int) -> list[int]:
    """[c_n(0), ..., c_n(n - 1)] by von Sterneck's formula
    c_n(k) = mu(n/g) phi(n) / phi(n/g) with g = gcd(k, n)."""
    phi_n = totient(n)
    row = []
    for k in range(n):
        q = n // math.gcd(k, n)
        row.append(mobius(q) * phi_n // totient(q))
    return row


def additive_orders(n: int) -> list[int]:
    """[order of x in Z/n for x in 0..n-1]: the least t >= 1 with n | t x."""
    divs = divisors(n)
    return [next(t for t in divs if t * x % n == 0) for x in range(n)]


def root_of_unity(m: int, n: int) -> complex:
    return cmath.exp(2j * math.pi * (m % n) / n)


def dirichlet_at(a, b, m: int) -> int:
    """(a * b)(m) for 1-indexed tables stored from index 0."""
    return sum(a[d - 1] * b[m // d - 1] for d in divisors(m))


def lcm_at(a, b, m: int) -> int:
    """The lcm product at m by its definition: the sum of a(k) b(l) over
    pairs with lcm(k, l) = m (both k and l divide m)."""
    divs = divisors(m)
    return sum(
        a[k - 1] * b[l - 1] for k in divs for l in divs if k * l // math.gcd(k, l) == m
    )


def unitary_at(a, b, m: int) -> int:
    return sum(a[d - 1] * b[m // d - 1] for d in divisors(m) if math.gcd(d, m // d) == 1)


def lcm_useful_pairs(n: int) -> int:
    """#{(k, l) in [1, n]^2 : lcm(k, l) <= n}: the sum over m <= n of the
    number of ordered pairs with lcm exactly m, prod over p^a || m of
    (2a + 1)."""
    return sum(math.prod(2 * a + 1 for _, a in factor(m)) for m in range(1, n + 1))
