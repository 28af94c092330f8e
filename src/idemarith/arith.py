"""Exact scalar number theory: factorization, classical multiplicative
functions, Ramanujan sums, and even-function Fourier coefficients.

``number_table(L)`` is one sieve of all of 0..L at once: the largest prime
of each n, its full power and the rest of n, with mu, phi and tau.
``NumberTable.multiplicative`` walks it to build any multiplicative table
from its prime-power values, in numpy passes rather than one ``factorize``
per n.  One table is held, and smaller requests read a prefix of it.
``_hold`` is the rule of every table kept between calls, this one and each
product index of ``convolution``: it is kept only while its arrays total at
most HELD_BYTES; a larger one is returned, not kept, and a smaller one stays.

Everything here is computed in exact integer or rational arithmetic and
compared with no tolerance: the identity suites judge the batched
``ramanujan_ops.rf_residuals``.  Complex floats appear only in the exported S(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

MAX_FACTOR_INPUT = 10**12
_CACHE_SIZE = 4096  # per scalar lru_cache, so a long `table` run keeps no entry per value
HELD_BYTES = 16 * 2**20  # the most a table kept between calls may hold, in bytes
_held: list = [None]  # number_table's cache: the one NumberTable it holds

__all__ = [
    "MAX_FACTOR_INPUT",
    "EvenFunction",
    "NumberTable",
    "RFCoefficients",
    "divisors",
    "epsilon",
    "factorize",
    "jordan_totient",
    "lcm_tuple_count",
    "mobius",
    "nu",
    "number_table",
    "omega",
    "ramanujan_sum",
    "rf_transform",
    "tau",
    "totient",
]


@lru_cache(maxsize=_CACHE_SIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical factorization of n as ((p1, a1), (p2, a2), ...), primes
    ascending.  n = 1 gives the empty tuple.

    Raises ValueError for n < 1 or n beyond the supported trial-division
    range (10^12).
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n > MAX_FACTOR_INPUT:
        raise ValueError(f"factorize supports n <= {MAX_FACTOR_INPUT}, got {n}")
    pairs = []
    rest = n
    for p in (2, 3):
        if rest % p == 0:
            a = 0
            while rest % p == 0:
                rest //= p
                a += 1
            pairs.append((p, a))
    d = 5
    while d * d <= rest:
        for p in (d, d + 2):
            if rest % p == 0:
                a = 0
                while rest % p == 0:
                    rest //= p
                    a += 1
                pairs.append((p, a))
        d += 6
    if rest > 1:
        pairs.append((rest, 1))
    return tuple(pairs)


@lru_cache(maxsize=_CACHE_SIZE)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, a in factorize(n):
        divs = [d * p**k for d in divs for k in range(a + 1)]
    return tuple(sorted(divs))


class NumberTable(NamedTuple):
    """Read-only int64 columns indexed by n = 0..L: the largest prime p | n, its
    power p^a || n, the rest n / p^a <= n / 2, mu, phi and tau.  Position 1 holds
    1 in each column; position 0 holds 1, 1, 0, 0, 0, 0."""

    prime: np.ndarray
    power: np.ndarray
    rest: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    tau: np.ndarray

    def multiplicative(self, at_power: np.ndarray, unit) -> np.ndarray:
        """acc[n] = unit * f(p1^a1) * ... * f(pk^ak), primes ascending, multiplied left
        to right, from at_power[n] = f at the power of n's largest prime: acc[1] = unit,
        acc[n] = acc[rest(n)] * at_power[n], one pass per range 2^j <= n < 2^(j+1)
        since rest(n) <= n / 2, and acc[0] = 0."""
        acc = np.zeros_like(at_power)
        acc[1] = unit
        for j in range(1, (len(acc) - 1).bit_length()):
            lo, hi = 2**j, 2 ** (j + 1)
            acc[lo:hi] = acc[self.rest[lo:hi]] * at_power[lo:hi]
        return acc


def _sieve(n_max: int) -> NumberTable:
    """The ``NumberTable`` of 0..n_max: each prime p <= sqrt(n_max), ascending, marks its
    multiples with p, and those of each p^a with p^a and a + 1; then, as no n <= n_max has
    two larger primes or the square of one, those mark their multiples with p, p and 2."""
    prime, power, count = (np.ones(n_max + 1, dtype=np.int64) for _ in range(3))
    for p in range(2, math.isqrt(n_max) + 1):
        if prime[p] == 1:  # no smaller prime divides p
            prime[p::p] = p
            q, a = p, 1
            while q <= n_max:
                power[q::q], count[q::q] = q, a + 1
                q, a = q * p, a + 1
    big = np.flatnonzero(prime[2:] == 1) + 2  # the primes above sqrt(n_max): no mark yet
    runs = n_max // big
    p = np.repeat(big, runs)  # p k for k = 1..n_max // p, each p's run after the last
    multiples = p * (np.arange(1, p.size + 1) - np.repeat(np.cumsum(runs) - runs, runs))
    prime[multiples], power[multiples], count[multiples] = p, p, 2
    split = NumberTable(prime, power, np.arange(n_max + 1) // power, None, None, None)
    table = split._replace(mu=split.multiplicative(np.where(power == prime, -1, 0), 1),
                           phi=split.multiplicative(power - power // prime, 1),
                           tau=split.multiplicative(count, 1))
    for column in table:
        column.flags.writeable = False
    return table


def _hold(store, key, table: tuple) -> tuple:
    """table, kept as store[key] only if its arrays total at most HELD_BYTES."""
    if sum(array.nbytes for array in table) <= HELD_BYTES:
        store[key] = table
    return table


def number_table(n_max: int) -> NumberTable:
    """The ``NumberTable`` of 0..n_max.  One table is held: a request within it
    reads a prefix of its columns, and a larger one sieves anew, held if ``_hold`` keeps it."""
    if n_max < 1:
        raise ValueError(f"number_table requires n_max >= 1, got {n_max}")
    table = _held[0]
    if table is None or len(table.rest) <= n_max:
        table = _hold(_held, 0, _sieve(n_max))
    return NumberTable(*(column[:n_max + 1] for column in table))


def mobius(n: int) -> int:
    f = factorize(n)
    if any(a > 1 for _, a in f):
        return 0
    return -1 if len(f) % 2 else 1


def totient(n: int) -> int:
    """Euler's phi via n * prod(1 - 1/p), exact."""
    result = n
    for p, _ in factorize(n):
        result = result // p * (p - 1)
    return result


def jordan_totient(r: int, n: int) -> int:
    """J_r(n) = n^r * prod_{p|n} (1 - p^{-r}), exact; J_1 = totient."""
    if r < 1:
        raise ValueError("jordan_totient requires r >= 1")
    return math.prod(p ** (r * (a - 1)) * (p**r - 1) for p, a in factorize(n))


def omega(n: int) -> int:
    """Number of distinct prime factors."""
    return len(factorize(n))


def tau(n: int) -> int:
    """Number of divisors."""
    return math.prod(a + 1 for _, a in factorize(n))


def nu(k: int, n: int):
    """nu_k(n) = n^k; an int for k >= 0, an exact Fraction for k < 0."""
    if n < 1:
        raise ValueError("nu requires n >= 1")
    if k >= 0:
        return n**k
    return Fraction(1, n ** (-k))


def epsilon(n: int) -> int:
    """Dirichlet unit: 1 at n = 1, else 0."""
    return 1 if n == 1 else 0


@lru_cache(maxsize=_CACHE_SIZE)
def _ramanujan_reduced(n: int, g: int) -> int:
    # g = gcd(j, n); c_n(j) = sum_{d | g} d * mu(n/d)
    return sum(d * mobius(n // d) for d in divisors(g))


def ramanujan_sum(n: int, j: int) -> int:
    """c_n(j), exact, via the divisor formula sum_{d | gcd(j,n)} d*mu(n/d).

    j may be any integer; it is reduced mod n (c_n is n-periodic).
    """
    if n < 1:
        raise ValueError("ramanujan_sum requires n >= 1")
    return _ramanujan_reduced(n, math.gcd(j % n, n))


def lcm_tuple_count(s: int, n: int) -> int:
    """M_s(n): the number of s-tuples of positive integers with lcm n,
    prod_k ((a_k + 1)^s - a_k^s) over the exponents of n.
    """
    if s < 1:
        raise ValueError("lcm_tuple_count requires s >= 1")
    return math.prod((a + 1) ** s - a**s for _, a in factorize(n))


@dataclass(frozen=True)
class EvenFunction:
    """A function whose value at n depends only on gcd(n, d): stored as one
    value per divisor of d.
    """

    modulus: int
    values: dict = field(hash=False)

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if set(self.values) != set(divisors(self.modulus)):
            raise ValueError(
                f"values must be keyed by exactly the divisors of {self.modulus}"
            )

    def __call__(self, n: int):
        return self.values[math.gcd(n, self.modulus)]


@dataclass(frozen=True)
class RFCoefficients:
    """Ramanujan-Fourier coefficients of an even function mod d, in both
    normalizations.

    ``orthogonal`` reconstructs: alpha(n) = sum_{r|d} a(r) c_r(n).
    ``unnormalized`` is the double-sum form R(alpha)(r) = sum_{delta|d}
    alpha(d/delta) c_delta(d/r), which works out to d times the
    orthogonal coefficients; both are exposed.
    """

    modulus: int
    unnormalized: dict = field(hash=False)
    orthogonal: dict = field(hash=False)


def rf_transform(alpha: EvenFunction) -> RFCoefficients:
    """Both Ramanujan-Fourier coefficient normalizations of an even function, the
    orthogonal sum over k = 1..d taken once per class g = gcd(k, d), times phi(d/g)."""
    d, divs = alpha.modulus, divisors(alpha.modulus)
    unnormalized = {r: sum(alpha(d // delta) * ramanujan_sum(delta, d // r) for delta in divs)
                    for r in divs}
    orthogonal = {
        r: Fraction(sum(totient(d // g) * alpha(g) * ramanujan_sum(r, g) for g in divs),
                    d * totient(r))
        for r in divs
    }
    return RFCoefficients(d, unnormalized, orthogonal)

