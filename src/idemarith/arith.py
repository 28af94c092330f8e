"""Exact scalar number theory: factorization, classical multiplicative
functions, Ramanujan sums, and even-function Fourier coefficients with
their reconstruction residual.

``prime_power_split`` is a sieve of all of 1..N at once: the largest
prime of each n, its full power, and the rest of n.  ``prime_power_product``
walks it to build a multiplicative table from its prime-power values, in
numpy passes rather than one ``factorize`` per n.

Everything here is computed in exact integer or rational arithmetic and
compared with no tolerance: the identity suites judge ``rf_residual``, which
sums per class gcd(k, d).  Complex floats appear only in the exported S(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

MAX_FACTOR_INPUT = 10**12
_CACHE_SIZE = 4096  # per scalar lru_cache, so a long `table` run keeps no entry per value

__all__ = [
    "MAX_FACTOR_INPUT",
    "EvenFunction",
    "RFCoefficients",
    "divisors",
    "epsilon",
    "factorize",
    "jordan_totient",
    "lcm_tuple_count",
    "mobius",
    "nu",
    "omega",
    "prime_power_product",
    "prime_power_split",
    "ramanujan_sum",
    "rf_residual",
    "rf_transform",
    "rf_unnormalized",
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


@lru_cache(maxsize=3)
def prime_power_split(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prime, power, rest), read-only int64 arrays indexed by n = 0..n_max:
    the largest prime p | n, its power p^a || n and rest(n) = n / p^a, so
    rest(n) <= n / 2.  Position 1 holds (1, 1, 1), position 0 (1, 1, 0).

    One sieve: each prime p, ascending, marks its multiples with p and the
    multiples of each p^a with p^a, so the largest prime marks last.
    """
    prime = np.ones(n_max + 1, dtype=np.int64)
    power = np.ones(n_max + 1, dtype=np.int64)
    for p in range(2, n_max + 1):
        if prime[p] == 1:  # no smaller prime divides p
            prime[p::p] = p
            q = p
            while q <= n_max:
                power[q::q] = q
                q *= p
    split = prime, power, np.arange(n_max + 1) // power
    for array in split:
        array.flags.writeable = False
    return split


def prime_power_product(factor: np.ndarray, unit) -> np.ndarray:
    """The array acc with acc[1] = unit and acc[n] = acc[rest(n)] * factor[n]
    for n = 2..N, N = len(factor) - 1, rest as in ``prime_power_split``.

    With factor[n] the value at the power of n's largest prime, acc[n] is
    unit * f(p1^a1) * ... * f(pk^ak), primes ascending, multiplied left to
    right.  rest(n) <= n / 2, so each range 2^j <= n < 2^(j+1) is one pass.
    Position 0 is left at zero.
    """
    n_max = len(factor) - 1
    rest = prime_power_split(n_max)[2]
    acc = np.zeros_like(factor)
    acc[1] = unit
    for j in range(1, n_max.bit_length()):
        lo, hi = 2**j, min(2 ** (j + 1), n_max + 1)
        acc[lo:hi] = acc[rest[lo:hi]] * factor[lo:hi]
    return acc


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
    result = 1
    for p, a in factorize(n):
        result *= p ** (r * (a - 1)) * (p**r - 1)
    return result


def omega(n: int) -> int:
    """Number of distinct prime factors."""
    return len(factorize(n))


def tau(n: int) -> int:
    """Number of divisors."""
    result = 1
    for _, a in factorize(n):
        result *= a + 1
    return result


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
    result = 1
    for _, a in factorize(n):
        result *= (a + 1) ** s - a**s
    return result


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
    orthogonal coefficients; both are exposed, and ``rf_residual``
    measures both the factor of d and the reconstruction.
    """

    modulus: int
    unnormalized: dict = field(hash=False)
    orthogonal: dict = field(hash=False)


def rf_unnormalized(alpha: EvenFunction) -> dict:
    """The un-normalized coefficients R(alpha)(r), r | d, of ``rf_transform``."""
    d = alpha.modulus
    divs = divisors(d)
    return {r: sum(alpha(d // delta) * ramanujan_sum(delta, d // r) for delta in divs)
            for r in divs}


def rf_transform(alpha: EvenFunction) -> RFCoefficients:
    """Both Ramanujan-Fourier coefficient normalizations of an even function, the
    orthogonal sum over k = 1..d taken once per class g = gcd(k, d), times phi(d/g)."""
    d, divs = alpha.modulus, divisors(alpha.modulus)
    orthogonal = {
        r: Fraction(sum(totient(d // g) * alpha(g) * ramanujan_sum(r, g) for g in divs),
                    d * totient(r))
        for r in divs
    }
    return RFCoefficients(d, rf_unnormalized(alpha), orthogonal)


def rf_residual(alpha: EvenFunction):
    """The worst of |unnormalized(r) - d * orthogonal(r)| over r | d and of
    the reconstruction error |sum_{r|d} unnormalized(r) c_r(n) - d alpha(n)|
    over n = 1..d, in integers at one n per class gcd(n, d); exactly 0 on exact values.
    """
    coeffs = rf_transform(alpha)
    d, divs = alpha.modulus, divisors(alpha.modulus)
    return max(
        max(abs(coeffs.unnormalized[r] - d * coeffs.orthogonal[r]) for r in divs),
        max(abs(sum(coeffs.unnormalized[r] * ramanujan_sum(r, g) for r in divs) - d * alpha(g))
            for g in divs),
    )
