"""Operator-valued Ramanujan sums C_j(n), the divisor-partition idempotents
T_{r,j}(n), and the identities connecting them.

For r | n, the entry at e_m of T_{r,j}(n), P_j(r) and C_j(r) depends only
on the class g = gcd(m - j, n): it is [g = n/r], [r | g] and c_r(g).
``_divisor_tables(n)`` holds each family as a tau(n) x tau(n) table, and a
window only reads them at its entries' classes, the same map for every
identity and every j; so each identity of level n is decided on the
tables, in exact integers.  ``root_of_unity_residual`` is the float
oracle of c_n over one period.  ``OperatorFamily(dim, offset)``, an
``IdempotentSystem``, builds S(n), C_j(n) and T_{r,j}(n) on its window.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .algebra import _INT64_MAX, DiagonalOperator
from .arith import (
    EvenFunction,
    divisors,
    factorize,
    mobius,
    ramanujan_sum,
    rf_unnormalized,
    tau,
)
from .idempotents import IdempotentSystem

__all__ = ["OperatorFamily", "c_operator_constructions", "c_t_transforms",
           "even_function_identity", "root_of_unity_residual", "t_decomposition",
           "t_top_identities"]


@lru_cache(maxsize=64)
def _divisor_tables(n: int) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    """(divs, t, p, c): the ascending divisors of n and read-only int64
    tables over them, row i for r = divs[i] and column k for the class
    g = divs[k], where t is [g = n/r], p is [r | g] and c is c_r(g).
    """
    if n < 1:
        raise ValueError("level n must be positive")
    divs = divisors(n)
    d = np.array(divs)
    t = (d == n // d[:, None]).astype(np.int64)
    p = (d % d[:, None] == 0).astype(np.int64)
    c = np.array([[ramanujan_sum(r, g) for g in divs] for r in divs])
    for table in (t, p, c):
        table.flags.writeable = False
    return divs, t, p, c


def _weighted(weights: list, stack: np.ndarray) -> np.ndarray:
    """weights @ stack, in int64 only when no sum can leave it, else exact in Python."""
    w = np.array(weights)
    fits = w.dtype == np.int64 and len(w) * int(abs(w).max()) * int(abs(stack).max()) <= _INT64_MAX
    return (w if fits else np.array(weights, dtype=object)) @ stack


def _root_sums(ks, r: np.ndarray, n: int) -> np.ndarray:
    """sum over k in ks of exp(2 pi i (k r mod n) / n) at each residue in r.
    The phase is a real float64 before it meets 1j, as in
    ``cmath.exp(2j * math.pi * x / n)``; dividing the complex 2j * pi * x
    by n in numpy rounds differently.
    """
    ks = np.array(ks, dtype=np.int64).reshape(-1, 1) % n
    return np.exp(1j * (2 * np.pi * (ks * r % n) / n)).sum(axis=0)


def _distance(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def root_of_unity_residual(n: int) -> float:
    """max over x < n of |sum over gcd(k, n) = 1 of eps_n^{kx} - c_n(x)|, c_n(x) read
    off the c table at gcd(x, n): the float oracle of c_n, and of C_j(n) for any j."""
    divs, _, _, c = _divisor_tables(n)
    x = np.arange(n)
    coprime = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    return _distance(c[-1][np.searchsorted(divs, np.gcd(x, n))], _root_sums(coprime, x, n))


def c_operator_constructions(n: int) -> dict:
    """Residuals of the three independent constructions of C_j(n), any j,
    against the exact c table, keyed by construction:

    root_of_unity  sum over gcd(k, n) = 1 of eps_n^{-jk} S^k(n) (float)
    moebius_sum    (mu * nu1 P_j)(n), exact
    prime_product  n/rad(n) * prod over p^a || n of (p P_j(p^a) - P_j(p^{a-1})),
                   the integer form of n * prod (P_j(p^a) - (1/p) P_j(p^{a-1}))
    """
    divs, _, p, c = _divisor_tables(n)
    exact = c[-1]
    moebius_sum = _weighted([d * mobius(n // d) for d in divs], p)
    p_of = dict(zip(divs, p))
    prime_product = np.full_like(exact, n // math.prod(q for q, _ in factorize(n)))
    for q, a in factorize(n):
        prime_product = prime_product * (q * p_of[q**a] - p_of[q ** (a - 1)])
    return {"root_of_unity": root_of_unity_residual(n),
            "moebius_sum": _distance(exact, moebius_sum),
            "prime_product": _distance(exact, prime_product)}


def t_top_identities(n: int) -> float:
    """Residual of T_{n,j}(n) = sum_{d|n} mu(d) P_j(d) = prod_{p|n} (e - P_j(p))."""
    divs, t, p, _ = _divisor_tables(n)
    moebius_sum = _weighted([mobius(d) for d in divs], p)
    prime_product = np.prod(1 - p[[divs.index(q) for q, _ in factorize(n)]], axis=0)
    return max(_distance(t[-1], moebius_sum), _distance(t[-1], prime_product))


def t_decomposition(n: int) -> float:
    """Residual of {T_{r,j}(n): r | n} being a family of tau(n)
    orthogonal idempotents summing to the identity; a member count
    other than tau(n) enters as their difference.
    """
    t = _divisor_tables(n)[1]
    products = t[:, None] * t  # T_r T_r' = T_r when r' = r, else zero
    products[np.diag_indices(len(t))] -= t
    return max(_distance(t.sum(axis=0), 1), abs(len(t) - tau(n)), _distance(products, 0))


def c_t_transforms(n: int) -> float:
    """Residual of both transform directions between C_j and the T_{r,j}
    family: C_j(n) = sum_{r|n} c_n(n/r) T_{r,j}(n) and
    n T_{n,j}(n) = sum_{r|n} c_n(n/r) C_j(r), both in integers.
    """
    divs, t, _, c = _divisor_tables(n)
    weights = [ramanujan_sum(n, n // r) for r in divs]
    return max(_distance(c[-1], _weighted(weights, t)),
               _distance(n * t[-1], _weighted(weights, c)))


def even_function_identity(alpha: EvenFunction) -> float:
    """Residual of sum_{r|n} alpha(n/r) C_j(r) = sum_{r|n} R(alpha)(r) T_{r,j}(n)
    at n = alpha.modulus, with R in the un-normalized (double-sum) form.
    """
    n = alpha.modulus
    divs, t, _, c = _divisor_tables(n)
    coeffs = rf_unnormalized(alpha)
    return _distance(_weighted([alpha(n // r) for r in divs], c),
                     _weighted([coeffs[r] for r in divs], t))


class OperatorFamily(IdempotentSystem):
    """S(n), C_j(n) and T_{r,j}(n) on an idempotent system's window, with its P_j(n)."""

    def s_operator(self, n: int) -> DiagonalOperator:
        """Root-of-unity diagonal S(n) e_m = eps_n^m e_m; S(n)^n = e."""
        return self.s_power_sum(0, n, [1])

    def s_power_sum(self, j: int, n: int, ks) -> DiagonalOperator:
        """sum over k in ks of eps_n^{-jk} S(n)^k, built from one period.

        The entry at e_m sums exp(2 pi i r / n) over the residues
        r = k (m - j) mod n, so entries at indices congruent mod n are the
        same float.
        """
        if n < 1:
            raise ValueError("level n must be positive")
        return DiagonalOperator.periodic(lambda r: _root_sums(ks, r, n),
                                         n, j, self.dim, self.offset)

    def c_operator(self, j: int, n: int) -> DiagonalOperator:
        """C_j(n) on the exact path: entry at basis index m is c_n(m - j)."""
        return DiagonalOperator.periodic(lambda k: [ramanujan_sum(n, x) for x in k.tolist()],
                                         n, j, self.dim, self.offset)

    def t_operator(self, r: int, j: int, n: int) -> DiagonalOperator:
        """T_{r,j}(n): the 0/1 diagonal selecting basis indices m with
        gcd(m - j, n) = n/r; requires n >= 1 and a divisor r >= 1 of n.
        """
        if n < 1 or r < 1:
            raise ValueError(f"t_operator requires r, n >= 1, got r={r}, n={n}")
        if n % r != 0:
            raise ValueError(f"t_operator requires r | n, got r={r}, n={n}")
        target = n // r
        return DiagonalOperator.periodic(lambda k: np.gcd(k, n) == target,
                                         n, j, self.dim, self.offset)
