"""Operator-valued Ramanujan sums C_j(n), the divisor-partition idempotents
T_{r,j}(n), and the identities connecting them.

For r | n, the entry at e_m of T_{r,j}(n), P_j(r) and C_j(r) depends only
on the class g = gcd(m - j, n): it is [g = n/r], [r | g] and c_r(g).
``_divisor_tables(n)`` holds each family as a tau(n) x tau(n) table, and a
window only reads them at its entries' classes, the same map for every
identity and every j; so each identity of level n is decided on the
tables, in exact integers; sums of powers of eps_n in F_q, through the
ring map eps_n -> omega of order n (``root_sum_residual``).
``OperatorFamily(dim, offset)`` builds S(n) (in floats), C_j(n) and
T_{r,j}(n) on an ``IdempotentSystem`` window.
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
           "even_function_identity", "orthogonality_residual", "root_of_unity_residual",
           "root_sum_residual", "t_decomposition", "t_top_identities"]


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


@lru_cache(maxsize=64)
def _roots_mod(n: int) -> tuple[int, np.ndarray]:
    """(q, w): q the least prime above 2n with q = 1 (mod n), and the read-only
    int64 w[e] = omega^e mod q, e < n, omega of order exactly n in F_q."""
    if n < 1:
        raise ValueError("level n must be positive")
    q = 2 * n + 1
    while factorize(q) != ((q, 1),):
        q += n
    omega = next(w for w in (pow(g, (q - 1) // n, q) for g in range(2, q))
                 if all(pow(w, n // p, q) != 1 for p, _ in factorize(n)))
    powers = np.array([pow(omega, e, q) for e in range(n)], dtype=np.int64)
    powers.flags.writeable = False
    return q, powers


def root_sum_residual(ks, x: np.ndarray, n: int, value) -> int:
    """max over x of |sum over k in ks of omega^{kx} - value| as a symmetric
    residue mod q, (q, omega) from ``_roots_mod(n)``.  Over an orbit of units
    mod n, or all k < n, the sum of eps_n^{kx} is an integer of size <= n < q/2,
    so against an integer value of size <= n the residual is 0 iff they agree."""
    q, powers = _roots_mod(n)
    diff = (powers[np.array(ks, dtype=np.int64)[:, None] * x % n].sum(axis=0) - value) % q
    return int(np.minimum(diff, q - diff).max())


def _distance(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def root_of_unity_residual(n: int) -> int:
    """root_sum_residual of sum over gcd(k, n) = 1 of eps_n^{kx} against c_n(x): the
    exact oracle of c_n, and of C_j(n) for any j.  x -> ux, u a unit mod n, permutes
    the k coprime to n, so the sum depends only on gcd(x, n): one x = g per g | n."""
    divs, _, _, c = _divisor_tables(n)
    coprime = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    return root_sum_residual(coprime, np.array(divs), n, c[-1])


def c_operator_constructions(n: int) -> dict:
    """Residuals of the three independent constructions of C_j(n), any j,
    against the exact c table, keyed by construction:

    root_of_unity  sum over gcd(k, n) = 1 of eps_n^{-jk} S^k(n), in F_q
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


def orthogonality_residual(n: int) -> tuple[int, dict]:
    """The worst |sum_{r|n} c_n(n/r) c_r(l) - n [gcd(l, n) = 1]| over l = 1..n,
    at its first l.  For r | n, c_r(l) = c_r(g) with g = gcd(l, n), so the sum
    is taken once per class g, from the c table, and each l reads its class's."""
    divs, _, _, c = _divisor_tables(n)
    by_class = _weighted([ramanujan_sum(n, n // r) for r in divs], c)
    g = np.gcd(np.arange(1, n + 1), n)
    residuals = np.abs(by_class[np.searchsorted(divs, g)] - np.where(g == 1, n, 0))
    at = int(np.argmax(residuals))
    return int(residuals[at]), {"l": at + 1}


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
        """Root-of-unity diagonal S(n) e_m = eps_n^m e_m; S(n)^n = e.  The phase
        is a real float64 before it meets 1j, as in ``cmath.exp(2j * math.pi * x / n)``;
        dividing the complex 2j * pi * x by n in numpy rounds differently."""
        return DiagonalOperator.periodic(lambda r: np.exp(1j * (2 * np.pi * r / n)),
                                         n, 0, self.dim, self.offset)

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
