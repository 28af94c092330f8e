"""Operator-valued Ramanujan sums C_j(n), the divisor-partition idempotents
T_{r,j}(n), and the identities connecting them.  ``OperatorFamily(dim,
offset)`` is an ``IdempotentSystem`` on the window e_offset..e_{offset+dim-1}.

Every operator here is diagonal in the congruence realization, and its
entry at e_m depends only on the class g = gcd(m - j, n): T_{r,j}(n) is
[g = n/r], P_j(r) is [r | g] and C_j(r) is c_r(g) for each r | n.  The
identity checks gather one cached (r, g) table per level at each window
entry's class, so each identity is a weighted sum or a broadcast product
over the stacks of the whole divisor family, in exact integers.  The
root-of-unity sums are float oracles from ``s_power_sum``; ``c_operator``
and ``t_operator`` build one operator for export.
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

__all__ = ["OperatorFamily"]


@lru_cache(maxsize=64)
def _divisor_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, p, c): read-only int64 tables over the ascending divisors of n,
    row i for r = divs[i] and column k for the class g = divs[k], where t
    is [g = n/r], p is [r | g] and c is c_r(g).
    """
    divs = np.array(divisors(n))
    t = (divs == n // divs[:, None]).astype(np.int64)
    p = (divs % divs[:, None] == 0).astype(np.int64)
    c = np.array([[ramanujan_sum(r, g) for g in divisors(n)] for r in divisors(n)])
    for table in (t, p, c):
        table.flags.writeable = False
    return t, p, c


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

    def dft_projections(self, js, n: int) -> np.ndarray:
        """The complex stack (len(js), dim) whose row i is
        P_{js[i]}(n) = (1/n) sum_{l < n} eps_n^{-l js[i]} S(n)^l: the float
        oracle of the exact ``projections``, gathered from one period of
        root-of-unity sums at (m - js[i]) mod n.
        """
        if n < 1:
            raise ValueError("level n must be positive")
        period = _root_sums(range(n), np.arange(n), n) * (1 / n)
        residues = np.array([j % n for j in js], dtype=np.int64).reshape(-1, 1)
        return period[(self._indices - residues) % n]

    def c_operator(self, j: int, n: int) -> DiagonalOperator:
        """C_j(n) on the exact path: entry at basis index m is c_n(m - j)."""
        return DiagonalOperator.periodic(lambda k: [ramanujan_sum(n, x) for x in k.tolist()],
                                         n, j, self.dim, self.offset)

    def _stacks(self, j: int, n: int) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
        """(divs, t, p, c): the divisors r of n and the int64 stacks of
        T_{r,j}(n), P_j(r) and C_j(r) on the window, row i for r = divs[i].
        """
        if n < 1:
            raise ValueError("level n must be positive")
        divs = divisors(n)
        at = np.searchsorted(divs, np.gcd((self._indices - j) % n, n))
        return (divs, *(table[:, at] for table in _divisor_tables(n)))

    def c_operator_constructions(self, j: int, n: int) -> dict:
        """Residuals of the three independent constructions of C_j(n)
        against the exact entrywise form, keyed by construction:

        root_of_unity  sum over gcd(k, n) = 1 of eps_n^{-jk} S^k(n) (float)
        moebius_sum    (mu * nu1 P_j)(n), exact
        prime_product  n/rad(n) * prod over p^a || n of (p P_j(p^a) - P_j(p^{a-1})),
                       the integer form of n * prod (P_j(p^a) - (1/p) P_j(p^{a-1}))
        """
        divs, _, p_stack, c_stack = self._stacks(j, n)
        exact = c_stack[-1]
        root_of_unity = self.s_power_sum(j, n, [k for k in range(1, n + 1)
                                                if math.gcd(k, n) == 1])
        moebius_sum = _weighted([d * mobius(n // d) for d in divs], p_stack)
        p_of = dict(zip(divs, p_stack))
        prime_product = np.full_like(exact, n // math.prod(p for p, _ in factorize(n)))
        for p, a in factorize(n):
            prime_product = prime_product * (p * p_of[p**a] - p_of[p ** (a - 1)])
        return {
            "root_of_unity": DiagonalOperator(exact, self.offset).distance(root_of_unity),
            "moebius_sum": _distance(exact, moebius_sum),
            "prime_product": _distance(exact, prime_product),
        }

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

    def t_top_identities(self, j: int, n: int) -> float:
        """Residual of T_{n,j}(n) = sum_{d|n} mu(d) P_j(d) = prod_{p|n} (e - P_j(p));
        0 when both forms agree exactly.
        """
        divs, t, p_stack, _ = self._stacks(j, n)
        top = t[-1]
        moebius_sum = _weighted([mobius(d) for d in divs], p_stack)
        prime_product = np.prod(1 - p_stack[[divs.index(p) for p, _ in factorize(n)]], axis=0)
        return max(_distance(top, moebius_sum), _distance(top, prime_product))

    def t_decomposition(self, j: int, n: int) -> float:
        """Residual of {T_{r,j}(n): r | n} being a family of tau(n)
        orthogonal idempotents summing to the identity; a member count
        other than tau(n) enters as their difference.
        """
        t = self._stacks(j, n)[1]
        products = t[:, None] * t  # T_r T_r' = T_r when r' = r, else zero
        products[np.diag_indices(len(t))] -= t
        return max(_distance(t.sum(axis=0), 1), abs(len(t) - tau(n)), _distance(products, 0))

    def c_t_transforms(self, j: int, n: int) -> float:
        """Residual of both transform directions between C_j and the T_{r,j}
        family: C_j(n) = sum_{r|n} c_n(n/r) T_{r,j}(n) and
        n T_{n,j}(n) = sum_{r|n} c_n(n/r) C_j(r), both in integers.
        """
        divs, t, _, c = self._stacks(j, n)
        weights = [ramanujan_sum(n, n // r) for r in divs]
        return max(_distance(c[-1], _weighted(weights, t)),
                   _distance(n * t[-1], _weighted(weights, c)))

    def even_function_identity(self, alpha: EvenFunction, j: int, n: int) -> float:
        """Residual of sum_{r|n} alpha(n/r) C_j(r) = sum_{r|n} R(alpha)(r) T_{r,j}(n),
        with R in the un-normalized (double-sum) form.
        """
        if alpha.modulus != n:
            raise ValueError(f"alpha must be even mod n={n}, got modulus {alpha.modulus}")
        coeffs = rf_unnormalized(alpha)
        divs, t, _, c = self._stacks(j, n)
        return _distance(_weighted([alpha(n // r) for r in divs], c),
                         _weighted([coeffs[r] for r in divs], t))
