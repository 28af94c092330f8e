"""Operator-valued Ramanujan sums C_j(n), the divisor-partition idempotents
T_{r,j}(n), and the identities connecting them.

Every operator here is diagonal in the congruence realization, so each
identity reduces entrywise to a scalar Ramanujan-sum identity; the exact
integer path is primary and the root-of-unity sums are recomputed only as
float oracles.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import DiagonalOperator
from .arith import (
    EvenFunction,
    divisors,
    factorize,
    mobius,
    ramanujan_sum,
    rf_transform,
    tau,
)
from .idempotents import IdempotentSystem

__all__ = ["OperatorFamily"]


class OperatorFamily:
    """S(n), C_j(n), and T_{r,j}(n) over one idempotent system."""

    def __init__(self, system: IdempotentSystem):
        self.system = system

    @property
    def dim(self) -> int:
        return self.system.dim

    def s_operator(self, n: int) -> DiagonalOperator:
        """Root-of-unity diagonal S(n) e_m = eps_n^m e_m; S(n)^n = e."""
        return self.s_power_sum(0, n, [1])

    def s_power_sum(self, j: int, n: int, ks) -> DiagonalOperator:
        """sum over k in ks of eps_n^{-jk} S(n)^k, built from one period.

        The entry at e_m sums exp(2 pi i r / n) over the residues
        r = k (m - j) mod n, so entries at indices congruent mod n are the
        same float.  The phase is a real float64 before it meets 1j, as in
        ``cmath.exp(2j * math.pi * r / n)``; dividing the complex
        2j * pi * r by n in numpy rounds differently.
        """
        ks = np.array(ks, dtype=np.int64).reshape(-1, 1) % n
        return DiagonalOperator.periodic(
            lambda r: np.exp(1j * (2 * np.pi * (ks * r % n) / n)).sum(axis=0),
            n, j, self.dim, self.system.offset,
        )

    def dft_projection(self, j: int, n: int) -> DiagonalOperator:
        """P_j(n) = (1/n) sum_{l < n} eps_n^{-lj} S(n)^l: the float oracle of
        the exact ``IdempotentSystem.projection``.
        """
        return self.s_power_sum(j, n, range(n)).scale(1 / n)

    def c_operator(self, j: int, n: int) -> DiagonalOperator:
        """C_j(n) on the exact path: entry at basis index m is c_n(m - j)."""
        return DiagonalOperator.periodic(
            lambda k: [ramanujan_sum(n, x) for x in k.tolist()],
            n, j, self.dim, self.system.offset,
        )

    def c_operator_constructions(self, j: int, n: int) -> dict:
        """Residuals of the three independent constructions of C_j(n)
        against the exact entrywise form, keyed by construction:

        root_of_unity  sum over gcd(k, n) = 1 of eps_n^{-jk} S^k(n) (float)
        moebius_sum    (mu * nu1 P_j)(n), exact
        prime_product  n/rad(n) * prod over p^a || n of (p P_j(p^a) - P_j(p^{a-1})),
                       the integer form of n * prod (P_j(p^a) - (1/p) P_j(p^{a-1}))
        """
        exact = self.c_operator(j, n)
        root_of_unity = self.s_power_sum(j, n, [k for k in range(1, n + 1)
                                                if math.gcd(k, n) == 1])

        moebius_sum = exact.zero()
        for d in divisors(n):
            moebius_sum = moebius_sum + self.system.projection(j, n // d).scale(
                mobius(d) * (n // d)
            )

        prime_product, radical = self.system.unit(), 1
        for p, a in factorize(n):
            factor = self.system.projection(j, p**a).scale(p) - self.system.projection(
                j, p ** (a - 1)
            )
            prime_product, radical = prime_product * factor, radical * p
        prime_product = prime_product.scale(n // radical)

        return {
            "root_of_unity": exact.distance(root_of_unity),
            "moebius_sum": exact.distance(moebius_sum),
            "prime_product": exact.distance(prime_product),
        }

    def t_operator(self, r: int, j: int, n: int) -> DiagonalOperator:
        """T_{r,j}(n): the 0/1 diagonal selecting basis indices m with
        gcd(m - j, n) = n/r; requires r | n.
        """
        if n % r != 0:
            raise ValueError(f"t_operator requires r | n, got r={r}, n={n}")
        target = n // r
        return DiagonalOperator.periodic(
            lambda k: np.gcd(k, n) == target, n, j, self.dim, self.system.offset
        )

    def t_top_identities(self, j: int, n: int) -> float:
        """Residual of T_{n,j}(n) = sum_{d|n} mu(d) P_j(d) = prod_{p|n} (e - P_j(p));
        0 when both forms agree exactly.
        """
        top = self.t_operator(n, j, n)
        moebius_sum = top.zero()
        for d in divisors(n):
            moebius_sum = moebius_sum + self.system.projection(j, d).scale(mobius(d))
        prime_product = self.system.unit()
        for p, _ in factorize(n):
            prime_product = prime_product * (self.system.unit() - self.system.projection(j, p))
        return max(top.distance(moebius_sum), top.distance(prime_product))

    def t_decomposition(self, j: int, n: int) -> float:
        """Residual of {T_{r,j}(n): r | n} being a family of tau(n)
        orthogonal idempotents summing to the identity; a member count
        other than tau(n) enters as their difference.
        """
        divs = divisors(n)
        ops = {r: self.t_operator(r, j, n) for r in divs}
        total = ops[divs[0]].zero()
        for r in divs:
            total = total + ops[r]
        residual = max(total.distance(self.system.unit()), abs(len(divs) - tau(n)))
        for r in divs:
            for rp in divs:
                expected = ops[r] if r == rp else ops[r].zero()
                residual = max(residual, (ops[r] * ops[rp]).distance(expected))
        return residual

    def c_t_transforms(self, j: int, n: int) -> float:
        """Residual of both transform directions between C_j and the T_{r,j}
        family: C_j(n) = sum_{r|n} c_n(n/r) T_{r,j}(n) and
        n T_{n,j}(n) = sum_{r|n} c_n(n/r) C_j(r), both in integers.
        """
        divs = divisors(n)
        forward = self.c_operator(j, n).zero()
        for r in divs:
            forward = forward + self.t_operator(r, j, n).scale(ramanujan_sum(n, n // r))
        backward = forward.zero()
        for r in divs:
            backward = backward + self.c_operator(j, r).scale(ramanujan_sum(n, n // r))
        return max(self.c_operator(j, n).distance(forward),
                   self.t_operator(n, j, n).scale(n).distance(backward))

    def even_function_identity(self, alpha: EvenFunction, j: int, n: int) -> float:
        """Residual of sum_{r|n} alpha(n/r) C_j(r) = sum_{r|n} R(alpha)(r) T_{r,j}(n),
        with R in the un-normalized (double-sum) form.
        """
        if alpha.modulus != n:
            raise ValueError(f"alpha must be even mod n={n}, got modulus {alpha.modulus}")
        coeffs = rf_transform(alpha).unnormalized
        lhs = self.c_operator(j, n).zero()
        rhs = lhs
        for r in divisors(n):
            lhs = lhs + self.c_operator(j, r).scale(alpha(n // r))
            rhs = rhs + self.t_operator(r, j, n).scale(coeffs[r])
        return lhs.distance(rhs)
