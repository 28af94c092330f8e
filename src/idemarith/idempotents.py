"""Arithmetic systems of idempotents realized as congruence-indicator
diagonals, with axiom verification, the CRT product law, and the weighted
convolution identities, Lehmer's lcm identity in operator form among them.

The projections are exact 0/1 integer diagonals; the axioms suite compares
them with their DFT form (1/n) sum_l eps_n^{-lj} S^l(n) on one period,
summed in F_q.

Both checks run on the stacks of ``projections``.  The axioms take one
level at a time, no temporary larger than n rows.  ``product_law_residuals``
builds each level's stack once for all its level pairs, and per pair
compares all P_k(n) P_l(m) in one broadcast with the rows its CRT grid
predicts (for n | m the divisor rule: P_l(m) when l = k (mod n), else
zero).  The tests keep the per-case form and ``crt_solve`` as oracles.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .algebra import DiagonalOperator
from .arith import lcm_tuple_count, omega
from .convolution import (AlgFunction, dirichlet_convolve, lcm_convolve, scalar_lcm,
                          scalar_unitary, unitary_convolve)

__all__ = [
    "IdempotentSystem",
    "product_law_residuals",
    "verify_axioms",
    "weighted_product_identities",
]


class IdempotentSystem:
    """Provider of the projections P_j(n) on a truncated monomial basis:
    P_j(n) is the 0/1 indicator of k = j (mod n) over basis exponents k.
    """

    def __init__(self, dim: int, offset: int = 0):
        if dim < 1:
            raise ValueError("dim must be positive")
        if offset not in (0, 1):
            raise ValueError("offset must be 0 or 1")
        self.dim = dim
        self.offset = offset

    def unit(self) -> DiagonalOperator:
        return DiagonalOperator.periodic(np.ones_like, 1, 0, self.dim, self.offset)

    def projection(self, j: int, n: int) -> DiagonalOperator:
        """P_j(n); j is any integer, reduced mod n."""
        if n < 1:
            raise ValueError("level n must be positive")
        # entry at e_m is 1 iff m - j = 0 (mod n)
        return DiagonalOperator.periodic(lambda k: k == 0, n, j, self.dim, self.offset)

    def projections(self, js, n: int) -> np.ndarray:
        """The read-only int64 stack (len(js), dim) whose row i is the
        congruence indicator P_{js[i]}(n): 1 at e_m iff m - js[i] = 0 (mod n).
        """
        if n < 1:
            raise ValueError("level n must be positive")
        residues = np.array([j % n for j in js], dtype=np.int64).reshape(-1, 1)
        stack = (np.arange(self.offset, self.offset + self.dim) % n == residues).astype(np.int64)
        stack.flags.writeable = False
        return stack


def verify_axioms(system: IdempotentSystem, n_limit: int) -> tuple[float, tuple]:
    """Residuals of orthogonality (I), periodicity (II), refinement (III)
    by the factors r <= 6, and the completeness sum for all levels
    n <= n_limit, each level against its stack P_0..P_{n-1}(n): (I) row i
    times the stack, (II) the stack of P_{j+n}(n), completeness as the
    column sums, (III) the sum over k <= r of the stacks of P_{j+kn}(nr).

    Returns the worst residual, 0 on the exact provider, and its first
    place in the order I, II, completeness, III at each n, as
    (axiom, n, j, r).
    """
    if n_limit < 1:
        raise ValueError(f"verify_axioms needs n_limit >= 1, got {n_limit}")
    worst = where = None
    for n in range(1, n_limit + 1):
        projs = system.projections(range(n), n)
        residuals, places = [], []
        for i in range(n):
            products = projs[i] * projs
            products[i] -= projs[i]  # P_i P_j = P_i when j = i, else zero
            residuals.append(np.abs(products).max(axis=1))
            places += [("I", n, (i, j), None) for j in range(n)]
        residuals.append(np.abs(system.projections(range(n, 2 * n), n) - projs).max(axis=1))
        places += [("II", n, j, None) for j in range(n)]
        residuals.append(np.abs(projs.sum(axis=0, keepdims=True) - 1).max(axis=1))
        places.append(("completeness", n, None, None))
        for r in range(1, 7):
            refined = sum(system.projections(range(k * n, k * n + n), n * r)
                          for k in range(1, r + 1))
            residuals.append(np.abs(refined - projs).max(axis=1))
            places += [("III", n, j, r) for j in range(n)]
        level = np.concatenate(residuals)
        at = int(np.argmax(level))
        if worst is None or level[at] > worst:
            worst, where = float(level[at]), places[at]
    return worst, where


def _crt_grid(n: int, m: int) -> np.ndarray:
    """The int64 (n, m) array whose (k, l) entry is the j < lcm(n, m) with
    j = k (mod n) and j = l (mod m), or lcm(n, m) where there is none: each
    j < lcm(n, m) is the one solution at (j mod n, j mod m)."""
    lcm = math.lcm(n, m)
    grid, j = np.full((n, m), lcm), np.arange(lcm)
    grid[j % n, j % m] = j
    return grid


def product_law_residuals(system: IdempotentSystem, levels) -> dict:
    """{(n, m): (worst residual, its first place in (k, l) order as
    {"k": k, "l": l})} of the CRT law for each level pair in levels: P_k(n)
    P_l(m) against P_j(lcm(n, m)), j from ``_crt_grid``, or zero where there
    is none, over k < n and l < m; 0 when the law holds.

    Each level's stack is built once, with a zero row last, in int8 when its
    entries lie within +-10, so that a product of two minus a third stays
    within +-110.
    """
    zero = np.zeros((1, system.dim), dtype=np.int64)
    stacks = {}
    for size in {size for n, m in levels for size in (n, m, math.lcm(n, m))}:
        stack = np.vstack((system.projections(range(size), size), zero))
        stacks[size] = stack.astype(np.int8) if np.abs(stack).max() <= 10 else stack
    worst = {}
    for n, m in levels:
        residuals = np.abs(stacks[n][:-1, None] * stacks[m][:-1]
                           - stacks[math.lcm(n, m)][_crt_grid(n, m)]).max(axis=2)
        k, l = divmod(int(np.argmax(residuals)), m)
        worst[n, m] = float(residuals[k, l]), {"k": k, "l": l}
    return worst


def weighted_product_identities(
    alpha: Sequence,
    beta: Sequence,
    system: IdempotentSystem,
    j: int,
) -> float:
    """Residual of (alpha P_j [] beta P_j)(n) = (alpha [] beta)(n) P_j(n) and
    the unitary analogue for n up to the length of the tables, the
    particular cases with alpha = beta = 1: M_2(n) P_j(n) and
    2^omega(n) P_j(n), and Lehmer's identity in operator form:
    (nu0 * alpha P_j)(m) (nu0 * beta P_j)(m) = (nu0 * (alpha P_j [] beta P_j))(m).

    Returns the worst of the five residuals, 0 on exact tables.
    """
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must share n_max")
    levels = range(1, len(alpha) + 1)
    proj = [system.projection(j, n) for n in levels]
    f_a = AlgFunction([p.scale(a) for p, a in zip(proj, alpha)])
    f_b = AlgFunction([p.scale(b) for p, b in zip(proj, beta)])
    ones = AlgFunction(proj)
    box = lcm_convolve(f_a, f_b)
    sides = [  # (operator-valued product, scalar table whose multiples of P_j it equals)
        (box, scalar_lcm(alpha, beta)),
        (unitary_convolve(f_a, f_b), scalar_unitary(alpha, beta)),
        (lcm_convolve(ones, ones), [lcm_tuple_count(2, n) for n in levels]),
        (unitary_convolve(ones, ones), [2 ** omega(n) for n in levels]),
    ]
    nu0 = AlgFunction([system.unit()] * len(alpha))
    sum_a, sum_b, sum_box = (dirichlet_convolve(nu0, f) for f in (f_a, f_b, box))
    return max(max(ops(n).distance(proj[n - 1].scale(table[n - 1]))
                   for ops, table in sides for n in levels),
               max((sum_a(m) * sum_b(m)).distance(sum_box(m)) for m in levels))
