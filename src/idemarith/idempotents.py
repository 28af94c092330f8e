"""Arithmetic systems of idempotents realized as congruence-indicator
diagonals, with axiom verification, the CRT product law, and the weighted
convolution identities, Lehmer's lcm identity in operator form among them.

The projections are exact 0/1 integer diagonals; the axioms suite compares
them with their DFT form (1/n) sum_l eps_n^{-lj} S^l(n) on one period,
summed in F_q.

Both checks run on the stacks of ``projections``, in int8 where ``_small``
allows.  The axioms take one level n at a time, axiom I in one n x n
broadcast, III one stack per (n, r), 2 <= r <= 6 (r = 1 is II itself).
``product_law_residuals`` builds each level's stack once and compares every
P_k(n) P_l(m) of every pair in one gather with the row one CRT grid of all
pairs predicts (for n | m the divisor rule: P_l(m) when l = k (mod n),
else zero).  The weighted identities compare (N, dim) stacks of the P_j(n).
The tests keep the per-case and per-element forms and ``crt_solve`` as oracles.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .algebra import DiagonalOperator, _store
from .arith import number_table
from .convolution import _spread, _worst_first, lehmer_sides, scalar_lcm, scalar_unitary

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


def _small(stack: np.ndarray) -> np.ndarray:
    """stack in int8 when |entries| <= 10, so a product of two minus a third fits; else as is."""
    return stack.astype(np.int8) if np.abs(stack).max(initial=0) <= 10 else stack


def verify_axioms(system: IdempotentSystem, n_limit: int) -> tuple[float, tuple]:
    """Residuals of orthogonality (I), periodicity (II), refinement (III)
    by the factors r <= 6, and the completeness sum for all levels
    n <= n_limit, each level against its stack P_0..P_{n-1}(n), under
    ``_small``'s rule: (I) row i times the stack, (II) the stack of
    P_{j+n}(n), completeness as the column sums, (III) at r >= 2 one stack of
    P_{j+kn}(nr) over js n..(r+1)n - 1, summed over k <= r; r = 1 is II.

    Returns the worst residual, 0 on the exact provider, and its first
    place in the order I, II, completeness, III at each n, as
    (axiom, n, j, r).
    """
    if n_limit < 1:
        raise ValueError(f"verify_axioms needs n_limit >= 1, got {n_limit}")
    worst = where = None
    for n in range(1, n_limit + 1):
        projs = _small(system.projections(range(n), n))
        level = np.concatenate([  # axiom I: P_i P_j = P_i when j = i, else zero
            np.abs(projs[:, None] * (projs - np.eye(n, dtype=projs.dtype)[..., None]))
            .max(axis=2).ravel(),
            np.abs(system.projections(range(n, 2 * n), n) - projs).max(axis=1),
            [np.abs(projs.sum(axis=0) - 1).max()],
            *(np.abs(system.projections(range(n, (r + 1) * n), n * r).reshape(r, n, -1)
                     .sum(axis=0) - projs).max(axis=1) for r in range(2, 7))])
        at = int(np.argmax(level))
        if worst is None or level[at] > worst:
            worst, k = float(level[at]), at - n * n  # k: the place past axiom I's n x n
            where = (("I", n, divmod(at, n), None) if k < 0 else ("II", n, k, None) if k < n
                     else ("completeness", n, None, None) if k == n
                     else ("III", n, (k - n - 1) % n, (k - n - 1) // n + 2))
    return worst, where


def _crt_grids(n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The int64 (n[i], m[i]) grids of the level pairs i, flat, one after another:
    (k, l) holds the j < lcm with j = k (mod n[i]), j = l (mod m[i]), else the
    lcm; one scatter puts each j < lcm at (j mod n, j mod m) of every pair."""
    lcm = np.lcm(n, m)
    grids, (i, j, _) = np.repeat(lcm, n * m), _spread(lcm)
    grids[(np.cumsum(n * m) - n * m)[i] + j % n[i] * m[i] + j % m[i]] = j
    return grids


def product_law_residuals(system: IdempotentSystem, levels) -> dict:
    """{(n, m): (worst residual, its first place in (k, l) order as
    {"k": k, "l": l})} of the CRT law for each level pair in levels: P_k(n)
    P_l(m) against P_j(lcm(n, m)), j from ``_crt_grids``, or zero where there
    is none, over k < n and l < m; 0 when the law holds.

    Each level's stack is built once, a zero row after it, into one stack
    under ``_small``'s rule, and every case of every pair is one row of a
    gather from it, about 2^16 entries at a time.
    """
    if not levels:
        return {}
    sizes = sorted({size for n, m in levels for size in (n, m, math.lcm(n, m))})
    stack = np.concatenate([x for size in sizes for x in (
        _small(system.projections(range(size), size)), np.zeros((1, system.dim), np.int8))])
    first = np.zeros(sizes[-1] + 1, dtype=np.int64)  # each level's first row
    first[sizes] = np.cumsum([0, *sizes[:-1]]) + np.arange(len(sizes))
    n, m = np.array(levels, dtype=np.int64).T
    pair, km, starts = _spread(n * m)  # km = k m + l at each case (k, l) of each pair
    at = (first[np.stack((n, m, np.lcm(n, m)))[:, pair]]  # the rows of P_k(n), P_l(m), P_j
          + np.stack((km // m[pair], km % m[pair], _crt_grids(n, m))))
    step = max(1, 2**16 // system.dim)
    residuals = np.concatenate([np.abs(stack[x] * stack[y] - stack[z]).max(axis=1)
                                for x, y, z in np.split(at, range(step, len(pair), step), axis=1)])
    worst, at = _worst_first(residuals, km, starts)
    return {pair: (float(w), {"k": x // y, "l": x % y})
            for pair, w, x, y in zip(levels, worst.tolist(), at.tolist(), m.tolist())}


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

    Returns the worst of the five residuals, 0 on exact tables.  Each side is
    one (n_max, dim) stack, row n - 1 its value at n: alpha P_j is alpha times
    the stack of the P_j(n), the products are the scalar ones on those stacks,
    and Lehmer's identity is ``lehmer_sides`` on them, column by column.
    """
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must share n_max")
    numbers = number_table(len(alpha))
    proj = np.vstack([system.projections([j], n) for n in range(1, len(alpha) + 1)])
    a, b = (_store(table).values[:, None] * proj for table in (alpha, beta))
    sides = [  # (operator-valued product, scalar table whose multiples of P_j it equals)
        (scalar_lcm(a, b), scalar_lcm(alpha, beta)),
        (scalar_unitary(a, b), scalar_unitary(alpha, beta)),
        # M_2(p^a) = (a + 1)^2 - a^2 = 2 tau(p^a) - 1, and 2^omega(p^a) = 2
        (scalar_lcm(proj, proj), numbers.multiplicative(2 * numbers.tau[numbers.power] - 1, 1)[1:]),
        (scalar_unitary(proj, proj), numbers.multiplicative(np.full_like(numbers.tau, 2), 1)[1:]),
    ]
    return float(max(*(np.abs(ops - _store(table).values[:, None] * proj).max()
                       for ops, table in sides), *lehmer_sides(a, b)[2]))
