"""Truncated monomial-basis model of the analytic function spaces on the
window e_1..e_N (offset 1: f(0) = 0): the C_0/T_0 determinant and trace
identities, the map P(alpha) = sum_n alpha(n) P_0(n) with the diagonals
theta^r and IU* that the suites and ``export`` share, and the growth diagnostic.

The identity functions return numbers, and the identity suites judge
them.  ``trace_table`` and ``det_table`` answer every window N of a level
from one period of the c_n and coprimality rows, by prefix sums and
Python-int prefix products; ``trace_identities`` and ``det_c0`` are their
one-window calls.  Commonly quoted closed forms of the determinant and
traces that disagree with the oracle are evaluated by
``det_c0_unsigned_form`` and ``trace_erratum_forms`` for the errata
section, never asserted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import _INT64_MAX, DEFAULT_TOL, DiagonalOperator
from .arith import divisors, factorize, mobius, nu, omega, prime_power_product, prime_power_split
from .convolution import scalar_dirichlet, scalar_lcm, scalar_table
from .idempotents import IdempotentSystem

__all__ = [
    "GrowthDiagnostic",
    "TruncatedSpace",
    "det_c0",
    "det_table",
    "euler_power_residual",
    "growth_indicator",
    "iu_star",
    "iu_star_representation",
    "p_operator",
    "p_operator_identities",
    "theta_power",
    "trace_erratum_forms",
    "trace_identities",
    "trace_table",
]


TruncatedSpace = IdempotentSystem  # the window's former name, still used by bench/workloads.py
_SAMPLE_ENTRIES = tuple(range(-5, 6))  # random.choices indexes a tuple faster than a range


def _divisor_mobius(n: int) -> dict[int, int]:
    """{d: mu(d)} for the divisors d of n, ascending: one mobius call each."""
    return {d: mobius(d) for d in divisors(n)}


def _c_period(n: int, n_max: int, mu: dict[int, int]) -> np.ndarray:
    """int64 c_n(k) for k = 1..min(n, n_max): d mu(n/d) at every d-th k,
    d | n, with mu = ``_divisor_mobius(n)``."""
    row = np.zeros(min(n, n_max), dtype=np.int64)
    for d in mu:
        row[d - 1::d] += d * mu[n // d]
    return row


def _floor_sum(weights: dict, n_dims: np.ndarray) -> np.ndarray:
    """sum over d of weights[d] floor(N/d), for every N in n_dims."""
    return (n_dims[:, None] // np.array(list(weights))) @ np.array(list(weights.values()))


def det_table(n: int, n_dims: Sequence[int]) -> list[tuple[int, int]]:
    """det of C_0(n) restricted to e_1..e_N for every N in n_dims, two
    exact ways: the direct product prod_{k=1}^N c_n(k) and the closed form
    (-1)^(N omega(n)) prod_{p|n} (1 - p)^{floor(N/p)} for squarefree n
    (0 otherwise).

    The sign prefactor is required: each prime factor contributes
    (-1)^(N - floor(N/p)) (p - 1)^(floor(N/p)), so dropping it (as the
    bare product of (1 - p) powers does) flips the sign whenever N and
    omega(n) are both odd.  ``det_c0_unsigned_form`` evaluates the bare
    product for erratum reporting.
    """
    if n < 2 or min(n_dims, default=0) < 1:
        raise ValueError("det_table requires n >= 2 and N >= 1")
    mu = _divisor_mobius(n)
    row = _c_period(n, max(n_dims), mu).tolist()  # Python ints: the products leave int64
    prefix, start = {0: 1}, 0
    for stop in sorted({big_n % n for big_n in n_dims} | {len(row)}):
        prefix[stop] = prefix[start] * math.prod(row[start:stop])
        start = stop
    return [(prefix[len(row)] ** (big_n // n) * prefix[big_n % n],
             (-1) ** (big_n * omega(n)) * det_c0_unsigned_form(n, big_n) if mu[n] else 0)
            for big_n in n_dims]


def det_c0(n: int, n_dim: int) -> tuple[int, int]:
    """``det_table`` at the one window e_1..e_N: (direct, closed)."""
    return det_table(n, [n_dim])[0]


def det_c0_unsigned_form(n: int, n_dim: int) -> int:
    """The bare product prod_{p|n} (1 - p)^(floor(N/p)); agrees with the
    determinant only when N is even or omega(n) is even.
    """
    result = 1
    for p, _ in factorize(n):
        result *= (1 - p) ** (n_dim // p)
    return result


def trace_table(n: int, n_dims: Sequence[int]) -> np.ndarray:
    """Both sides of both trace identities on e_1..e_N for every N in
    n_dims, one int64 row (trace C_0(n), its closed form, trace T_0(n),
    its closed form) per N:
    trace C_0(n) = sum_{d|n} d mu(n/d) floor(N/d) and
    trace T_0(n) = #{m <= N : gcd(m, n) = 1} = sum_{r|n} mu(r) floor(N/r).
    """
    dims = np.array(n_dims, dtype=np.int64)
    if n < 1 or dims.size == 0 or dims.min() < 1:
        raise ValueError("trace_table requires n >= 1 and N >= 1")
    mu = _divisor_mobius(n)
    c_row = _c_period(n, int(dims.max()), mu)
    sums = np.zeros((2, c_row.size + 1), dtype=np.int64)
    sums[:, 1:] = np.cumsum([c_row, np.gcd(np.arange(1, c_row.size + 1), n) == 1], axis=1)
    whole, rest = np.divmod(dims, n)
    trace_c0, trace_t0 = sums[:, -1:] * whole + sums[:, rest]
    return np.column_stack((trace_c0, _floor_sum({d: d * mu[n // d] for d in mu}, dims),
                            trace_t0, _floor_sum(mu, dims)))


def trace_identities(n: int, n_dim: int) -> dict:
    """``trace_table`` at the one window e_1..e_N, as a report with a verdict."""
    trace_c0, c0_closed, trace_t0, t0_closed = trace_table(n, [n_dim])[0].tolist()
    return {
        "n": n,
        "dim": n_dim,
        "trace_c0": trace_c0,
        "trace_c0_closed": c0_closed,
        "trace_t0": trace_t0,
        "trace_t0_closed": t0_closed,
        "pass": trace_c0 == c0_closed and trace_t0 == t0_closed,
    }


def trace_erratum_forms(n: int, n_dim: int) -> dict:
    """Commonly quoted closed forms of the traces on e_1..e_N that disagree
    with ``trace_identities``: the prime-power sum
    sum_{p^a||n} (p^a floor(N/p^a) - p^(a-1) floor(N/p^(a-1))) for
    trace C_0(n), and for trace T_0(n) the coprime floor sum
    sum_{gcd(k,n)=1, k<=n} floor((N-k)/n) and N omega(n) - sum_{p|n} floor(N/p).
    """
    prime_power_sum = sum(
        p**a * (n_dim // p**a) - p ** (a - 1) * (n_dim // p ** (a - 1))
        for p, a in factorize(n)
    )
    coprime_floor_sum = sum(
        (n_dim - k) // n for k in range(1, n + 1) if math.gcd(k, n) == 1
    )
    omega_expression = n_dim * omega(n) - sum(n_dim // p for p, _ in factorize(n))
    return {
        "prime_power_sum": prime_power_sum,
        "coprime_floor_sum": coprime_floor_sum,
        "omega_expression": omega_expression,
    }


def p_operator(alpha: Sequence) -> DiagonalOperator:
    """P(alpha) = sum_{n<=N} alpha(n) P_0(n) on e_1..e_N, N = len(alpha): there
    P_0(n) indicates the multiples of n, so the entry at e_m is (nu0 * alpha)(m).
    At e_0 every P_0(n) is 1 and the sum would diverge, so offset 0 has no P.
    """
    return DiagonalOperator(scalar_dirichlet(np.ones(len(alpha), dtype=np.int64), alpha), 1)


def theta_power(r: int, n_dim: int) -> DiagonalOperator:
    """theta^r on e_1..e_N: the Euler operator's power e_m -> m^r e_m, exact,
    for r >= 0.  int64 while N^r fits; Python ints past that.
    """
    if r < 0:
        raise ValueError(f"theta^r requires r >= 0, got {r}")
    if n_dim**r <= _INT64_MAX:
        return DiagonalOperator(np.arange(1, n_dim + 1, dtype=np.int64) ** r, 1)
    return DiagonalOperator([m**r for m in range(1, n_dim + 1)], 1)


def iu_star(n_dim: int) -> DiagonalOperator:
    """IU* on e_1..e_N: e_1 -> 0 (the backward shift kills it), e_m -> e_m / m, exact."""
    return DiagonalOperator([0] + [Fraction(1, m) for m in range(2, n_dim + 1)], 1)


def _jordan_table(r: int, n_max: int) -> np.ndarray:
    """[J_r(1), ..., J_r(n_max)] from the largest-prime-power split: J_r is
    multiplicative with J_r(p^a) = p^(ra) - p^(r(a-1)).  An int64 array
    while n_max^r fits, since J_r(n) <= n^r; an object array of Python
    ints past that.
    """
    if r < 1:
        raise ValueError(f"J_r requires r >= 1, got {r}")
    prime, power, _ = prime_power_split(n_max)
    if n_max**r > _INT64_MAX:
        prime, power = prime.astype(object), power.astype(object)
    return prime_power_product(power**r - (power // prime) ** r, 1)[1:]


def euler_power_residual(r: int, n_dim: int) -> float:
    """|P(J_r) - theta^r| on e_1..e_N; 0, since sum_{d|m} J_r(d) = m^r.
    The J_r table comes from one sieve of 1..N (``_jordan_table``);
    ``arith.jordan_totient`` serves single values and is its test oracle.
    """
    return p_operator(_jordan_table(r, n_dim)).distance(theta_power(r, n_dim))


def p_operator_identities(space: IdempotentSystem, n_max: int | None = None,
                          pairs: int = 20, seed: int = 7,
                          tol: float = DEFAULT_TOL) -> dict:
    """The algebra-map property P(alpha [] beta) = P(alpha) P(beta) on
    random integer tables, and the Euler-power identity P(J_r) = theta^r
    for r <= 3, on e_1..e_{n_max} (the whole window when n_max is None).
    The tables are drawn from ``random.Random(seed)``, entries in -5..5.
    """
    if pairs < 1 or (n_max is not None and n_max < 1):
        raise ValueError(f"p_operator_identities needs pairs >= 1 and n_max >= 1, "
                         f"got pairs={pairs}, n_max={n_max}")
    n_max = min(space.dim if n_max is None else n_max, space.dim)
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(pairs):
        a = rng.choices(_SAMPLE_ENTRIES, k=n_max)
        b = rng.choices(_SAMPLE_ENTRIES, k=n_max)
        lhs = p_operator(scalar_lcm(a, b))
        rhs = p_operator(a) * p_operator(b)
        worst = max(worst, lhs.distance(rhs))
    jordan_residual = max(euler_power_residual(r, n_max) for r in range(1, 4))
    return {
        "identity": "diagonal map is an algebra map for the lcm product",
        "n_max": n_max,
        "pairs": pairs,
        "algebra_map_max_residual": worst,
        "euler_power_max_residual": jordan_residual,
        "pass": worst <= tol and jordan_residual <= tol,
    }


def iu_star_representation(n_dim: int) -> dict:
    """Whether each of P(mu * nu_{-1}) (exact 1/m) and P(mu * nu_1) (exact m,
    the Euler diagonal) equals ``iu_star`` on e_2..e_N, away from the edge
    e_1 that the backward shift kills; keyed by candidate.
    """
    if n_dim < 2:
        raise ValueError("iu_star_representation requires dim >= 2: e_1 alone compares nothing")
    target = iu_star(n_dim).entries[1:]
    mu_t = scalar_table(mobius, n_dim)
    return {
        name: p_operator(scalar_dirichlet(mu_t, scalar_table(lambda n: nu(k, n), n_dim))
                         ).entries[1:] == target
        for name, k in (("mu*nu_minus1", -1), ("mu*nu_1", 1))
    }


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Finite-prefix growth data for a diagonal map candidate: the m-th
    roots |(nu0 * alpha)(m)|^{1/m}, the max over the upper half of the
    prefix, and a heuristic classification.  This is a diagnostic, not a
    limsup.
    """

    prefix: int
    roots: tuple[float, ...]
    indicator: float
    trend_decreasing: bool
    classification: str


def growth_indicator(alpha: Sequence) -> GrowthDiagnostic:
    """Growth diagnostic for the table alpha over m = 1..len(alpha).

    Classified plausibly-continuous when the upper-half max is <= 1 + 1e-6,
    or when the upper-half root sequence is non-increasing and its log
    decays the way m-th roots of a subexponential sequence do (log of the
    last root at most 3/4 of the log at the half-way point; a sequence
    with a genuine limit above 1 keeps the two logs equal).
    """
    prefix = len(alpha)
    if prefix < 4:
        raise ValueError("growth_indicator requires a table of length >= 4")
    summed = p_operator(alpha).entries
    roots = tuple(float(abs(summed[m - 1])) ** (1.0 / m) for m in range(1, prefix + 1))
    half = -(-prefix // 2)
    upper = roots[half - 1 :]
    indicator = max(upper)
    trend = all(a >= b for a, b in zip(upper, upper[1:]))
    if indicator <= 1 + 1e-6:
        plausible = True
    elif trend and roots[-1] <= 1 + 1e-6:
        plausible = True
    elif trend and roots[half - 1] > 1 and roots[-1] > 0:
        plausible = math.log(roots[-1]) <= 0.75 * math.log(roots[half - 1])
    else:
        plausible = False
    return GrowthDiagnostic(
        prefix=prefix,
        roots=roots,
        indicator=indicator,
        trend_decreasing=trend,
        classification="plausibly-continuous" if plausible else "not-continuous",
    )
