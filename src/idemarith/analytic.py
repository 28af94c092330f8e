"""Truncated monomial-basis model of the analytic function spaces on the
window e_1..e_N (offset 1: f(0) = 0): the C_0/T_0 determinant and trace
identities, the map P(alpha) = sum_n alpha(n) P_0(n) with the diagonals
theta^r and IU* that the suites and ``export`` share.

The identity functions return numbers, and the identity suites judge
them.  For d | n, floor((N + n)/d) = floor(N/d) + n/d, so both sides of
each trace identity satisfy T(N + n) = T(N) + T(n), and both sides of the
determinant identity D(N + n) = D(N) D(n): the windows N = 1..n decide
every N.  ``trace_residuals`` and ``det_residuals`` decide them for every
level n <= n_max in one pass over those windows of a
``ramanujan_ops.LevelTable``, each k <= n reading the value of its class
gcd(k, n), by running sums and Python-int running products; the primes
and mu of each level come off ``arith.number_table``.
``trace_identities`` and ``det_c0`` answer one window (n, N) from whole
periods of the c_n row and of the coprimality row (the multiples of each
prime of n struck out) and its 2^omega(n) squarefree divisors, one
``factorize(n)``.  Commonly quoted closed forms of the determinant and
traces that disagree with the oracle are evaluated by
``det_c0_unsigned_form`` and ``trace_erratum_forms`` for the errata
section, never asserted.  The IU* candidates are decided in int64, against
theta IU* = 1, the algebra-map pairs in one ``lehmer_sides`` call, and
P(J_r) = theta^r, r <= 3, with P(mu) = diag(eps) in one stacked pass, every
table of mu and J_r read off the number table.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .algebra import _INT64_MAX, DEFAULT_TOL, DiagonalOperator
from .arith import factorize, number_table, omega
from .convolution import _spread, _worst_first, lehmer_sides, scalar_dirichlet
from .idempotents import IdempotentSystem
from .ramanujan_ops import LevelTable

__all__ = ["TruncatedSpace", "det_c0", "det_residuals", "euler_residuals", "iu_star",
           "iu_star_representation", "p_operator", "p_operator_identities", "theta_power",
           "trace_erratum_forms", "trace_identities", "trace_residuals"]


TruncatedSpace = IdempotentSystem  # the window's former name, still used by bench/workloads.py
SAMPLE_ENTRIES = tuple(range(-5, 6))  # the entries of every random table (a tuple: fast to index)


def _squarefree(primes: list[int]) -> list[tuple[int, int]]:
    """(e, mu(e)) for the 2^omega(n) squarefree divisors e of n, the only ones
    with mu(e) != 0, from the primes of n: their products, the last all of them."""
    terms = [(1, 1)]
    for p in primes:
        terms += [(e * p, -mu) for e, mu in terms]
    return terms


def _c_period(n: int, n_max: int, terms: Iterable[tuple[int, int]]) -> np.ndarray:
    """int64 c_n(k) for k = 1..min(n, n_max): d mu(n/d) at every d-th k,
    d = n/e for each (e, mu(e)) in terms, as ``_squarefree`` lists them."""
    row = np.zeros(min(n, n_max), dtype=np.int64)
    for e, mu in terms:
        row[n // e - 1::n // e] += n // e * mu
    return row


def det_c0(n: int, n_dim: int) -> tuple[int, int]:
    """det of C_0(n) restricted to e_1..e_N, two exact ways: (direct, closed),
    the product prod_{k=1}^N c_n(k) over whole periods of the c_n row, and
    (-1)^(N omega(n)) prod_{p|n} (1 - p)^{floor(N/p)} for squarefree n, else 0.
    The sign is required: each prime contributes (-1)^(N - floor(N/p))
    (p - 1)^(floor(N/p)), so the bare product (``det_c0_unsigned_form``, for
    the errata) flips sign whenever N and omega(n) are both odd."""
    if n < 2 or n_dim < 1:
        raise ValueError("det_c0 requires n >= 2 and N >= 1")
    primes = [p for p, _ in factorize(n)]
    row = _c_period(n, n_dim, _squarefree(primes)).tolist()  # Python ints: products leave int64
    head = math.prod(row[:n_dim % n])
    return ((head * math.prod(row[n_dim % n:])) ** (n_dim // n) * head,
            math.prod((-1) ** n_dim * (1 - p) ** (n_dim // p) for p in primes)
            if math.prod(primes) == n else 0)


def det_residuals(levels: LevelTable, n_max: int) -> list[tuple[int, int]]:
    """Per level n <= n_max, the worst |direct - closed| of ``det_c0`` over the
    windows N = 1..n, and its first N: the direct side is the running product of
    c_n(gcd(k, n)), k <= N, in Python ints; the closed side takes the primes of n
    off the number table, its sign mu(n)^N = (-1)^(N omega(n)), or 0 unless mu(n)."""
    n, k, e = levels.classes(n_max)
    worst = [(0, 1)] * n_max
    numbers = number_table(n_max)
    primes = [[], []]  # the primes of each m <= n_max, ascending
    for m in range(2, n_max + 1):
        primes.append(primes[numbers.rest[m]] + [int(numbers.prime[m])])
    mu_n = numbers.mu[n].tolist()
    for level, big_n, value, mu in zip(n.tolist(), k.tolist(), levels.c[e].tolist(), mu_n):
        direct = value if big_n == 1 else direct * value
        closed = mu**big_n * math.prod((1 - p) ** (big_n // p) for p in primes[level])
        if abs(direct - closed) > worst[level - 1][0]:
            worst[level - 1] = abs(direct - closed), big_n
    return worst


def det_c0_unsigned_form(n: int, n_dim: int) -> int:
    """The bare product prod_{p|n} (1 - p)^(floor(N/p)); agrees with the
    determinant only when N is even or omega(n) is even.
    """
    result = 1
    for p, _ in factorize(n):
        result *= (1 - p) ** (n_dim // p)
    return result


def trace_identities(n: int, n_dim: int) -> dict:
    """Both sides of both trace identities on e_1..e_N, as a report with a
    verdict: trace C_0(n) = sum_{d|n} d mu(n/d) floor(N/d) and
    trace T_0(n) = #{m <= N : gcd(m, n) = 1} = sum_{r|n} mu(r) floor(N/r),
    the traces over whole periods of the c_n row and the coprimality row."""
    if n < 1 or n_dim < 1:
        raise ValueError("trace_identities requires n >= 1 and N >= 1")
    primes = [p for p, _ in factorize(n)]
    terms = _squarefree(primes)
    c_row, coprime = _c_period(n, n_dim, terms), np.ones(min(n, n_dim), dtype=np.int64)
    for p in primes:
        coprime[p - 1::p] = 0
    whole, rest = divmod(n_dim, n)
    trace_c0, trace_t0 = (whole * int(x.sum()) + int(x[:rest].sum()) for x in (c_row, coprime))
    c0_closed = sum(n // e * mu * (n_dim // (n // e)) for e, mu in terms)
    t0_closed = sum(mu * (n_dim // e) for e, mu in terms)
    return {"n": n, "dim": n_dim, "trace_c0": trace_c0, "trace_c0_closed": c0_closed,
            "trace_t0": trace_t0, "trace_t0_closed": t0_closed,
            "pass": trace_c0 == c0_closed and trace_t0 == t0_closed}


def _floor_sums(levels: LevelTable, n_max: int) -> np.ndarray:
    """The closed sides of both trace identities at each window N = 1..n of each
    level n <= n_max, as ``levels.classes`` lays them out: sum_{d|n} d mu(n/d)
    floor(N/d) and sum_{d|n} mu(d) floor(N/d), as running sums of steps at N = m d."""
    top = levels.starts[n_max]
    entry, m, _ = _spread(levels.n[:top] // levels.g[:top])  # each d | n, each m d <= n
    level, d = levels.n[entry], levels.g[entry]
    at = (level - 1) * level // 2 + (m + 1) * d - 1  # (n, N = (m + 1) d)
    steps = np.zeros((2, n_max * (n_max + 1) // 2), dtype=np.int64)
    np.add.at(steps[0], at, d * levels.mu[entry])
    np.add.at(steps[1], at, levels.mu[levels.starts[level] - 1 - entry + levels.starts[level - 1]])
    return steps


def trace_residuals(levels: LevelTable, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per level n <= n_max, the worst residual of both trace identities of
    ``trace_identities`` over the windows N = 1..n, and its first N: the
    direct sides are running sums over k <= N of the class value
    c_n(gcd(k, n)) and of [gcd(k, n) = 1], the closed sides ``_floor_sums``."""
    n, k, e = levels.classes(n_max)
    steps = np.vstack((levels.c[e], levels.g[e] == 1, _floor_sums(levels, n_max)))
    total = np.cumsum(steps, axis=1)
    running = total - (total - steps)[:, (n - 1) * n // 2]  # each level from its N = 1
    residual = np.maximum(abs(running[0] - running[2]), abs(running[1] - running[3]))
    return _worst_first(residual, k, np.arange(n_max) * np.arange(1, n_max + 1) // 2)


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
    for r >= 0.  int64 while N^r fits; Python ints past that."""
    if r < 0:
        raise ValueError(f"theta^r requires r >= 0, got {r}")
    m = np.arange(1, n_dim + 1, dtype=np.int64 if n_dim**r <= _INT64_MAX else object)
    return DiagonalOperator(m**r, 1)


def iu_star(n_dim: int) -> DiagonalOperator:
    """IU* on e_1..e_N: e_1 -> 0 (the backward shift kills it), e_m -> e_m / m, exact."""
    return DiagonalOperator([0] + [Fraction(1, m) for m in range(2, n_dim + 1)], 1)


def euler_residuals(n_dim: int) -> list:
    """[|P(J_r) - theta^r| for r = 1, 2, 3, then |P(mu) - diag(eps)|] on e_1..e_N,
    all 0 (sum_{d|m} J_r(d) = m^r, sum_{d|m} mu(d) = eps(m)): one Dirichlet pass of
    nu0 with the four tables off the number table, J_r(p^a) = p^(ra) - p^(r(a-1)), as
    the columns of a stack: int64 while N^3 fits, as J_r(m) <= m^r, else Python ints."""
    numbers = number_table(n_dim)
    dtype = np.int64 if n_dim**3 <= _INT64_MAX else object
    prime, power = numbers.prime.astype(dtype), numbers.power.astype(dtype)
    tables = np.column_stack([*(numbers.multiplicative(power**r - (power // prime) ** r, 1)[1:]
                                for r in (1, 2, 3)), numbers.mu[1:]])
    m = np.arange(1, n_dim + 1, dtype=dtype)
    sums = scalar_dirichlet(np.ones(tables.shape, dtype=np.int64), tables)
    return np.abs(sums - np.column_stack((m, m**2, m**3, m == 1))).max(axis=0).tolist()


def p_operator_identities(space: IdempotentSystem, n_max: int | None = None,
                          pairs: int = 20, seed: int = 7,
                          tol: float = DEFAULT_TOL) -> dict:
    """The algebra-map property P(alpha [] beta) = P(alpha) P(beta) on
    random integer tables, and P(J_r) = theta^r for r <= 3 (``euler_residuals``),
    on e_1..e_{n_max} (the whole window when n_max is None).  The tables are
    drawn from ``random.Random(seed)``, entries in -5..5, alpha then beta for
    each pair; at e_m the property is Lehmer's identity."""
    if pairs < 1 or (n_max is not None and n_max < 1):
        raise ValueError(f"p_operator_identities needs pairs >= 1 and n_max >= 1, "
                         f"got pairs={pairs}, n_max={n_max}")
    n_max = min(space.dim if n_max is None else n_max, space.dim)
    rng = random.Random(seed)
    tables = np.array([rng.choices(SAMPLE_ENTRIES, k=n_max) for _ in range(2 * pairs)]).T
    worst = float(np.max(lehmer_sides(tables[:, 0::2], tables[:, 1::2])[2]))  # keeps a NaN
    jordan_residual = float(max(euler_residuals(n_max)[:3]))
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
    e_1 that the backward shift kills; keyed by candidate.  Each is decided in
    int64: m P(mu * nu_k)(m) = (id * ((mu id) * nu_{k+1}))(m), as multiplying by
    id distributes over the Dirichlet product, against theta IU* = 1.
    """
    if n_dim < 2:
        raise ValueError("iu_star_representation requires dim >= 2: e_1 alone compares nothing")
    target = (theta_power(1, n_dim) * iu_star(n_dim)).entries[1:]
    ids = np.arange(1, n_dim + 1, dtype=np.int64)
    mu_id = ids * number_table(n_dim).mu[1:]
    scaled = scalar_dirichlet(np.column_stack((ids, ids)), scalar_dirichlet(
        np.column_stack((mu_id, mu_id)), np.column_stack((ids**0, ids**2))))
    return {name: tuple(scaled[1:, k].tolist()) == target
            for k, name in enumerate(("mu*nu_minus1", "mu*nu_1"))}
