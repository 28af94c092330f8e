"""Reference forms the tests compare the package against, kept out of the
package because nothing in it calls them:

- ``element_to_json`` and ``element_from_json`` parse the text of
  ``algebra.element_text`` back into an element, rejecting malformed input;
- ``crt_solve`` is the CRT by extended Euclid, one (k, l) at a time, the
  oracle of ``idempotents._crt_grid``;
- ``product_law`` is the per-case CRT law, P_k(n) P_l(m) built as
  diagonals, the oracle of ``idempotents.product_law_residuals``;
- ``convolve_elements`` is the per-element path of the three products,
  the oracle of their stack path on int64 diagonals;
- ``is_multiplicative_loop`` is the definition of multiplicativity, one
  coprime pair and factor order at a time, the oracle of
  ``convolution.is_multiplicative``;
- ``ramanujan_orthogonality`` is sum_{r|n} c_n(n/r) c_r(l) at one l, the
  oracle of ``orthogonality_residual``, which sums per class;
- ``root_of_unity_residual``, ``c_operator_constructions``,
  ``t_top_identities``, ``t_decomposition``, ``c_t_transforms`` and
  ``orthogonality_residual`` decide one level's identities on the tau(n) x
  tau(n) class tables of ``_divisor_tables(n)``: the per-level
  oracles of the level passes of ``ramanujan_ops``.  They read the tables,
  ``ramanujan_sum`` and ``factorize`` through that module, so a patched one
  reaches both forms;
- ``trace_table`` and ``det_table`` answer chosen windows N of one level
  from prefix sums and Python-int prefix products of one period, the
  per-level oracles of ``analytic.trace_residuals`` and ``det_residuals``
  and of the one-window ``trace_identities`` and ``det_c0``;
- ``dirichlet_inverse_objects`` is ``convolution.dirichlet_inverse`` with
  its whole recursion on object arrays, the oracle of the int64 ranges;
- ``shift_operators`` builds the dense shift, backward-shift, integration
  and Euler matrices, the oracle of the dense theta and IU* exports;
- ``iu_star_fractions`` builds P(mu * nu_k) from tables of Fractions and
  compares it with ``iu_star``, the oracle of
  ``analytic.iu_star_representation``, which decides it in int64;
- ``s_power_sum`` is sum over k in ks of eps_n^{-jk} S(n)^k from powers of
  ``s_operator(n)`` in complex floats, the oracle of the exact F_q sums of
  ``ramanujan_ops.root_sum_residual``;
- ``rf_transform_per_k`` and ``rf_residual_per_k`` sum over k = 1..d and
  compare at every n = 1..d, the oracles of ``arith.rf_transform`` and
  ``rf_residual``, which take one k or n per class gcd(k, d);
- ``weighted_identities_elements`` builds alpha P_j(n) as diagonals and
  compares each side at each n by ``distance``, the oracle of the stack form
  ``idempotents.weighted_product_identities``.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from idemarith import analytic, ramanujan_ops
from idemarith.algebra import (_INT64_MAX, DEFAULT_TOL, DenseMatrix, DiagonalOperator, Scalar,
                               _store, element_text, invert, is_idempotent)
from idemarith.analytic import det_c0_unsigned_form, iu_star, p_operator
from idemarith.arith import (RFCoefficients, divisors, factorize, lcm_tuple_count, mobius, nu,
                             omega, ramanujan_sum, rf_unnormalized, tau, totient)
from idemarith.convolution import (AlgFunction, InverseCheckError, _blocks, _index, _product,
                                   dirichlet_convolve, lcm_convolve, scalar_dirichlet,
                                   scalar_lcm, scalar_table, scalar_unitary, unitary_convolve)
from idemarith.idempotents import IdempotentSystem
from idemarith.ramanujan_ops import root_sum_residual


def element_to_json(x) -> dict:
    """The JSON object of ``element_text(x)``."""
    return json.loads(element_text(x))


def _json_int(data: dict, key: str, low: int, high: float = float("inf")) -> int:
    value = data.get(key)
    if type(value) is not int or not low <= value <= high:  # type() rejects bool and float
        raise ValueError(f"{key} must be an integer in [{low}, {high}], got {value!r}")
    return value


def _json_entries(data: dict, count: int) -> list[complex]:
    entries = data.get("entries")
    if not isinstance(entries, list) or len(entries) != count:
        raise ValueError(f"entries must be a list of {count} [re, im] pairs")
    for pair in entries:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(type(v) in (int, float) for v in pair)):
            raise ValueError(f"entry {pair!r} is not an [re, im] pair of numbers")
    return [complex(re, im) for re, im in entries]


def element_from_json(data: dict):
    """Inverse of element_to_json; raises ValueError on malformed input."""
    if not isinstance(data, dict):
        raise ValueError(f"element must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in ("diag", "dense"):
        raise ValueError(f"unknown element kind {kind!r}")
    n = _json_int(data, "n", 1)
    if kind == "diag":
        return DiagonalOperator(_json_entries(data, n), _json_int(data, "offset", 0, 1))
    return DenseMatrix(np.array(_json_entries(data, n * n)).reshape(n, n))


def convolve_elements(kind: str, f: AlgFunction, g: AlgFunction) -> AlgFunction:
    """The product ``kind`` ("dirichlet", "lcm" or "unitary") of f and g element
    by element: each term one element product, each n's terms added in index
    order, then to zero, so each int64 diagonal's bound is the sum of its
    terms' bounds."""
    return AlgFunction(_product(kind, f.values, g.values, f.values[0].zero()))


def ramanujan_orthogonality(n: int, l: int) -> int:
    """sum_{r|n} c_n(n/r) c_r(l): equals n when gcd(l, n) = 1, else 0."""
    return sum(ramanujan_sum(n, n // r) * ramanujan_sum(r, l) for r in divisors(n))


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
    c = np.array([[ramanujan_ops.ramanujan_sum(r, g) for g in divs] for r in divs])
    for table in (t, p, c):
        table.flags.writeable = False
    return divs, t, p, c


def _weighted(weights: list, stack: np.ndarray) -> np.ndarray:
    """weights @ stack, in int64 only when no sum can leave it, else exact in Python."""
    w = np.array(weights)
    fits = w.dtype == np.int64 and len(w) * int(abs(w).max()) * int(abs(stack).max()) <= _INT64_MAX
    return (w if fits else np.array(weights, dtype=object)) @ stack


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
    factors = ramanujan_ops.factorize(n)
    prime_product = np.full_like(exact, n // math.prod(q for q, _ in factors))
    for q, a in factors:
        prime_product = prime_product * (q * p_of[q**a] - p_of[q ** (a - 1)])
    return {"root_of_unity": root_of_unity_residual(n),
            "moebius_sum": _distance(exact, moebius_sum),
            "prime_product": _distance(exact, prime_product)}


def t_top_identities(n: int) -> float:
    """Residual of T_{n,j}(n) = sum_{d|n} mu(d) P_j(d) = prod_{p|n} (e - P_j(p))."""
    divs, t, p, _ = _divisor_tables(n)
    moebius_sum = _weighted([mobius(d) for d in divs], p)
    prime_product = np.prod(1 - p[[divs.index(q) for q, _ in ramanujan_ops.factorize(n)]],
                            axis=0)
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
    weights = [ramanujan_ops.ramanujan_sum(n, n // r) for r in divs]
    return max(_distance(c[-1], _weighted(weights, t)),
               _distance(n * t[-1], _weighted(weights, c)))


def orthogonality_residual(n: int) -> tuple[int, dict]:
    """The worst |sum_{r|n} c_n(n/r) c_r(l) - n [gcd(l, n) = 1]| over l = 1..n,
    at its first l.  For r | n, c_r(l) = c_r(g) with g = gcd(l, n), so the sum
    is taken once per class g, from the c table, and each l reads its class's."""
    divs, _, _, c = _divisor_tables(n)
    by_class = _weighted([ramanujan_ops.ramanujan_sum(n, n // r) for r in divs], c)
    g = np.gcd(np.arange(1, n + 1), n)
    residuals = np.abs(by_class[np.searchsorted(divs, g)] - np.where(g == 1, n, 0))
    at = int(np.argmax(residuals))
    return int(residuals[at]), {"l": at + 1}


def _floor_sum(weights: dict, n_dims: np.ndarray) -> np.ndarray:
    """sum over d of weights[d] floor(N/d), for every N in n_dims."""
    return (n_dims[:, None] // np.array(list(weights))) @ np.array(list(weights.values()))


def det_table(n: int, n_dims) -> list[tuple[int, int]]:
    """(direct, closed) of ``analytic.det_c0`` for every N in n_dims: the
    prefix products of one period of the c_n row, in Python ints."""
    if n < 2 or min(n_dims, default=0) < 1:
        raise ValueError("det_table requires n >= 2 and N >= 1")
    mu = analytic._divisor_mobius(n)
    row = analytic._c_period(n, max(n_dims), mu).tolist()  # Python ints: the products leave int64
    prefix, start = {0: 1}, 0
    for stop in sorted({big_n % n for big_n in n_dims} | {len(row)}):
        prefix[stop] = prefix[start] * math.prod(row[start:stop])
        start = stop
    return [(prefix[len(row)] ** (big_n // n) * prefix[big_n % n],
             (-1) ** (big_n * omega(n)) * det_c0_unsigned_form(n, big_n) if mu[n] else 0)
            for big_n in n_dims]


def trace_table(n: int, n_dims) -> np.ndarray:
    """Both sides of both trace identities of ``analytic.trace_identities``
    for every N in n_dims, one int64 row (trace C_0(n), its closed form,
    trace T_0(n), its closed form) per N, from prefix sums of one period."""
    dims = np.array(n_dims, dtype=np.int64)
    if n < 1 or dims.size == 0 or dims.min() < 1:
        raise ValueError("trace_table requires n >= 1 and N >= 1")
    mu = analytic._divisor_mobius(n)
    c_row = analytic._c_period(n, int(dims.max()), mu)
    coprime = np.ones(c_row.size, dtype=np.int64)
    for p, _ in factorize(n):
        coprime[p - 1::p] = 0
    sums = np.zeros((2, c_row.size + 1), dtype=np.int64)
    sums[:, 1:] = np.cumsum([c_row, coprime], axis=1)
    whole, rest = np.divmod(dims, n)
    trace_c0, trace_t0 = sums[:, -1:] * whole + sums[:, rest]
    return np.column_stack((trace_c0, _floor_sum({d: d * mu[n // d] for d in mu}, dims),
                            trace_t0, _floor_sum(mu, dims)))


def is_multiplicative_loop(f, tol: float = DEFAULT_TOL):
    """Check the definition f(nm) = f(n) f(m) = f(m) f(n) on coprime pairs
    with nm <= n_max: every pair 2 <= n < m in order, then the reversed
    products, each failure reported as (left factor, right factor).

    Returns (verdict, first counterexample (n, m) or None).
    """
    n_max = f.n_max
    if not is_idempotent(f(1), tol):  # f(1) = f(1)f(1) is the (1, 1) case
        return False, (1, 1)
    pairs = [(n, m) for n in range(2, n_max + 1) for m in range(n + 1, n_max // n + 1)
             if math.gcd(n, m) == 1]
    for n, m in pairs + [(m, n) for n, m in pairs]:
        if not f(n * m).isclose(f(n) * f(m), tol):
            return False, (n, m)
    return True, None


def dirichlet_inverse_objects(f: AlgFunction, tol: float = DEFAULT_TOL) -> AlgFunction:
    """Dirichlet inverse by the right-inverse recursion
    g(n) = -f(1)^-1 sum_{d | n, d > 1} f(d) g(n/d), then verified to be
    two-sided within tol (InverseCheckError otherwise; the left check is
    not a free consequence in a non-commutative algebra).

    Every proper divisor of an n in [2^k, 2^(k+1)) is below 2^k, so each
    such range of n is one gather-reduce over its Dirichlet terms with
    d > 1 (the first term of each n).  On Scalar tables each side of the
    check is one product of the value lists and one array comparison.
    """
    lead_inv = invert(f(1))  # raises NonInvertibleError when f(1) is singular
    scalar = all(type(v) is Scalar for v in f.values)
    if scalar:
        values, lead_inv, zero = [v.value for v in f.values], lead_inv.value, 0
    else:
        values, zero = f.values, f(1).zero()
    left, right, starts = _index("dirichlet", f.n_max)
    fv = _store(values).values.astype(object)
    g = np.empty(f.n_max, dtype=object)
    g[0] = lead_inv
    for j in range(1, f.n_max.bit_length()):  # positions of n = 2^j .. 2^(j+1) - 1
        for lo, hi in _blocks(starts, 2**j - 1, min(2 ** (j + 1) - 1, f.n_max)):
            terms = slice(starts[lo], starts[hi])
            keep = left[terms] > 0
            sums = np.add.reduceat(fv[left[terms][keep]] * g[right[terms][keep]],
                                   starts[lo:hi] - starts[lo] - np.arange(hi - lo))
            g[lo:hi] = [-(lead_inv * (zero + s)) for s in sums.tolist()]
    g = g.tolist()
    unit = f(1).unit()
    for name, pair in (("f*g", (values, g)), ("g*f", (g, values))):
        prod = _product("dirichlet", *pair, zero)
        if scalar:  # |x - e| <= tol in one pass, so a NaN fails
            ok = np.abs(np.array([prod[0] - 1, *prod[1:]], dtype=complex)) <= tol
        else:
            ok = [x.isclose(unit if n == 1 else zero, tol) for n, x in enumerate(prod, 1)]
        if not np.all(ok):
            raise InverseCheckError(f"{name} differs from I at n={int(np.argmin(ok)) + 1}")
    return AlgFunction(map(Scalar, g) if scalar else g)


def crt_solve(k: int, n: int, l: int, m: int) -> int | None:
    """The unique j in [0, lcm(n, m)) with j = k (mod n) and j = l (mod m),
    or None when gcd(n, m) does not divide l - k.
    """
    if n < 1 or m < 1:
        raise ValueError("crt_solve requires positive moduli")
    g = math.gcd(n, m)
    if (l - k) % g != 0:
        return None
    lcm = n * m // g
    t = ((l - k) // g) * pow(n // g, -1, m // g) % (m // g)
    return (k + n * t) % lcm


def product_law(system: IdempotentSystem, k: int, n: int, l: int,
                m: int) -> tuple[DiagonalOperator, dict]:
    """P_k(n) P_l(m): returns the multiplied diagonal together with the
    symbolic verdict (zero, or P_j(lcm(n, m)) with j from the CRT) and its
    residual against the product, 0 when the law holds.
    """
    product = system.projection(k, n) * system.projection(l, m)
    j = crt_solve(k, n, l, m)
    lcm = math.lcm(n, m)
    if j is None:
        verdict = {"kind": "zero"}
        predicted = product.zero()
    else:
        verdict = {"kind": "projection", "j": j, "level": lcm}
        predicted = system.projection(j, lcm)
    verdict["residual"] = product.distance(predicted)
    return product, verdict


def shift_operators(space: IdempotentSystem) -> dict[str, DenseMatrix]:
    """Matrix actions on the monomial window: the shift U (e_m -> e_{m+1},
    top dropped), backward shift U* (e_m -> e_{m-1}, bottom killed),
    integration (e_m -> e_{m+1}/(m+1), top dropped), and the Euler
    diagonal theta (e_m -> m e_m).
    """
    n = space.dim
    u = np.zeros((n, n), dtype=complex)
    u_star = np.zeros((n, n), dtype=complex)
    integ = np.zeros((n, n), dtype=complex)
    theta = np.zeros((n, n), dtype=complex)
    for i, m in enumerate(range(space.offset, space.offset + n)):
        theta[i, i] = m
        if i + 1 < n:
            u[i + 1, i] = 1
            integ[i + 1, i] = 1 / (m + 1)
        if i - 1 >= 0:
            u_star[i - 1, i] = 1
    return {
        "U": DenseMatrix(u),
        "U_star": DenseMatrix(u_star),
        "integration": DenseMatrix(integ),
        "theta": DenseMatrix(theta),
    }


def iu_star_fractions(n_dim: int) -> dict:
    """Whether P(mu * nu_{-1}) and P(mu * nu_1) equal ``iu_star`` on e_2..e_N,
    each P built from the Dirichlet product of the tables of mu and nu_k."""
    target = iu_star(n_dim).entries[1:]
    mu_t = scalar_table(mobius, n_dim)
    return {
        name: p_operator(scalar_dirichlet(mu_t, scalar_table(lambda n: nu(k, n), n_dim))
                         ).entries[1:] == target
        for name, k in (("mu*nu_minus1", -1), ("mu*nu_1", 1))
    }


def s_power_sum(fam, j: int, n: int, ks) -> DiagonalOperator:
    """sum over k in ks of eps_n^{-jk} S(n)^k on fam's window, S(n) =
    ``fam.s_operator(n)`` raised to each k by repeated products."""
    s = fam.s_operator(n)
    total, power = s.zero(), fam.unit()
    for k in range(max(ks, default=-1) + 1):
        if k in ks:
            total = total + power.scale(cmath.exp(-2j * math.pi * j * k / n))
        power = power * s
    return total


def rf_transform_per_k(alpha) -> RFCoefficients:
    """``arith.rf_transform`` with its orthogonal sum taken over every k = 1..d."""
    d = alpha.modulus
    orthogonal = {r: Fraction(1, d * totient(r))
                  * sum(alpha(k) * ramanujan_sum(r, k) for k in range(1, d + 1))
                  for r in divisors(d)}
    return RFCoefficients(d, rf_unnormalized(alpha), orthogonal)


def rf_residual_per_k(alpha, coeffs: RFCoefficients | None = None):
    """``arith.rf_residual`` on coeffs (``rf_transform_per_k``'s by default),
    reconstructing at every n = 1..d."""
    coeffs = rf_transform_per_k(alpha) if coeffs is None else coeffs
    d, divs = alpha.modulus, divisors(alpha.modulus)
    return max(
        max(abs(coeffs.unnormalized[r] - d * coeffs.orthogonal[r]) for r in divs),
        max(abs(sum(coeffs.unnormalized[r] * ramanujan_sum(r, n) for r in divs) - d * alpha(n))
            for n in range(1, d + 1)),
    )


def weighted_identities_elements(alpha, beta, system: IdempotentSystem, j: int) -> float:
    """``idempotents.weighted_product_identities`` element by element: alpha(n) P_j(n)
    as scaled ``projection`` diagonals, the operator products and nu0 * f by
    ``*_convolve``, and each side at each n compared by ``distance``."""
    levels = range(1, len(alpha) + 1)
    proj = [system.projection(j, n) for n in levels]
    f_a = AlgFunction([p.scale(a) for p, a in zip(proj, alpha)])
    f_b = AlgFunction([p.scale(b) for p, b in zip(proj, beta)])
    ones = AlgFunction(proj)
    box = lcm_convolve(f_a, f_b)
    sides = [
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
