"""Identity suites: each runner re-verifies one family of results against
independent oracles and returns its report rows and errata.

``_check`` alone decides whether a row passes: at least one case was
evaluated, no case raised, and the worst residual is exactly 0: every
row is exact, its root-of-unity sums taken in F_q.  A failed row names
its worst case ("counterexample"), or carries an "error" ("<type>:
<message>" of what a case raised) and a null "max_residual".
What a row shares between its cases (random samples, per-level tables)
is built inside its residual on first use, so a failure there fails that
row alone.  An erratum whose data raises carries the "error" instead.

The six level rows (scalar Ramanujan, operator identities, orthogonality,
transform pair, determinant, trace) read the passes of ``ramanujan_ops``
and ``analytic`` over prefixes of one ``level_table`` of the levels up to
min(n_max, TOP_LEVEL), and two of them one ``root_sums``: ``run_suite``
builds each once per run.  The trace and determinant rows take N = 1..n at
each level n, which decides every N (both sides add or multiply over a
period).  Every other operator entry depends only on the basis index mod
its level, so a window as long as the period of each equation a row
compares decides it on the whole basis: lcm(n, m) for a product law,
6 n_limit for the axioms (levels n r, r <= 6), K for a multiplicativity row
on levels 1..K (coprime pairs nm <= K).  Those five rows report the
requested dim under "dim" and min(dim, period) under "window"; the
product-law and weighted rows report their window under "dim".  The CRT
product law is decided for all its level pairs in one call, and each
multiplicativity row on its family's (K, window) stack.  The algebra-law,
Lehmer and algebra-map rows stack their random tables as columns: a
product call serves all cases, each its column.  The growth row bounds
P(alpha) in integers, the IU* row compares m P(mu * nu_k)(m) with 1 in
integers, and the Euler row reads mu off one sieve.

Known discrepancies in the source material (documented typos) are
evaluated and quarantined in the report's "errata" section; they carry
data but never count as failures.
"""

from __future__ import annotations

import functools
import inspect
import math
import random

import numpy as np

from . import analytic
from .algebra import DenseMatrix, DiagonalOperator, Scalar, operator_norm
from .arith import (EvenFunction, divisors, epsilon, lcm_tuple_count, prime_power_product,
                    prime_power_split, rf_residual, totient)
from .convolution import (AlgFunction, dirichlet_convolve, dirichlet_identity, dirichlet_inverse,
                          is_multiplicative, lcm_convolve, lehmer_sides, scalar_dirichlet,
                          scalar_lcm, scalar_table, scalar_unitary, unitary_convolve)
from .idempotents import (IdempotentSystem, product_law_residuals, verify_axioms,
                          weighted_product_identities)
from .ramanujan_ops import (OperatorFamily, even_function_identity, level_table,
                            operator_residuals, orthogonality_residuals, root_sum_residual,
                            root_sums, scalar_residuals, transform_residuals)

__all__ = ["SUITES", "run_suite"]

SEED = 20260826  # seeds every random.Random sample, so identical runs give identical reports
TOP_LEVEL = 200  # the scalar Ramanujan row's cap, the highest level any row reads


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _check(identity: str, params: dict, cases, residual) -> dict:
    """One report row: the worst of residual(*case) over cases, which passes
    iff it is exactly 0; a NaN is kept as the worst, and fails.

    residual returns a number, or (number, location) when it can place its
    worst value more finely than the case; the location then joins the
    counterexample under "at".
    """
    worst = where = None
    try:
        for case in cases:
            value, at = residual(*case), None
            if isinstance(value, tuple):
                value, at = value
            value = float(value)
            if worst is None or value > worst or math.isnan(value):
                worst, where = value, (case, at)
    except Exception as exc:  # the row fails; the report and its other rows go on
        return {"identity": identity, "params": params, "max_residual": None,
                "pass": False, "error": _error(exc)}
    row = {"identity": identity, "params": params, "max_residual": worst, "pass": worst == 0}
    if worst is None:
        row["error"] = "no case evaluated"
    elif not row["pass"]:
        case, at = where
        row["counterexample"] = dict(zip(inspect.signature(residual).parameters, case))
        if at is not None:
            row["counterexample"]["at"] = at
    return row


def _erratum(note: dict, data) -> dict:
    """The erratum note with data() under "data", or what it raised under
    "error": an erratum never fails a run, nor ends it."""
    try:
        return {**note, "data": data()}
    except Exception as exc:
        return {**note, "error": _error(exc)}


def _multiplicativity(f: AlgFunction):
    """is_multiplicative as a residual: the distance of f(nm) from f(n) f(m)
    at its counterexample (n, m), or 0 when it finds none."""
    ok, where = is_multiplicative(f, 0)
    if ok:
        return 0.0
    n, m = where
    return f(n * m).distance(f(n) * f(m)), {"n": n, "m": m}


@functools.lru_cache(maxsize=1)  # run_suite clears this and _root_sums: one build each per run
def _levels(n_max: int):
    return level_table(min(n_max, TOP_LEVEL))


@functools.lru_cache(maxsize=1)
def _root_sums(n_max: int):
    return root_sums(_levels(n_max))


def _random_even(rng: random.Random, d: int) -> EvenFunction:
    return EvenFunction(d, {r: rng.randint(-9, 9) for r in divisors(d)})


def _suite_axioms(n_max, dim):
    n_limit = min(n_max, 12)
    axioms = IdempotentSystem(min(dim, 6 * n_limit))  # each equation has period n r, r <= 6
    n_dft = min(n_max, 24)
    rows = [
        _check("idempotent system axioms I/II/III + completeness",
               {"dim": dim, "window": axioms.dim, "n_limit": n_limit}, [()],
               lambda: verify_axioms(axioms, n_limit)),
        # n P_0(n) against sum_{l < n} S(n)^l on one period, which every P_j(n) shifts
        _check("congruence-exact vs DFT provider", {"n_limit": n_dft},
               [(n,) for n in range(1, n_dft + 1)],
               lambda n: root_sum_residual(range(n), np.arange(n), n,
                                           n * IdempotentSystem(n).projections([0], n)[0])),
    ]
    proj_mult_max = max(min(n_max, 32), 6)  # 6 = 2 * 3, the first coprime pair
    ops = OperatorFamily(min(dim, proj_mult_max))
    for j in (0, 1, 5):
        rows.append(_check("projection family multiplicativity",
                           {"j": j, "n_max": proj_mult_max, "dim": dim, "window": ops.dim},
                           [()], lambda: _multiplicativity(AlgFunction.diagonals(
                               ops.family(j, proj_mult_max, "P"), ops.offset))))
    return rows, []


def _suite_product_law(n_max, dim):
    n_cap = min(n_max, 12)
    levels = [(n, m) for n in range(1, n_cap + 1) for m in range(1, n_cap + 1)]
    crt = IdempotentSystem(max(math.lcm(n, m) for n, m in levels))
    divisor_levels = [(n, m) for n in (1, 2, 3, 4, 6) for m in (n * 2, n * 3)]
    divisor = IdempotentSystem(max(m for _, m in divisor_levels))
    crt_law = functools.cache(lambda: product_law_residuals(crt, levels))
    divisor_law = functools.cache(lambda: product_law_residuals(divisor, divisor_levels))
    return [
        _check("projection product law with CRT index",
               {"n_max": n_cap, "cases": sum(n * m for n, m in levels), "dim": crt.dim},
               levels, lambda n, m: crt_law()[n, m]),
        _check("divisor-level product law", {"dim": divisor.dim}, divisor_levels,
               lambda n, m: divisor_law()[n, m]),
    ], []


def _suite_ramanujan(n_max, dim):
    n_cap = min(n_max, 30)
    mult_cap = max(n_cap, 6)  # as for the projection families
    ops = OperatorFamily(min(dim, mult_cap))
    n_scalar = min(n_max, TOP_LEVEL)
    scalar = functools.cache(lambda: scalar_residuals(_levels(n_max), _root_sums(n_max),
                                                      n_scalar))
    operators = functools.cache(lambda: operator_residuals(_levels(n_max), _root_sums(n_max),
                                                           n_cap))
    return [
        _check("scalar Ramanujan sums vs root-of-unity oracle",
               {"n_max": n_scalar}, [(n,) for n in range(1, n_scalar + 1)],
               lambda n: scalar()[n - 1]),
        _check("operator Ramanujan identities (three constructions, partitions)",
               {"n_max": n_cap}, [(n,) for n in range(1, n_cap + 1)],
               lambda n: operators()[n - 1]),
        _check("multiplicativity of operator families",
               {"n_max": mult_cap, "dim": dim, "window": ops.dim, "j": [0, 1, 5]},
               [(j, kind) for j in (0, 1, 5) for kind in "CT"],
               lambda j, kind: _multiplicativity(
                   AlgFunction.diagonals(ops.family(j, mult_cap, kind), ops.offset))),
    ], []


def _suite_transforms(n_max, dim):
    moduli = [1, 2, 3, 4, 6, 8, 12, 16, 18, 24, 30, 36, 40, 48]
    samples = 20

    @functools.cache
    def alphas():  # every listed modulus once, then random ones
        rng = random.Random(SEED)
        return [_random_even(rng, d)
                for d in moduli + rng.choices(moduli, k=samples - len(moduli))]

    n_orth, n_pair = min(n_max, 100), min(n_max, 30)
    orthogonality = functools.cache(lambda: orthogonality_residuals(_levels(n_max), n_orth))
    pair = functools.cache(lambda: transform_residuals(_levels(n_max), n_pair))
    rows = [
        _check("even-function Fourier coefficients: reconstruction and "
               "factor-of-d between normalizations",
               {"samples": samples, "max_modulus": max(moduli)},
               [(sample,) for sample in range(samples)],
               lambda sample: rf_residual(alphas()[sample])),
        _check("Ramanujan sum orthogonality", {"n_max": n_orth},
               [(n,) for n in range(1, n_orth + 1)],
               lambda n: (orthogonality()[0][n - 1], {"l": int(orthogonality()[1][n - 1])})),
        _check("operator/idempotent transform pair", {"n_max": n_pair},
               [(n,) for n in range(1, n_pair + 1)], lambda n: pair()[n - 1]),
    ]
    errata = [{
        "id": "rf-normalization",
        "claim": "the displayed coefficient formula is paired with the expansion as-is",
        "observed": "the double-sum coefficients are d times the reconstructing ones; "
                    "both normalizations are exposed",
    }]
    return rows, errata


def _suite_even_identity(n_max, dim):
    moduli = [4, 6, 12, 24]
    samples = [(n, sample) for n in moduli for sample in range(5)]

    @functools.cache
    def alphas():
        rng = random.Random(SEED)
        return {(n, sample): _random_even(rng, n) for n, sample in samples}

    return [
        _check("even-function expansion over Ramanujan operators",
               {"moduli": moduli, "samples": len(samples)}, samples,
               lambda n, sample: even_function_identity(alphas()[n, sample])),
    ], []


def _suite_convolution(n_max, dim):
    rng = random.Random(SEED)
    n_assoc = min(n_max, 60)
    triples = [[rng.choices(range(-5, 6), k=n_assoc) for _ in range(3)] for _ in range(3)]
    a, b, c = (np.array(tables).T for tables in zip(*triples))  # column j: sample j
    scalar_products = {"dirichlet": scalar_dirichlet, "lcm": scalar_lcm,
                       "unitary": scalar_unitary}

    @functools.cache
    def algebra_laws(product):  # each sample's |(ab)c - a(bc)| and |ab - ba|, as columns
        prod = scalar_products[product]
        ab, ba, bc = np.hsplit(prod(np.hstack((a, b, b)), np.hstack((b, a, c))), 3)
        ab_c, a_bc = np.hsplit(prod(np.hstack((ab, a)), np.hstack((c, bc))), 2)
        return np.maximum(abs(ab_c - a_bc), abs(ab - ba))

    unit = Scalar(1)
    ident = dirichlet_identity(unit, n_assoc)
    f = AlgFunction.lift(totient, unit, n_assoc)
    products = {"dirichlet": dirichlet_convolve, "lcm": lcm_convolve,
                "unitary": unitary_convolve}

    def identity_laws(product):
        if product == "dirichlet inverse":
            inv = dirichlet_inverse(f, 0)  # raises InverseCheckError if not exact
            pairs = [(dirichlet_convolve(f, inv), ident)]
        else:
            prod = products[product]
            pairs = [(prod(f, ident), f), (prod(ident, f), f)]
        return max(g(n).distance(h(n)) for g, h in pairs for n in range(1, n_assoc + 1))

    lehmer_n, lehmer_pairs = 200, 10
    tables = np.array([rng.choices(range(-5, 6), k=lehmer_n)
                       for _ in range(2 * lehmer_pairs)]).T  # alpha, beta of each pair
    lehmer = functools.cache(lambda: lehmer_sides(tables[:, 0::2], tables[:, 1::2])[2])

    weighted = IdempotentSystem(30)
    rows = [
        _check("associativity and commutativity of the three products", {"n_max": n_assoc},
               [(sample, product) for sample in range(3) for product in scalar_products],
               lambda sample, product: algebra_laws(product)[:, sample].max()),
        _check("identity laws and Dirichlet inverse round trip", {"n_max": n_assoc},
               [(product,) for product in (*products, "dirichlet inverse")], identity_laws),
        _check("product identity linking the lcm and Dirichlet sums",
               {"n_max": lehmer_n, "pairs": lehmer_pairs},
               [(pair,) for pair in range(lehmer_pairs)], lambda pair: lehmer()[pair]),
        _check("weighted convolution identities for alpha,beta against P_j",
               {"j": 1, "n_max": 30, "dim": weighted.dim}, [()],
               lambda: weighted_product_identities(
                   scalar_table(lambda n: 1, 30), scalar_table(totient, 30), weighted, 1)),
    ]
    # the norm-multiplicativity claim fails for the max-row-sum norm
    f2 = DenseMatrix([[1, 1], [0, 1]])
    f3 = DenseMatrix([[1, 0], [1, 1]])
    errata = [
        {
            "id": "lehmer-display",
            "claim": "the displayed left side repeats the same factor twice",
            "observed": "read as (nu0*alpha)(nu0*beta); verified in that form",
        },
        _erratum({
            "id": "lcm-tuple-count-display",
            "claim": "the displayed tuple-count product uses (a_s+1)^s in every factor",
            "observed": "the brute-force count matches prod_k ((a_k+1)^s - a_k^s)",
        }, lambda: {"n": 12, "s": 2, "value": lcm_tuple_count(2, 12)}),
        _erratum({
            "id": "norm-multiplicativity",
            "claim": "n -> ||f(n)|| is multiplicative for any norm",
            "observed": "submultiplicative only; counterexample with the max-row-sum norm",
        }, lambda: {
            "norm_f2": operator_norm(f2),
            "norm_f3": operator_norm(f3),
            "norm_f6": operator_norm(f2 * f3),
        }),
    ]
    return rows, errata


def _first_worst(residuals, name: str) -> tuple:
    """The largest residual at 1, 2, ... (0 if none is positive), at its first place."""
    at = max(range(len(residuals)), key=residuals.__getitem__)
    return max(residuals[at], 0), {name: at + 1}


def _growth_excess(alpha, excess) -> tuple:
    """How far the entries x_m = (nu0 * alpha)(m) of P(alpha), m <= 64, leave the
    bound excess(m, x_m) <= 0, in Python ints.  Where m-th roots of a finite prefix
    cannot decide a limsup, these bounds settle the classification: (nu0 * phi)(m) = m
    and (nu0 * eps)(m) = 1, so |x_m| <= m (continuous), and sum_{d|m} 2^d >= 2^m, so
    x_m >= 2^m for 2^n (not continuous)."""
    x = analytic.p_operator(scalar_table(alpha, 64)).entries
    return _first_worst([excess(m, x_m) for m, x_m in enumerate(x, 1)], "m")


def _suite_analytic(n_max, dim):
    euler_n = 512
    euler = {"totient": 1, "jordan:2": 2, "jordan:3": 3}  # P(J_r) = theta^r

    def euler_representation(alpha):
        if alpha == "mobius":  # P(mu) = diag(eps), the projection onto e_1; mu from one sieve
            prime, power, _ = prime_power_split(euler_n)
            mu = prime_power_product(np.where(power == prime, -1, 0), 1)[1:]
            return analytic.p_operator(mu).distance(
                DiagonalOperator(scalar_table(epsilon, euler_n), 1))
        return analytic.euler_power_residual(euler[alpha], euler_n)

    iu = functools.cache(lambda: analytic.iu_star_representation(128))
    prep = functools.cache(lambda: analytic.p_operator_identities(
        IdempotentSystem(64, 1), 64, pairs=20, seed=SEED))
    growth = {"totient": (totient, lambda m, x: abs(x) - m),
              "epsilon": (epsilon, lambda m, x: abs(x) - m),
              "2**n": (lambda n: 2**n, lambda m, x: 2**m - x)}
    one_period = "1..n, which decides every N"
    n_det, n_trace = min(n_max, 30), min(n_max, 60)
    dets = functools.cache(lambda: analytic.det_residuals(_levels(n_max), n_det))
    traces = functools.cache(lambda: analytic.trace_residuals(_levels(n_max), n_trace))
    rows = [
        _check("determinant of the Ramanujan diagonal: direct vs closed form",
               {"n_max": n_det, "N": one_period}, [(n,) for n in range(2, n_det + 1)],
               lambda n: (dets()[n - 1][0], {"N": dets()[n - 1][1]})),
        _check("trace identities for both diagonals", {"n_max": n_trace, "N": one_period},
               [(n,) for n in range(2, n_trace + 1)],
               lambda n: (traces()[0][n - 1], {"N": int(traces()[1][n - 1])})),
        _check("Euler-operator representation of totient and Jordan powers",
               {"m_max": euler_n, "r_max": 3}, [(alpha,) for alpha in (*euler, "mobius")],
               euler_representation),
        _check("diagonal of integration-compose-backward-shift", {"n_max": 128},
               [("mu*nu_minus1", True), ("mu*nu_1", False)],
               lambda candidate, matches: iu()[candidate] != matches),
        _check("diagonal map is an algebra map for the lcm product", {"n_max": 64, "pairs": 20},
               [()], lambda: max(prep()["algebra_map_max_residual"],
                                 prep()["euler_power_max_residual"])),
        _check("growth bounds of the diagonal map: |x_m| <= m for totient and epsilon, "
               "x_m >= 2^m for 2**n", {"prefix": 64}, [(alpha,) for alpha in growth],
               lambda alpha: _growth_excess(*growth[alpha])),
    ]
    errata = [
        _erratum({
            "id": "determinant-sign",
            "claim": "the determinant equals the bare product of (1-p)^floor(N/p)",
            "observed": "a sign prefactor (-1)^(N*omega(n)) is required; the bare "
                        "product flips sign when N and omega(n) are both odd",
        }, lambda: {
            "n": 2, "dim": 3,
            "direct": analytic.det_c0(2, 3)[0],
            "unsigned_form": analytic.det_c0_unsigned_form(2, 3),
        }),
        _erratum({
            "id": "trace-floor-chain",
            "claim": "coprime floor sum = N*omega(n) - sum floor(N/p) = sum mu(r) floor(N/r)",
            "observed": "the three expressions disagree at (n, N) = (6, 10)",
        }, lambda: {
            "coprime_floor_sum": analytic.trace_erratum_forms(6, 10)["coprime_floor_sum"],
            "omega_expression": analytic.trace_erratum_forms(6, 10)["omega_expression"],
            "mu_floor_sum": analytic.trace_identities(6, 10)["trace_t0_closed"],
        }),
        _erratum({
            "id": "trace-prime-power-sum",
            "claim": "sum over prime powers equals the Ramanujan diagonal trace",
            "observed": "disagrees off multiples of n, e.g. (n, N) = (6, 7)",
        }, lambda: {
            "prime_power_sum": analytic.trace_erratum_forms(6, 7)["prime_power_sum"],
            "trace": analytic.trace_identities(6, 7)["trace_c0"],
        }),
        _erratum({
            "id": "iu-star-candidate",
            "claim": "the diagonal map of mu * nu_1 equals integration-compose-backward-shift",
            "observed": "mu * nu_1 gives the Euler diagonal m; mu * nu_{-1} gives 1/m, "
                        "matching away from the m = 1 truncation edge",
        }, iu),
    ]
    return rows, errata


_RUNNERS = {
    "axioms": (_suite_axioms,),
    "product-law": (_suite_product_law,),
    "ramanujan": (_suite_ramanujan,),
    "transforms": (_suite_transforms,),
    "even-identity": (_suite_even_identity,),
    "convolution": (_suite_convolution,),
    "analytic": (_suite_analytic,),
    "all": (_suite_axioms, _suite_product_law, _suite_ramanujan, _suite_transforms,
            _suite_even_identity, _suite_convolution, _suite_analytic),
}

SUITES = tuple(_RUNNERS)


def run_suite(name: str, n_max: int = 60, dim: int = 2520) -> dict:
    """Run one named identity suite and return its report.

    The report passes iff every entry in "checks" passes; "errata" entries
    document known typos in the source material and never fail a run.
    """
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    for param, value in (("n_max", n_max), ("dim", dim)):
        if value < 1:
            raise ValueError(f"{param} must be at least 1, got {value}")
    _levels.cache_clear()
    _root_sums.cache_clear()
    checks: list[dict] = []
    errata: list[dict] = []
    for runner in _RUNNERS[name]:
        rows, notes = runner(n_max, dim)
        checks += rows
        errata += notes
    failed = [c for c in checks if not c["pass"]]
    return {
        "suite": name,
        "params": {"n_max": n_max, "dim": dim, "seed": SEED},
        "checks": checks,
        "errata": errata,
        "summary": {"total": len(checks), "passed": len(checks) - len(failed),
                    "failed": len(failed)},
        "pass": not failed,
    }
