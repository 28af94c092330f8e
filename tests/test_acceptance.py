"""Acceptance suite: the nine headline properties, each printing one
pass/fail line at its stated tolerance.

Every criterion is checked against an independent oracle (root-of-unity
sums, brute-force enumeration, symbolic prediction) rather than against
the library's own formulas.
"""

import math
from fractions import Fraction

import numpy as np

from idemarith.algebra import Scalar
from idemarith.analytic import det_c0, trace_erratum_forms, trace_identities
from idemarith.arith import (
    EvenFunction,
    divisors,
    jordan_totient,
    mobius,
    ramanujan_sum,
    rf_transform,
    totient,
)
from idemarith.convolution import (
    AlgFunction,
    dirichlet_convolve,
    dirichlet_inverse,
    is_multiplicative,
    lehmer_identity_check,
    scalar_dirichlet,
    scalar_lcm,
    scalar_table,
    scalar_unitary,
)
from idemarith.idempotents import IdempotentSystem, product_law
from idemarith.ramanujan_ops import OperatorFamily


def _report(num: int, label: str, ok: bool):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_scalar_oracle_agreement():
    worst = 0.0
    exact_ok = True
    for n in range(1, 201):
        k_cop = np.array([k for k in range(1, n + 1) if math.gcd(k, n) == 1])
        j_arr = np.arange(n)
        sums = np.exp(2j * np.pi * np.outer(j_arr, k_cop) / n).sum(axis=1)
        exact = np.array([ramanujan_sum(n, j) for j in range(n)], dtype=complex)
        worst = max(worst, float(np.max(np.abs(sums - exact))))
        exact_ok = exact_ok and ramanujan_sum(n, 1) == mobius(n)
        exact_ok = exact_ok and ramanujan_sum(n, n) == totient(n)
    _report(
        1,
        f"Ramanujan sums vs root-of-unity oracle, n <= 200 "
        f"(max residual {worst:.2e}; edge values exact: {exact_ok})",
        worst <= 1e-9 and exact_ok,
    )


def test_criterion_2_product_law_exhaustive():
    systems: dict[int, IdempotentSystem] = {}
    cases = 0
    worst = 0
    for n in range(1, 13):
        for m in range(1, 13):
            lcm = n * m // math.gcd(n, m)
            dim = 3 * lcm
            if dim not in systems:
                systems[dim] = IdempotentSystem(dim)
            for k in range(n):
                for l in range(m):
                    _, verdict = product_law(systems[dim], k, n, l, m)
                    worst = max(worst, verdict["residual"])
                    cases += 1
    _report(
        2,
        f"projection product law, exhaustive n, m <= 12 "
        f"({cases} cases, exact)",
        cases == 78 * 78 and worst == 0,
    )


def test_criterion_3_multiplicative_families():
    family = OperatorFamily(2520)
    ok = True
    detail = []
    for j in (0, 1, 5):
        for name, values in (
            ("P_j", [family.projection(j, n) for n in range(1, 31)]),
            ("C_j", [family.c_operator(j, n) for n in range(1, 31)]),
            ("T_nj", [family.t_operator(n, j, n) for n in range(1, 31)]),
        ):
            verdict, counterexample = is_multiplicative(AlgFunction(values), 0)
            ok = ok and verdict
            if not verdict:
                detail.append((name, j, counterexample))
    _report(
        3,
        f"P/C/T families multiplicative at dim 2520, j in {{0, 1, 5}}, "
        f"zero residual{'; failures: ' + str(detail) if detail else ''}",
        ok,
    )


def test_criterion_4_operator_identity_suite():
    worst_float = 0.0
    worst_exact = 0
    for n in range(1, 31):
        family = OperatorFamily(n)  # one period of every level used
        for j in (0, 1, 2):
            res = family.c_operator_constructions(j, n)
            worst_float = max(worst_float, res["root_of_unity"])
            worst_exact = max(worst_exact, res["moebius_sum"], res["prime_product"])
            worst_exact = max(
                worst_exact,
                family.t_top_identities(j, n),
                family.t_decomposition(j, n),
                family.c_t_transforms(j, n),
            )
    _report(
        4,
        f"operator constructions/partitions/transforms, n <= 30, j in {{0, 1, 2}} "
        f"(float residual {worst_float:.2e}, exact residual {worst_exact})",
        worst_float <= 1e-9 and worst_exact == 0,
    )


def test_criterion_5_even_function_identity():
    rng = np.random.default_rng(20260826)
    moduli = (4, 6, 12, 24)
    worst = 0.0
    for i in range(20):
        n = moduli[i % len(moduli)]
        alpha = EvenFunction(n, {r: int(rng.integers(-9, 10)) for r in divisors(n)})
        family = OperatorFamily(2 * n)
        worst = max(worst, family.even_function_identity(alpha, j=int(rng.integers(0, n)), n=n))
    _report(
        5,
        f"even-function expansion identity, 20 random samples, dim 2n "
        f"(max residual {worst:.2e})",
        worst <= 1e-9,
    )


def test_criterion_6_determinant_and_trace():
    det_ok = True
    nonsquarefree_ok = True
    trace_ok = True
    for n in range(2, 31):
        squarefree = mobius(n) != 0
        for big_n in range(1, 65):
            direct, closed = det_c0(n, big_n)
            det_ok = det_ok and direct == closed
            if not squarefree:
                nonsquarefree_ok = nonsquarefree_ok and direct == 0
            trace_ok = trace_ok and trace_identities(n, big_n)["pass"]
    # the documented-erratum expressions are evaluated, never asserted
    erratum = trace_erratum_forms(6, 10)
    _report(
        6,
        f"determinant/trace identities exact, 2 <= n <= 30, N <= 64 "
        f"(erratum chain at (6, 10): {erratum['coprime_floor_sum']}, "
        f"{erratum['omega_expression']}, logged only)",
        det_ok and nonsquarefree_ok and trace_ok,
    )


def test_criterion_7_euler_representation():
    n_max = 512
    ones = [1] * n_max
    totient_diag = scalar_dirichlet(ones, scalar_table(totient, n_max))
    ok = totient_diag == list(range(1, n_max + 1))
    for r in (1, 2, 3):
        diag = scalar_dirichlet(ones, scalar_table(lambda n: jordan_totient(r, n), n_max))
        ok = ok and diag == [m**r for m in range(1, n_max + 1)]
    mu_diag = scalar_dirichlet(ones, scalar_table(mobius, n_max))
    ok = ok and mu_diag == [1] + [0] * (n_max - 1)
    m_max = 128
    inv_diag = scalar_dirichlet(
        [1] * m_max,
        scalar_dirichlet(
            scalar_table(mobius, m_max),
            [Fraction(1, m) for m in range(1, m_max + 1)],
        ),
    )
    ok = ok and all(inv_diag[m - 1] == Fraction(1, m) for m in range(2, m_max + 1))
    _report(
        7,
        "Euler-diagonal representations: nu0*phi = m, nu0*J_r = m^r (m <= 512), "
        "nu0*mu = [m = 1], nu0*mu*nu_{-1} = 1/m exact (m <= 128)",
        ok,
    )


def _lcm_inverse(f: list) -> list:
    """Exact lcm-product inverse of a scalar table with all divisor sums
    nonzero, by solving the triangular system over Fractions.
    """
    n_max = len(f)
    g: list[Fraction] = []
    for n in range(1, n_max + 1):
        target = Fraction(1 if n == 1 else 0)
        for l in divisors(n)[:-1]:  # proper divisors of n
            weight = sum(
                f[k - 1] for k in divisors(n) if k * l // math.gcd(k, l) == n
            )
            target -= g[l - 1] * weight
        g.append(target / sum(f[k - 1] for k in divisors(n)))
    return g


def _unitary_inverse(f: list) -> list:
    n_max = len(f)
    g: list[Fraction] = [Fraction(1, f[0])]
    for n in range(2, n_max + 1):
        acc = Fraction(0)
        for d in divisors(n):
            if d > 1 and math.gcd(d, n // d) == 1:
                acc += f[d - 1] * g[n // d - 1]
        g.append(-acc / f[0])
    return g


def test_criterion_8_convolution_algebra():
    n_max = 60
    rng = np.random.default_rng(8)
    identity = [1] + [0] * (n_max - 1)
    ok = True
    for product in (scalar_dirichlet, scalar_lcm, scalar_unitary):
        a, b, c = (
            [int(v) for v in rng.integers(-9, 10, n_max)] for _ in range(3)
        )
        ok = ok and product(product(a, b), c) == product(a, product(b, c))
        ok = ok and product(identity, a) == a == product(a, identity)
    # inverse round trips, one per product, exact over rationals
    phi = scalar_table(totient, n_max)
    scalar_phi = AlgFunction([Scalar(Fraction(v)) for v in phi])
    dirichlet_inv = dirichlet_inverse(scalar_phi, 0)
    roundtrip = dirichlet_convolve(scalar_phi, dirichlet_inv)
    ok = ok and [v.value for v in roundtrip.values] == identity
    lcm_inv = _lcm_inverse(phi)
    ok = ok and scalar_lcm(phi, lcm_inv) == identity == scalar_lcm(lcm_inv, phi)
    unit_inv = _unitary_inverse(phi)
    ok = ok and scalar_unitary(phi, unit_inv) == identity == scalar_unitary(unit_inv, phi)
    # the diagonal-representation product rule, 10 random integer pairs
    for _ in range(10):
        alpha = [int(v) for v in rng.integers(-9, 10, 200)]
        beta = [int(v) for v in rng.integers(-9, 10, 200)]
        ok = ok and lehmer_identity_check(alpha, beta, tol=0)["pass"]
    _report(
        8,
        "convolution algebra laws (three products, n_max 60) and the "
        "diagonal product rule (10 pairs, n_max 200), exact",
        ok,
    )


def test_criterion_9_rf_normalizations():
    rng = np.random.default_rng(9)
    moduli = [d for d in range(1, 49)]
    ok = True
    worst = 0.0
    for _ in range(20):
        d = int(rng.choice(moduli))
        alpha = EvenFunction(d, {r: int(rng.integers(-9, 10)) for r in divisors(d)})
        coeffs = rf_transform(alpha)
        for r in divisors(d):
            ok = ok and coeffs.unnormalized[r] == d * coeffs.orthogonal[r]
        for n in range(1, d + 1):
            recon = sum(coeffs.orthogonal[r] * ramanujan_sum(r, n) for r in divisors(d))
            worst = max(worst, abs(float(recon - alpha(n))))
    _report(
        9,
        f"double-sum coefficients = d x orthogonal coefficients, 20 random "
        f"even functions, d <= 48 (reconstruction residual {worst:.2e})",
        ok and worst < 1e-9,
    )
