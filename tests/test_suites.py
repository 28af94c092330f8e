"""Identity suites called directly: row contract, suite composition, and
how a row fails (worst case named, raised exceptions and empty checks)."""

import json
import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from idemarith import analytic, arith, convolution, idempotents, ramanujan_ops, suites
from idemarith.algebra import DiagonalOperator, NonInvertibleError
from idemarith.arith import divisors, factorize
from idemarith.convolution import (InverseCheckError, scalar_dirichlet, scalar_lcm,
                                   scalar_table, scalar_unitary)
from idemarith.idempotents import IdempotentSystem
from idemarith.suites import SUITES, _check, run_suite
import oracle_forms

SMALL = {"n_max": 7, "dim": 60}


@pytest.fixture(scope="module")
def report_all():
    return run_suite("all", **SMALL)


def wrong_crt_entry(monkeypatch, k, n, l, m, j):
    """Make the CRT grid of levels (n, m) read j at (k, l), in the grids of all pairs."""
    real = idempotents._crt_grids

    def wrong(ns, ms):
        grids = real(ns, ms)
        at = np.flatnonzero((ns == n) & (ms == m))
        if at.size:
            grids[int((ns * ms)[:at[0]].sum()) + k * m + l] = j
        return grids

    monkeypatch.setattr(idempotents, "_crt_grids", wrong)


def wrong_lcm_term(monkeypatch):
    """Make the lcm product read b(5) for b(6) in its term a(1) b(6) at n = 6."""
    real = convolution._index

    def wrong(kind, n_max):
        left, right, starts = real(kind, n_max)
        if kind == "lcm" and n_max >= 6:
            right = right.copy()
            assert (left[starts[5]], right[starts[5]]) == (0, 5)  # n = 6's first term: (1, 6)
            right[starts[5]] = 4
        return left, right, starts

    monkeypatch.setattr(convolution, "_index", wrong)


def wrong_class_values(monkeypatch, change):
    """Make the level table the suites read hold change(table) as its class values."""
    def wrong(n_max):
        levels = ramanujan_ops.level_table(n_max)
        return levels._replace(c=change(levels))

    monkeypatch.setattr(suites, "level_table", wrong)


def convolution_samples():
    """The convolution suite's random tables, drawn one table at a time: the
    three (a, b, c) triples at n-max 60, then the ten (alpha, beta) pairs."""
    rng = random.Random(suites.SEED)
    triples = [[rng.choices(range(-5, 6), k=60) for _ in range(3)] for _ in range(3)]
    pairs = [[rng.choices(range(-5, 6), k=200) for _ in range(2)] for _ in range(10)]
    return triples, pairs


def first_worst(residuals: dict):
    """The first case with the largest residual, as ``_check`` picks it."""
    return max(residuals, key=residuals.get), max(residuals.values())


class TestRunSuite:
    def test_single_suites_concatenate_to_all(self, report_all):
        singles = [run_suite(name, **SMALL) for name in SUITES if name != "all"]
        assert [r["suite"] for r in singles] == [
            "axioms", "product-law", "ramanujan", "transforms", "even-identity",
            "convolution", "analytic",
        ]
        assert [row for r in singles for row in r["checks"]] == report_all["checks"]
        assert [e for r in singles for e in r["errata"]] == report_all["errata"]

    def test_all_has_24_passing_rows(self, report_all):
        assert report_all["pass"] is True
        assert report_all["summary"] == {"total": 24, "passed": 24, "failed": 0}
        for row in report_all["checks"]:
            assert row["pass"] is True
            assert set(row) == {"identity", "params", "max_residual", "pass"}

    def test_rows_report_their_windows(self, report_all):
        # dim 60 sets the axioms row alone; the product-law and weighted rows run on
        # the largest period of their levels, and the level identities and family
        # multiplicativity on class tables, with no window
        windows = [row["params"].get("dim") for row in report_all["checks"]]
        assert windows == [60, None, None, None, None, 42, 18] + [None] * 10 + [30] + [None] * 6
        # the axioms cut it to min(dim, 6 n_limit)
        reduced = [row["params"].get("window") for row in report_all["checks"]]
        assert reduced == [42] + [None] * 23

    def test_all_builds_few_diagonals(self, monkeypatch):
        # the family, weighted, product-law and axiom rows run on stacks, and a
        # stack result builds its elements only when read: 38 diagonals at the
        # defaults, against 756 when each row built its operators one at a time
        built = []
        real = DiagonalOperator.__init__
        monkeypatch.setattr(DiagonalOperator, "__init__",
                            lambda self, *args: built.append(1) or real(self, *args))
        assert run_suite("all")["pass"] is True
        assert len(built) <= 60

    def test_largest_dim_runs_on_short_windows(self):
        report = run_suite("all", n_max=60, dim=10**6)
        assert report["pass"] is True
        reduced = [row["params"]["window"] for row in report["checks"]
                   if "window" in row["params"]]
        assert reduced == [72]

    def test_nan_residual_fails_its_rows_without_raising(self, monkeypatch):
        real = suites.root_sums

        def nan_at_4(levels):  # root sums that read NaN at level 4 alone
            sums, q = real(levels)
            return np.where(levels.n == 4, math.nan, sums), q

        monkeypatch.setattr(suites, "root_sums", nan_at_4)
        report = run_suite("all", **SMALL)
        assert report["pass"] is False
        failed = [row for row in report["checks"] if not row["pass"]]
        assert [row["identity"] for row in failed] == [
            "scalar Ramanujan sums vs root-of-unity oracle",
            "operator Ramanujan identities (three constructions, partitions)"]
        for row in failed:  # levels 5..7 read 0 after it, and NaN stays the worst
            assert math.isnan(row["max_residual"]) and "error" not in row
            assert row["counterexample"] == {"n": 4}
        json.dumps(report)  # every counterexample is JSON-ready

    def test_check_without_cases_fails(self):
        report = run_suite("analytic", n_max=1)
        assert report["pass"] is False
        empty = [row for row in report["checks"] if not row["pass"]]
        assert [row["identity"] for row in empty] == [
            "determinant of the Ramanujan diagonal: direct vs closed form",
            "trace identities for both diagonals",
        ]
        for row in empty:
            assert row["error"] == "no case evaluated"
            assert row["max_residual"] is None

    def test_failing_level_table_fails_its_rows_alone(self, report_all, monkeypatch):
        def lost(n, *args):
            return {}[n]

        # the rows' table of levels 1..48 (at least 48, the largest rf modulus)
        monkeypatch.setattr(suites, "level_table", lost)
        monkeypatch.setattr(analytic, "_c_period", lost)  # the one-window forms the errata read
        report = run_suite("analytic", **SMALL)
        failed = [row for row in report["checks"] if not row["pass"]]
        assert [row["identity"] for row in failed] == [
            "determinant of the Ramanujan diagonal: direct vs closed form",
            "trace identities for both diagonals",
        ]
        for row in failed:
            assert row["error"] == "KeyError: 48" and row["max_residual"] is None
        assert report["summary"] == {"total": 6, "passed": 4, "failed": 2}
        # the errata that read a one-period c_n row carry the error; the others keep their data
        errata = {note["id"]: note for note in report["errata"]}
        assert errata["determinant-sign"]["error"] == "KeyError: 2"
        assert errata["trace-floor-chain"]["error"] == "KeyError: 6"
        assert "data" not in errata["trace-prime-power-sum"]
        assert errata["iu-star-candidate"] == report_all["errata"][-1]

    def test_failing_sample_draw_fails_the_rf_row_alone(self, report_all, monkeypatch):
        def broken(rng, d):
            raise ZeroDivisionError("no sample")

        monkeypatch.setattr(suites, "_random_even", broken)
        report = run_suite("all", **SMALL)
        failed = [row for row in report["checks"] if not row["pass"]]
        assert [row["identity"] for row in failed] == [
            "even-function Fourier coefficients: reconstruction and "
            "factor-of-d between normalizations",
            "even-function expansion over Ramanujan operators",
        ]
        for row in failed:
            assert row["error"] == "ZeroDivisionError: no sample"
        assert report["summary"]["total"] == 24
        assert report["errata"] == report_all["errata"]

    def test_wrong_transform_at_modulus_six_fails_the_rf_row_alone(self, monkeypatch):
        # the row samples every listed modulus, 6 among them, before its random draws;
        # R(alpha)(1) off by one in the batched pass, whose phi(r), r | 6, are 1, 1, 2, 2.
        # The expansion row reads only the orthogonal numerators of the transform
        real = ramanujan_ops._transforms

        def wrong(a, c, phi):
            coeffs, numerators = real(a, c, phi)
            if phi == [1, 1, 2, 2]:
                coeffs = coeffs.copy()
                coeffs[:, 0] += 1
            return coeffs, numerators

        monkeypatch.setattr(ramanujan_ops, "_transforms", wrong)
        report = run_suite("all", **SMALL)
        (row,) = [row for row in report["checks"] if not row["pass"]]
        assert row["identity"] == ("even-function Fourier coefficients: reconstruction and "
                                   "factor-of-d between normalizations")
        assert row["counterexample"] == {"sample": 4}  # moduli (1, 2, 3, 4, 6, ...)
        assert row["max_residual"] == 1.0

    @pytest.mark.parametrize("name", SUITES)
    @pytest.mark.parametrize("param", ["n_max", "dim"])
    def test_invalid_scale_is_rejected_up_front(self, name, param):
        for value in (0, -3):
            with pytest.raises(ValueError, match=f"^{param} must be at least 1, got {value}$"):
                run_suite(name, **{**SMALL, param: value})

    def test_product_law_rows_at_the_defaults(self):
        assert run_suite("product-law")["checks"] == [
            {"identity": "projection product law with CRT index",
             "params": {"n_max": 12, "cases": 6084, "dim": 132},
             "max_residual": 0.0, "pass": True},
            {"identity": "divisor-level product law", "params": {"dim": 18},
             "max_residual": 0.0, "pass": True},
        ]

    def test_wrong_crt_index_fails_the_product_law_row(self, monkeypatch):
        # P_1(4) P_2(6) is zero (no CRT index); predict P_4(12)
        wrong_crt_entry(monkeypatch, 1, 4, 2, 6, 4)
        row = run_suite("product-law", **SMALL)["checks"][0]
        assert row["identity"] == "projection product law with CRT index"
        assert row["pass"] is False and row["max_residual"] == 1.0
        assert row["counterexample"] == {"n": 4, "m": 6, "at": {"k": 1, "l": 2}}

    def test_wrong_crt_index_fails_the_divisor_row(self, monkeypatch):
        # P_1(2) P_2(4) is zero (2 != 1 mod 2); predict P_2(4)
        wrong_crt_entry(monkeypatch, 1, 2, 2, 4, 2)
        row = run_suite("product-law", n_max=1, dim=1)["checks"][1]
        assert row["identity"] == "divisor-level product law"
        assert row["pass"] is False and row["max_residual"] == 1.0
        assert row["counterexample"] == {"n": 2, "m": 4, "at": {"k": 1, "l": 2}}

    def test_wrong_lcm_term_fails_the_algebra_law_row_at_its_worst_sample(self, monkeypatch):
        # each case read off its column of the stacks, against the per-table products
        wrong_lcm_term(monkeypatch)
        triples, _ = convolution_samples()
        products = {"dirichlet": scalar_dirichlet, "lcm": scalar_lcm, "unitary": scalar_unitary}
        residuals = {}
        for sample, (a, b, c) in enumerate(triples):
            for name, prod in products.items():
                residuals[sample, name] = max(abs(x - y) for x, y in [
                    *zip(prod(prod(a, b), c), prod(a, prod(b, c))),
                    *zip(prod(a, b), prod(b, a))])
        (sample, product), worst = first_worst(residuals)
        assert product == "lcm" and worst > 0
        row = run_suite("convolution")["checks"][0]
        assert row["identity"] == "associativity and commutativity of the three products"
        assert row["pass"] is False and row["max_residual"] == worst
        assert row["counterexample"] == {"sample": sample, "product": "lcm"}

    def test_wrong_lcm_term_fails_the_lehmer_row_at_its_worst_pair(self, monkeypatch):
        wrong_lcm_term(monkeypatch)
        _, pairs = convolution_samples()
        residuals = {}
        for pair, (alpha, beta) in enumerate(pairs):
            ones = [1] * 200
            lhs = [x * y for x, y in zip(scalar_dirichlet(ones, alpha),
                                         scalar_dirichlet(ones, beta))]
            rhs = scalar_dirichlet(ones, scalar_lcm(alpha, beta))
            residuals[pair] = max(abs(x - y) for x, y in zip(lhs, rhs))
        pair, worst = first_worst(residuals)
        assert worst > 0
        row = run_suite("convolution")["checks"][2]
        assert row["identity"] == "product identity linking the lcm and Dirichlet sums"
        assert row["pass"] is False and row["max_residual"] == worst
        assert row["counterexample"] == {"pair": pair}

    def test_wrong_lcm_term_fails_the_algebra_map_row(self, monkeypatch):
        # the pairs are drawn alpha then beta, each pair in turn, and the row's
        # residual is the worst |P(alpha [] beta) - P(alpha) P(beta)| among them
        wrong_lcm_term(monkeypatch)
        rng, worst = random.Random(suites.SEED), 0.0
        for _ in range(20):
            a, b = (rng.choices(range(-5, 6), k=64) for _ in range(2))
            p = analytic.p_operator
            worst = max(worst, p(scalar_lcm(a, b)).distance(p(a) * p(b)))
        assert worst > 0
        rows = {row["identity"]: row for row in run_suite("analytic")["checks"]}
        row = rows["diagonal map is an algebra map for the lcm product"]
        assert row["pass"] is False and row["max_residual"] == worst

    def test_one_wrong_mobius_value_fails_the_iu_star_row(self, monkeypatch):
        monkeypatch.setattr(analytic, "mobius", lambda n: 0 if n == 7 else arith.mobius(n))
        rows = {row["identity"]: row for row in run_suite("analytic")["checks"]}
        row = rows["diagonal of integration-compose-backward-shift"]
        assert row["pass"] is False and row["max_residual"] == 1.0
        assert row["counterexample"] == {"candidate": "mu*nu_minus1", "matches": True}

    def test_wrong_prime_power_factor_fails_the_ramanujan_row(self, monkeypatch):
        def wrong(n):  # 12 read as 2 * 3: the prime product uses P_j(2), not P_j(4)
            return [(2, 1), (3, 1)] if n == 12 else factorize(n)

        monkeypatch.setattr(ramanujan_ops, "factorize", wrong)
        assert oracle_forms.c_operator_constructions(12)["prime_product"] == 8
        row = run_suite("ramanujan", n_max=12, dim=60)["checks"][1]
        assert row["identity"] == "operator Ramanujan identities (three constructions, partitions)"
        assert row["pass"] is False and row["max_residual"] == 8.0
        assert row["counterexample"] == {"n": 12}

    def test_flipped_projection_entry_fails_the_axioms_row(self, monkeypatch):
        real = IdempotentSystem.projections

        def flipped(self, js, n):  # P_1(3) reads 1 at e_0
            stack = real(self, js, n).copy()
            if n == 3:
                stack[[j % n == 1 for j in js], 0] = 1
            return stack

        monkeypatch.setattr(IdempotentSystem, "projections", flipped)
        row = run_suite("axioms", n_max=12, dim=5)["checks"][0]
        assert row["identity"] == "idempotent system axioms I/II/III + completeness"
        assert row["pass"] is False and row["max_residual"] == 1.0
        # level 3 is first met refining P_0(1) by r = 3: P_1 + P_2 + P_3(3) is 2 at e_0
        assert row["counterexample"] == {"at": ("III", 1, 0, 3)}

    def test_wrong_r_in_the_t_stack_fails_the_ramanujan_row(self, monkeypatch):
        real = ramanujan_ops._class_pairs

        def wrong(levels, n_max):  # T_{r,j}(n) selects the gcd class r instead of n/r
            pairs = real(levels, n_max)
            g = np.repeat(levels.g[:len(pairs.first)], np.diff([*pairs.first, len(pairs.t)]))
            return pairs._replace(t=(pairs.r == g).astype(np.int64))

        monkeypatch.setattr(ramanujan_ops, "_class_pairs", wrong)
        row = run_suite("ramanujan", n_max=12, dim=60)["checks"][1]
        assert row["identity"] == "operator Ramanujan identities (three constructions, partitions)"
        assert row["pass"] is False and row["max_residual"] > 0
        assert row["counterexample"]["n"] > 1  # level 1 has the one class r = n/r = 1

    def test_closed_trace_dropping_a_divisor_fails_the_trace_row(self, monkeypatch):
        real = analytic._floor_sums

        def dropped(levels, n_max):  # the term of d = n is lost: n mu(1) and mu(n) at N = n
            steps = real(levels, n_max).copy()
            for n in range(1, n_max + 1):
                steps[:, n * (n + 1) // 2 - 1] -= n, arith.mobius(n)
            return steps

        monkeypatch.setattr(analytic, "_floor_sums", dropped)
        row = run_suite("analytic", n_max=12)["checks"][1]
        assert row["identity"] == "trace identities for both diagonals"
        assert row["pass"] is False and row["max_residual"] > 0
        # floor(N/n) = 0 below the level, so the lost term shows first at N = n,
        # and its weight n mu(1) is largest at the top level
        assert row["counterexample"] == {"n": 12, "at": {"N": 12}}

    def test_det_prefix_product_off_by_one_entry_fails_the_det_row(self, monkeypatch):
        # c_n(1) = mu(n) read as mu(n) + 1
        wrong_class_values(monkeypatch, lambda levels: levels.c + (levels.g == 1))
        row = run_suite("analytic", n_max=12)["checks"][0]
        assert row["identity"] == "determinant of the Ramanujan diagonal: direct vs closed form"
        assert row["pass"] is False and row["max_residual"] > 0
        n, at = row["counterexample"]["n"], row["counterexample"]["at"]
        assert set(row["counterexample"]) == {"n", "at"} and set(at) == {"N"}
        assert 1 <= at["N"] <= n  # one period decides every window

    def test_totient_above_its_bound_fails_the_growth_row(self, monkeypatch):
        # phi(64) + 1 puts x_64 = (nu0 * phi)(64) at 65, one past |x_m| <= m
        monkeypatch.setattr(suites, "totient", lambda n: arith.totient(n) + (n == 64))
        row = run_suite("analytic", n_max=12)["checks"][-1]
        assert row["identity"].startswith("growth bounds of the diagonal map")
        assert row["pass"] is False and row["max_residual"] == 1
        assert row["counterexample"] == {"alpha": "totient", "at": {"m": 64}}

    def test_diagonal_map_without_its_top_term_fails_the_growth_row(self, monkeypatch):
        # x_m = sum_{d|m, d<m} alpha(d): phi and eps stay within |x_m| <= m, but 2^n
        # falls below x_m >= 2^m at every m, furthest at m = 64 (by 2^64 - 2^32 - ...)
        real = analytic.p_operator
        monkeypatch.setattr(analytic, "p_operator",
                            lambda alpha: real(alpha) - DiagonalOperator(alpha, 1))
        row = run_suite("analytic", n_max=12)["checks"][-1]
        assert row["pass"] is False and row["max_residual"] > 2.0**63
        assert row["counterexample"] == {"alpha": "2**n", "at": {"m": 64}}

    @pytest.mark.parametrize("suite, rows", [("axioms", 3), ("ramanujan", 1)])
    def test_multiplicativity_rows_reach_the_first_coprime_pair(self, monkeypatch, suite, rows):
        # every family failing at every coprime split but 1 = 1 * 1, in the pass the
        # rows read: the first of them, (2, 3), needs levels up to 6 even at n-max 5
        real = suites.family_residuals

        def failing(classes, n_max):
            n, m, residuals = real(classes, n_max)
            return n, m, residuals + (n > 1)

        monkeypatch.setattr(suites, "family_residuals", failing)
        report = run_suite(suite, n_max=5, dim=12)
        checked = [row for row in report["checks"] if "multiplicativity" in row["identity"]]
        assert len(checked) == rows
        for row in checked:
            assert row["params"]["n_max"] == 6
            assert row["pass"] is False
            assert row["counterexample"]["at"] == {"n": 2, "m": 3}

    def test_wrong_jordan_value_fails_both_euler_power_checks(self, monkeypatch):
        # the Euler row and p_operator_identities compare the same P(J_r) with theta^r
        real = analytic._jordan_table
        monkeypatch.setattr(analytic, "_jordan_table", lambda r, n_max: [
            value + (n == 7) for n, value in enumerate(real(r, n_max), 1)])
        rows = {row["identity"]: row for row in run_suite("analytic", **SMALL)["checks"]}
        euler = rows["Euler-operator representation of totient and Jordan powers"]
        assert euler["pass"] is False and euler["max_residual"] == 1.0
        assert euler["counterexample"] == {"alpha": "totient"}
        assert rows["diagonal map is an algebra map for the lcm product"]["pass"] is False
        assert sum(not row["pass"] for row in rows.values()) == 2

    @pytest.mark.parametrize("alpha", ["jordan:3", "mobius"])
    def test_one_wrong_euler_table_fails_its_own_case(self, monkeypatch, alpha):
        # each case reads its own column of the one stacked pass: J_3 off at 7, or the
        # sieve's mu(6) = 1 read as 0 (arith's product serves mobius_table alone)
        jordan, product = analytic._jordan_table, arith.prime_power_product

        def wrong_mu(factor, unit):
            return np.where(np.arange(len(factor)) == 6, 0, product(factor, unit))

        if alpha == "jordan:3":
            monkeypatch.setattr(analytic, "_jordan_table", lambda r, n_max: [
                value + (r == 3 and n == 7) for n, value in enumerate(jordan(r, n_max), 1)])
        else:
            monkeypatch.setattr(arith, "prime_power_product", wrong_mu)
        rows = {row["identity"]: row for row in run_suite("analytic", **SMALL)["checks"]}
        euler = rows["Euler-operator representation of totient and Jordan powers"]
        assert euler["pass"] is False and euler["max_residual"] == 1.0
        assert euler["counterexample"] == {"alpha": alpha}
        # the algebra-map row reads the J_r columns alone
        algebra_map = rows["diagonal map is an algebra map for the lcm product"]
        assert algebra_map["pass"] is (alpha == "mobius")

    def test_wrong_lcm_term_fails_the_identity_law_row_on_the_left_identity(self,
                                                                            monkeypatch):
        # the term (1, 6) of the lcm product reads b(5): I [] phi is off at 6 by
        # phi(6) - phi(5), while phi [] I never reads that term
        wrong_lcm_term(monkeypatch)
        phi, ident = scalar_table(arith.totient, 60), [1] + [0] * 59
        left, right = (max(abs(x - y) for x, y in zip(product, phi))
                       for product in (scalar_lcm(ident, phi), scalar_lcm(phi, ident)))
        assert (left, right) == (2, 0)
        row = run_suite("convolution")["checks"][1]
        assert row["identity"] == "identity laws and Dirichlet inverse round trip"
        assert row["pass"] is False and row["max_residual"] == 2.0
        assert row["counterexample"] == {"product": "lcm"}

    def test_failed_row_names_its_worst_case(self, monkeypatch):
        real = IdempotentSystem.projections

        def flipped(self, js, n):  # P_0(n) reads 1 at e_1 for n = 3 and 5 (on one period)
            stack = real(self, js, n).copy()
            if n in (3, 5) and self.dim == n:
                stack[0, 1] = 1
            return stack

        monkeypatch.setattr(IdempotentSystem, "projections", flipped)
        report = run_suite("axioms", n_max=6, dim=24)
        (row,) = [row for row in report["checks"] if not row["pass"]]
        assert row["identity"] == "congruence-exact vs DFT provider"
        # the worst of the row's cases: n P_0(n) is off by n at the flipped entry
        residuals = {n: ramanujan_ops.root_sum_residual(
            range(n), np.arange(n), n, n * flipped(IdempotentSystem(n), [0], n)[0])
            for n in range(1, 7)}
        assert residuals == {1: 0, 2: 0, 3: 3, 4: 0, 5: 5, 6: 0}
        assert row["counterexample"] == {"n": 5}
        assert row["max_residual"] == 5.0


class TestCheck:
    @pytest.mark.parametrize("error", [InverseCheckError, NonInvertibleError])
    def test_check_error_becomes_failed_row(self, error):
        def residual(n):
            if n == 2:
                raise error(f"broken at n={n}")
            return 0

        row = _check("probe", {}, [(1,), (2,), (3,)], residual)
        assert row == {"identity": "probe", "params": {}, "max_residual": None,
                       "pass": False, "error": f"{error.__name__}: broken at n=2"}

    def test_any_exception_becomes_failed_row(self):
        def residual(n):
            raise KeyError(36)  # a kernel bug, not a failed identity

        row = _check("probe", {}, [(1,)], residual)
        assert row == {"identity": "probe", "params": {}, "max_residual": None,
                       "pass": False, "error": "KeyError: 36"}

    def test_raising_kernel_fails_only_its_own_row(self, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(suites, "orthogonality_residuals", broken)
        report = run_suite("transforms", **SMALL)
        assert report["summary"] == {"total": 3, "passed": 2, "failed": 1}
        (row,) = [row for row in report["checks"] if not row["pass"]]
        assert row["identity"] == "Ramanujan sum orthogonality"
        assert row["error"] == "ZeroDivisionError: division by zero"

    def test_nan_residual_fails_and_is_kept_as_worst(self):
        # a later, larger residual does not replace it
        row = _check("probe", {}, [(0,), (2,), (3,)], lambda n: math.nan if n == 2 else n)
        assert row["pass"] is False
        assert math.isnan(row["max_residual"])
        assert row["counterexample"] == {"n": 2}

    def test_location_joins_counterexample(self):
        row = _check("probe", {}, [(1,), (2,)], lambda n: (n, ("I", n)))
        assert row["pass"] is False
        assert row["max_residual"] == 2.0
        assert row["counterexample"] == {"n": 2, "at": ("I", 2)}

    def test_passing_row_has_no_extra_keys(self):
        row = _check("probe", {"k": 1}, [(1,), (2,)], lambda n: 0)
        assert row == {"identity": "probe", "params": {"k": 1}, "max_residual": 0.0,
                       "pass": True}


def test_library_path_never_imports_numpy_random():
    # the samples come from the stdlib random module, which numpy imports anyway
    script = textwrap.dedent("""
        import sys
        from idemarith import analytic, convolution, suites
        from idemarith.algebra import Scalar
        from idemarith.idempotents import IdempotentSystem

        suites.run_suite("all")
        analytic.p_operator_identities(IdempotentSystem(40, 1), 40, pairs=2, seed=3)
        f = convolution.AlgFunction(map(Scalar, [1, 2, -3] * 20))
        convolution.dirichlet_inverse(f, tol=0)
        convolution.is_multiplicative(f, tol=0)
        print("numpy.random" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(analytic.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == "False\n"
