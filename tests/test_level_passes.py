"""The level passes of ``ramanujan_ops`` and ``analytic`` against their
per-level oracles in ``oracle_forms``, the level and class tables against
the scalar functions, faults that each pass must see, and how often a run
builds its tables.

``assert_passes_match_oracles(n_max)`` is the comparison at one n-max; the
tests run it up to 200, and CI at 1000.
"""

import math

import numpy as np
import pytest

import oracle_forms
from idemarith import analytic, arith, ramanujan_ops, suites
from idemarith.ramanujan_ops import (OperatorFamily, class_table, level_table,
                                     operator_residuals, orthogonality_residuals, root_sums,
                                     scalar_residuals, transform_residuals)
from idemarith.suites import run_suite

ROWS = ("scalar", "operators", "transforms", "orthogonality", "trace", "det")


def first_worst(residuals):
    """The largest residual and the first place (from 1) that holds it."""
    worst = max(residuals)
    return worst, residuals.index(worst) + 1


def divisor_formula(n_max):
    """c_n(g) of ``ramanujan_sum`` at every class g | n of every level n <= n_max."""
    return [arith.ramanujan_sum(n, g) for n in range(1, n_max + 1) for g in arith.divisors(n)]


def pass_rows(levels, n_max, classes=None):
    """Each row's (residual, location) at every level n <= n_max, from its pass
    over the table levels (and classes, by default its ``class_table``); the
    determinant from level 2, as its oracle."""
    sums, classes = root_sums(levels), class_table(levels) if classes is None else classes
    return {
        "scalar": [(int(x), None) for x in scalar_residuals(levels, sums, classes, n_max)],
        "operators": [(int(x), None) for x in operator_residuals(levels, sums, n_max)],
        "transforms": [(int(x), None) for x in transform_residuals(levels, n_max)],
        "orthogonality": [(int(x), int(l))
                          for x, l in zip(*orthogonality_residuals(levels, n_max))],
        "trace": [(int(x), int(at)) for x, at in zip(*analytic.trace_residuals(levels, n_max))],
        "det": analytic.det_residuals(levels, n_max)[1:],
    }


def oracle_rows(n_max):
    """The same rows from the per-level oracles, one level at a time."""
    rows = {row: [] for row in ROWS}
    for n in range(1, n_max + 1):
        rows["scalar"].append((oracle_forms.root_of_unity_residual(n), None))
        rows["operators"].append((int(max(*oracle_forms.c_operator_constructions(n).values(),
                                          oracle_forms.t_top_identities(n),
                                          oracle_forms.t_decomposition(n))), None))
        rows["transforms"].append((int(oracle_forms.c_t_transforms(n)), None))
        worst, at = oracle_forms.orthogonality_residual(n)
        rows["orthogonality"].append((worst, at["l"]))
        rows["trace"].append(first_worst([
            max(abs(c0 - c0_closed), abs(t0 - t0_closed)) for c0, c0_closed, t0, t0_closed
            in oracle_forms.trace_table(n, range(1, n + 1)).tolist()]))
        if n > 1:
            rows["det"].append(first_worst([abs(direct - closed) for direct, closed
                                            in oracle_forms.det_table(n, range(1, n + 1))]))
    return rows


def failed_levels(n_max):
    """The levels at which each pass of the scalar, operator, transform and
    orthogonality rows has a positive residual, for the rows that have one."""
    got = pass_rows(level_table(n_max), n_max)
    levels = {row: [n for n, (residual, _) in enumerate(got[row], 1) if residual]
              for row in ("scalar", "operators", "transforms", "orthogonality")}
    return {row: found for row, found in levels.items() if found}


def assert_passes_match_oracles(n_max: int):
    """Every pass equals its per-level oracle at every level n <= n_max, in
    residual and location, and every residual is 0; the class table is
    ``ramanujan_sum`` at every class of those levels; and the family pass is
    its per-split loop at every coprime split nm <= n_max, every residual 0."""
    levels = level_table(n_max)
    got, expected = pass_rows(levels, n_max), oracle_rows(n_max)
    for row in ROWS:
        assert got[row] == expected[row], row
        assert {residual for residual, _ in got[row]} <= {0}, row
    classes = class_table(levels)
    assert classes.c.tolist() == divisor_formula(n_max)
    n, m, families = ramanujan_ops.family_residuals(classes, n_max)
    assert (n.tolist(), m.tolist(), families.tolist()) == oracle_forms.family_residuals_loop(n_max)
    assert not families.any()


@pytest.fixture(scope="module")
def oracles_to_60():
    return oracle_rows(60)


def test_passes_match_the_oracles_at_every_n_max_to_60(oracles_to_60):
    # each n-max builds its own table, so every prefix and table end is met
    for n_max in range(1, 61):
        got = pass_rows(level_table(n_max), n_max)
        for row in ROWS:
            assert got[row] == oracles_to_60[row][:n_max - (row == "det")], (n_max, row)


def test_passes_read_a_prefix_of_a_larger_table(oracles_to_60):
    # the suites build one table to min(n_max, 200) and each row reads its prefix
    got = pass_rows(level_table(200), 60)
    assert got == oracles_to_60


def test_passes_match_the_oracles_at_n_max_200():
    assert_passes_match_oracles(200)


@pytest.mark.parametrize("n0, g0, delta", [(12, 4, 1), (30, 6, -2), (7, 1, 3), (16, 16, 1)])
def test_passes_and_oracles_see_a_wrong_class_value_alike(monkeypatch, n0, g0, delta):
    # c_{n0}(g0) off by delta in the level and class tables, in ramanujan_sum (which
    # builds the oracles' class tables) and in the one-period c_n rows of trace_table
    # and det_table
    def wrong_sum(r, x):
        return arith.ramanujan_sum(r, x) + delta * ((r, math.gcd(x % r, r)) == (n0, g0))

    real_period = analytic._c_period

    def wrong_period(n, n_max, mu):
        row = real_period(n, n_max, mu).copy()
        if n == n0:
            row[np.gcd(np.arange(1, row.size + 1), n0) == g0] += delta
        return row

    monkeypatch.setattr(ramanujan_ops, "ramanujan_sum", wrong_sum)
    monkeypatch.setattr(analytic, "_c_period", wrong_period)
    oracle_forms._divisor_tables.cache_clear()  # tables built from the wrong c
    try:
        levels = level_table(40)
        classes = class_table(levels)
        wrong = [table._replace(c=table.c.copy()) for table in (levels, classes)]
        for table in wrong:
            table.c[table.at(n0, g0)] += delta
        got, expected = pass_rows(wrong[0], 40, wrong[1]), oracle_rows(40)
    finally:
        oracle_forms._divisor_tables.cache_clear()
    assert got == expected
    # the scalar row sees it at n0 alone; the rows that weigh it by 0 may not
    assert [n for n, (residual, _) in enumerate(got["scalar"], 1) if residual] == [n0]


class TestLevelTable:
    def test_class_values_are_the_scalar_functions(self):
        # Hoelder's c_n(g) against the divisor formula, and mu(n/g), at every g | n <= 1000
        levels = level_table(1000)
        n, g = levels.n.tolist(), levels.g.tolist()
        assert levels.starts.tolist() == [0, *np.cumsum([arith.tau(m) for m in range(1, 1001)])]
        assert g == [d for m in range(1, 1001) for d in arith.divisors(m)]
        assert levels.c.tolist() == [arith.ramanujan_sum(m, d) for m, d in zip(n, g)]
        assert levels.mu.tolist() == [arith.mobius(m // d) for m, d in zip(n, g)]
        assert levels.at(levels.n, levels.g).tolist() == list(range(len(n)))

    @pytest.mark.parametrize("n_max", [1, 200])
    def test_class_table_is_the_divisor_formula(self, n_max):
        levels = level_table(n_max)
        classes = class_table(levels)
        assert classes.c.tolist() == divisor_formula(n_max)
        for field in ("starts", "n", "g", "mu"):
            assert getattr(classes, field).tolist() == getattr(levels, field).tolist()

    @pytest.mark.parametrize("n_max", [1, 2, 12, 61])
    def test_classes_list_every_k_of_every_level(self, n_max):
        levels = level_table(n_max)
        n, k, e = levels.classes(n_max)
        assert list(zip(n.tolist(), k.tolist())) == [
            (m, x) for m in range(1, n_max + 1) for x in range(1, m + 1)]
        assert levels.g[e].tolist() == np.gcd(k, n).tolist()
        assert (levels.n[e] == n).all()

    @pytest.mark.parametrize("n, j, offset, dim", [(12, 5, 0, 40), (30, -7, 1, 61), (1, 0, 0, 3)])
    def test_operators_are_the_class_values_read_at_their_classes(self, n, j, offset, dim):
        # the premise of every pass: C_j(r), P_j(r) and T_{r,j}(n), r | n, read their
        # class gcd(m - j, n) off the table and the pairs
        levels, fam = level_table(n), OperatorFamily(dim, offset)
        pairs = ramanujan_ops._class_pairs(levels, n)
        classes = levels.at(n, np.gcd((np.arange(offset, offset + dim) - j) % n, n))
        for i, r in enumerate(arith.divisors(n)):
            at = pairs.first[classes] + i  # the pair (class, r)
            assert (pairs.r[at] == r).all()
            assert fam.c_operator(j, r).entries == tuple(pairs.cr[at].tolist())
            assert fam.projection(j, r).entries == tuple(pairs.p[at].tolist())
            assert fam.t_operator(r, j, n).entries == tuple(pairs.t[at].tolist())
        assert fam.c_operator(j, n).entries == tuple(levels.c[classes].tolist())

    def test_root_sums_are_the_float_sums(self):
        levels = level_table(60)
        sums, q = root_sums(levels)
        for n, g, s, q_n in zip(levels.n.tolist(), levels.g.tolist(), sums.tolist(), q.tolist()):
            units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
            exact = round(sum(math.cos(2 * math.pi * k * g / n) for k in units))
            assert s == exact % q_n and q_n == ramanujan_ops._roots_mod(n)[0]


class TestFaultsFailTheirRows:
    def test_one_wrong_mobius_value_in_the_table(self, monkeypatch):
        # mu(12/2) = mu(6) = 1 read as 0 at the class (12, 2); the class values stay
        def wrong(n_max):
            levels = level_table(n_max)
            mu = levels.mu.copy()
            mu[levels.at(12, 2)] = 0
            return levels._replace(mu=mu)

        monkeypatch.setattr(suites, "level_table", wrong)
        failed = {row["identity"]: row for row in run_suite("all", n_max=12)["checks"]
                  if not row["pass"]}
        assert list(failed) == [
            "operator Ramanujan identities (three constructions, partitions)",
            "trace identities for both diagonals"]
        # sum_{r|12} r mu(12/r) P_j(r) loses 2 mu(6) at the classes 2 | g
        operators = failed["operator Ramanujan identities (three constructions, partitions)"]
        assert operators["max_residual"] == 2.0 and operators["counterexample"] == {"n": 12}
        # the closed trace of C_0(12) loses 2 mu(6) floor(N/2), 12 at N = 12
        trace = failed["trace identities for both diagonals"]
        assert trace["max_residual"] == 12.0
        assert trace["counterexample"] == {"n": 12, "at": {"N": 12}}

    def test_a_coprime_class_count_one_short_fails_the_trace_row(self, monkeypatch):
        # k = 5 at level 12 read in the class 12, not 1: from N = 5 the coprime
        # count is one short and the C_0 trace adds c_12(12) - c_12(1) = 4
        real = ramanujan_ops.LevelTable.classes

        def wrong(self, n_max):
            n, k, e = real(self, n_max)
            e = e.copy()
            e[(n == 12) & (k == 5)] = self.at(12, 12)
            return n, k, e

        monkeypatch.setattr(ramanujan_ops.LevelTable, "classes", wrong)
        failed = [row for row in run_suite("analytic", n_max=12)["checks"] if not row["pass"]]
        assert [row["identity"] for row in failed] == ["trace identities for both diagonals"]
        assert failed[0]["max_residual"] == 4.0
        assert failed[0]["counterexample"] == {"n": 12, "at": {"N": 5}}

    def test_phi_of_g_for_the_holder_quotient_fails_the_scalar_row(self, monkeypatch):
        # c_n(g) = mu(n/g) phi(g) in place of mu(n/g) phi(n)/phi(n/g): they differ where
        # gcd(g, n/g) > 1, most at (8, 4) and (12, 6), by 2
        def wrong(n_max):
            levels = level_table(n_max)
            return levels._replace(c=levels.mu * [arith.totient(g) for g in levels.g.tolist()])

        monkeypatch.setattr(suites, "level_table", wrong)
        row = run_suite("ramanujan", n_max=12)["checks"][0]
        assert row["identity"] == "scalar Ramanujan sums vs root-of-unity oracle"
        expected = first_worst([max(abs(arith.mobius(n // g) * arith.totient(g)
                                        - arith.ramanujan_sum(n, g)) for g in arith.divisors(n))
                                for n in range(1, 13)])
        assert (row["max_residual"], row["counterexample"]) == (2.0, {"n": 8})
        assert expected == (2, 8)


    @pytest.mark.parametrize("delta", [-1, 1])
    def test_a_wrong_divisor_formula_alone_fails_the_scalar_row(self, monkeypatch, delta):
        # the class table off at c_12(4) alone: the level table and the root sums still
        # agree, so of the level rows only the comparison with the divisor formula can
        # see it (c_12(4) breaks the C family's multiplicativity at the split (3, 4))
        def wrong(levels):
            classes = class_table(levels)
            c = classes.c.copy()
            c[classes.at(12, 4)] += delta
            return classes._replace(c=c)

        monkeypatch.setattr(suites, "class_table", wrong)
        failed = [row for row in run_suite("ramanujan", n_max=12)["checks"] if not row["pass"]]
        assert [row["identity"] for row in failed] == [
            "scalar Ramanujan sums vs root-of-unity oracle",
            "multiplicativity of operator families"]
        assert failed[0]["max_residual"] == 1.0 and failed[0]["counterexample"] == {"n": 12}
        assert failed[1]["max_residual"] == 1.0
        assert failed[1]["counterexample"] == {"kind": "C", "at": {"n": 3, "m": 4}}

    def test_one_wrong_mobius_value_fails_the_scalar_row(self, monkeypatch):
        # mu(6) = 1 read as 0 by the one sieve that the level table's Hoelder values and
        # the class table's divisor formula share: they still agree where they both
        # weigh mu(6), at (6, 1) by 0 in place of 1, but the root sums do not
        real = arith.prime_power_product
        monkeypatch.setattr(arith, "prime_power_product", lambda factor, unit: np.where(
            np.arange(len(factor)) == 6, 0, real(factor, unit)))
        assert arith.mobius_table(12)[1:].tolist() == [
            0 if n == 6 else arith.mobius(n) for n in range(1, 13)]
        assert failed_levels(12)["scalar"] == [6, 12]
        row = run_suite("ramanujan", n_max=12)["checks"][0]
        assert row["identity"] == "scalar Ramanujan sums vs root-of-unity oracle"
        assert (row["max_residual"], row["counterexample"]) == (2.0, {"n": 12})

    @pytest.mark.parametrize("field, pair, value, rows", [
        # a value at the pair (class (n, g), r) = ((12, 4), r) of _class_pairs
        ("r", 4, 5, {"operators"}),  # r mu(n/r) P_j(r): 4 mu(3) read as 5 mu(3)
        ("mu_nr", 4, 0, {"operators"}),  # mu(12/4) = -1 read as 0
        ("p", 4, 2, {"operators"}),  # [4 | 4] read as 2
        ("mu_r", 2, 0, {"operators"}),  # mu(2) = -1 read as 0
        ("t", 3, 0, {"operators", "transforms"}),  # T_3(12) loses its class 4: no 1 there
        ("w", 3, 0, {"orthogonality", "transforms"}),  # c_12(12/3) = -2 read as 0
        ("cr", 3, 0, {"orthogonality", "transforms"}),  # c_3(4) = -1 read as 0
    ])
    def test_each_value_a_pass_reads_fails_its_rows(self, monkeypatch, field, pair, value, rows):
        real = ramanujan_ops._class_pairs

        def wrong(levels, n_max):
            pairs = real(levels, n_max)
            if n_max < 12:
                return pairs
            at = pairs.first[levels.at(12, 4)] + arith.divisors(12).index(pair)
            values = getattr(pairs, field).copy()
            values[at] = value
            return pairs._replace(**{field: values})

        monkeypatch.setattr(ramanujan_ops, "_class_pairs", wrong)
        assert failed_levels(12) == {row: [12] for row in rows}

    @pytest.mark.parametrize("form", [0, 1])
    def test_a_wrong_prime_product_fails_the_operator_row(self, monkeypatch, form):
        # the prime-product form of C_j(12) (form 0) or of T_{12,j}(12) (form 1),
        # off by one at the class 4
        real = ramanujan_ops._prime_products

        def wrong(n, g, n_max):
            products = [x.copy() for x in real(n, g, n_max)]
            products[form][(n == 12) & (g == 4)] += 1
            return tuple(products)

        monkeypatch.setattr(ramanujan_ops, "_prime_products", wrong)
        assert failed_levels(12) == {"operators": [12]}


def test_a_run_builds_its_level_table_and_root_sums_once(monkeypatch):
    # every level row reads one table, to level 48 at least, and two of them one set
    # of root sums; the scalar row's 200 levels would overrun any per-level cache of
    # 64.  The class table, built from the level table, serves the scalar,
    # family-multiplicativity and even-function rows
    built = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(arg):
            built.append((name, arg if name == "level_table" else len(arg.starts) - 1))
            return real(arg)
        monkeypatch.setattr(module, name, counted)

    for module in (suites, ramanujan_ops):  # a package call of either name is seen
        for name in ("level_table", "root_sums", "class_table"):
            spy(module, name)
    for n_max in (200, 200, 12):
        assert run_suite("all", n_max=n_max)["pass"] is True
    assert built == [("level_table", 200), ("class_table", 200), ("root_sums", 200)] * 2 + [
        ("level_table", 48), ("class_table", 48), ("root_sums", 48)]


def test_a_run_makes_no_ramanujan_sum_call(monkeypatch):
    # every class value a run reads comes from the level table, the class table or the
    # root sums; ramanujan_sum stays the scalar API and the tests' oracle
    def refused(n, j):
        raise AssertionError(f"ramanujan_sum({n}, {j}) called")

    for module in (arith, ramanujan_ops):
        monkeypatch.setattr(module, "ramanujan_sum", refused)
    assert run_suite("all")["pass"] is True
