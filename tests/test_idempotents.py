"""Congruence-diagonal idempotent systems: axioms, product laws, weighted
convolution identities."""

import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idemarith import convolution, idempotents
from idemarith.algebra import DiagonalOperator, is_idempotent
from idemarith.arith import divisors, lcm_tuple_count, omega, ramanujan_sum, totient
from idemarith.convolution import AlgFunction, is_multiplicative, scalar_table
from idemarith.idempotents import (
    IdempotentSystem,
    product_law_residuals,
    verify_axioms,
    weighted_product_identities,
)
from idemarith.ramanujan_ops import OperatorFamily
from oracle_forms import crt_solve, product_law, s_power_sum, weighted_identities_elements


class TestProjection:
    def test_level_one_is_identity(self):
        system = IdempotentSystem(6)
        assert system.projection(0, 1).isclose(system.unit(), 0)

    def test_congruence_indicator(self):
        system = IdempotentSystem(4, offset=0)
        assert system.projection(1, 2).entries == (0, 1, 0, 1)

    @pytest.mark.parametrize("offset", [-1, 2, 7])
    def test_rejects_offset_other_than_0_or_1(self, offset):
        with pytest.raises(ValueError, match="offset"):
            IdempotentSystem(5, offset)

    def test_periodicity(self):
        system = IdempotentSystem(12)
        assert system.projection(5, 3).entries == system.projection(2, 3).entries
        assert system.projection(-1, 3).entries == system.projection(2, 3).entries

    def test_each_projection_idempotent(self):
        system = IdempotentSystem(24)
        for n in range(1, 13):
            for j in range(n):
                assert is_idempotent(system.projection(j, n), 0)

    def test_dft_agrees_with_exact(self):
        # P_j(n) = (1/n) sum_{l < n} eps_n^{-lj} S(n)^l
        dft = OperatorFamily(64)
        for n in range(1, 25):
            for j in range(n):
                assert s_power_sum(dft, j, n, range(n)).scale(1 / n).distance(
                    dft.projection(j, n)) < 1e-9


class TestPeriodRowBuilders:
    """P, C and T are built from one period of values; the per-entry
    formulas over every basis exponent are the oracle."""

    @staticmethod
    def window(dim, offset):
        return range(offset, offset + dim)

    @given(st.integers(-10**6, 10**6), st.integers(1, 80), st.integers(1, 300),
           st.integers(0, 1))
    def test_projection(self, j, n, dim, offset):
        built = IdempotentSystem(dim, offset).projection(j, n)
        expected = tuple(1 if k % n == j % n else 0 for k in self.window(dim, offset))
        assert built.entries == expected and built.offset == offset

    @given(st.integers(-10**6, 10**6), st.integers(1, 80), st.integers(1, 300),
           st.integers(0, 1))
    def test_c_operator(self, j, n, dim, offset):
        built = OperatorFamily(dim, offset).c_operator(j, n)
        expected = tuple(ramanujan_sum(n, m - j) for m in self.window(dim, offset))
        assert built.entries == expected and built.offset == offset

    @given(st.integers(-10**6, 10**6), st.integers(1, 80), st.integers(1, 300),
           st.integers(0, 1), st.data())
    def test_t_operator(self, j, n, dim, offset, data):
        r = data.draw(st.sampled_from(divisors(n)))
        built = OperatorFamily(dim, offset).t_operator(r, j, n)
        expected = tuple(1 if math.gcd((m - j) % n, n) == n // r else 0
                         for m in self.window(dim, offset))
        assert built.entries == expected and built.offset == offset


def axioms_instances(system, n_limit):
    """Every axiom instance (lhs, rhs, (axiom, n, j, r)) built from
    ``system.projection`` diagonals, in the order I, II, completeness, III
    at each n, III from r = 1."""
    for n in range(1, n_limit + 1):
        projs = [system.projection(j, n) for j in range(n)]
        for i in range(n):
            for j in range(n):
                expected = projs[i] if i == j else projs[i].zero()
                yield projs[i] * projs[j], expected, ("I", n, (i, j), None)
        for j in range(n):
            yield system.projection(j + n, n), projs[j], ("II", n, j, None)
        total = projs[0].zero()
        for p in projs:
            total = total + p
        yield total, system.unit(), ("completeness", n, None, None)
        for r in range(1, 7):
            for j in range(n):
                acc = projs[0].zero()
                for k in range(1, r + 1):
                    acc = acc + system.projection(j + k * n, n * r)
                yield acc, projs[j], ("III", n, j, r)


def axioms_oracle(system, n_limit):
    """verify_axioms one operator at a time: the first of ``axioms_instances``
    with the worst residual wins."""
    return max(((lhs.distance(rhs), where)
                for lhs, rhs, where in axioms_instances(system, n_limit)),
               key=operator.itemgetter(0))


class Flipped(IdempotentSystem):
    """A wrong provider: the entry at window position ``column`` of every
    P_j(n) with j = residue (mod level) is flipped between 0 and 1, and with
    ``periodic`` also every level-th entry after it, so the fault repeats
    with the level.  Its ``projection`` reads the same stacks, so the
    per-operator oracle sees the same fault."""

    def __init__(self, dim, offset, level, residue, column, periodic=False):
        super().__init__(dim, offset)
        self.fault = level, residue, column, periodic

    def projections(self, js, n):
        stack = super().projections(js, n).copy()
        level, residue, column, periodic = self.fault
        if n == level and column < self.dim:
            rows = [i for i, j in enumerate(js) if j % n == residue]
            columns = slice(column, None, level) if periodic else column
            stack[rows, columns] = 1 - stack[rows, columns]
        return stack

    def projection(self, j, n):
        return DiagonalOperator(self.projections([j], n)[0], self.offset)


class Aperiodic(IdempotentSystem):
    """A provider that breaks periodicity: P_j(n) with n <= j < 2n, for the
    given level, is scaled by ``scale`` at window position ``column``."""

    def __init__(self, dim, offset, level, column, scale=3):
        super().__init__(dim, offset)
        self.fault = level, column, scale

    def projections(self, js, n):
        stack = super().projections(js, n).copy()
        level, column, scale = self.fault
        if n == level:
            stack[[n <= j < 2 * n for j in js], column] *= scale
        return stack

    def projection(self, j, n):
        return DiagonalOperator(self.projections([j], n)[0], self.offset)


class Scaled(Flipped):
    """Flipped, with every entry of its faulty level's stacks times ``scale``."""

    def __init__(self, dim, offset, level, residue, column, scale):
        super().__init__(dim, offset, level, residue, column)
        self.scale = scale

    def projections(self, js, n):
        stack = super().projections(js, n)
        return stack * self.scale if n == self.fault[0] else stack


class TestVerifyAxioms:
    def test_congruence_realization_passes(self):
        worst, _ = verify_axioms(IdempotentSystem(64), n_limit=12)
        assert worst == 0

    def test_completeness_at_level_one(self):
        worst, _ = verify_axioms(IdempotentSystem(16), n_limit=1)
        assert worst == 0

    def test_fault_injection_reported(self):
        class Corrupted(IdempotentSystem):
            def projections(self, js, n):
                stack = super().projections(js, n)
                if n == 3:
                    return np.where([[j % n == 1] for j in js], 2 * stack, stack)
                return stack

        worst, (axiom, n, _, _) = verify_axioms(Corrupted(12), n_limit=4)
        assert worst > 0
        assert (axiom, n) == ("I", 3)

    @pytest.mark.parametrize("n_limit", [0, -2])
    def test_rejects_nothing_to_check(self, n_limit):
        # these returned (0.0, None), a pass with no instance evaluated
        with pytest.raises(ValueError, match="n_limit >= 1"):
            verify_axioms(IdempotentSystem(8), n_limit)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 90), st.integers(0, 1), st.integers(1, 12))
    def test_matches_per_operator_oracle(self, dim, offset, n_limit):
        system = IdempotentSystem(dim, offset)
        assert verify_axioms(system, n_limit) == axioms_oracle(system, n_limit) == (
            0.0, ("I", 1, (0, 0), None))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 90), st.integers(0, 1), st.integers(1, 12), st.data())
    def test_wrong_projection_is_placed_like_the_oracle(self, dim, offset, n_limit, data):
        level = data.draw(st.integers(1, 6 * n_limit))
        system = Flipped(dim, offset, level, data.draw(st.integers(0, level - 1)),
                         data.draw(st.integers(0, dim - 1)))
        assert verify_axioms(system, n_limit) == axioms_oracle(system, n_limit)

    @pytest.mark.parametrize("dim", [5, 72, 2520])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_one_call_refinement_sum_is_the_per_k_sum(self, dim, offset):
        # axiom III's premise: rows n..(r+1)n - 1 of one call at level n r, as (r, n),
        # hold P_{j+kn}(nr) at [k - 1, j], so their sum over k is sum_{k<=r} P_{j+kn}(nr)
        system = IdempotentSystem(dim, offset)
        for n in range(1, 13):
            for r in range(2, 7):
                one_call = system.projections(range(n, (r + 1) * n), n * r).reshape(r, n, -1)
                per_k = sum(system.projections(range(k * n, k * n + n), n * r)
                            for k in range(1, r + 1))
                assert np.array_equal(one_call.sum(axis=0), per_k)

    @pytest.mark.parametrize("system", [IdempotentSystem(72, 1), Aperiodic(72, 0, 5, 3),
                                        Aperiodic(40, 1, 8, 1)])
    def test_refinement_by_one_repeats_periodicity(self, system):
        # III at r = 1 is sum_{k=1}^{1} P_{j+kn}(n) = P_{j+n}(n) against P_j(n), II itself:
        # its residuals are II's, which come first in the argmax order, so
        # verify_axioms leaves r = 1 out and places every worst case alike
        rows = {where: lhs.distance(rhs) for lhs, rhs, where in axioms_instances(system, 12)}
        assert [rows["III", n, j, 1] for n in range(1, 13) for j in range(n)] == [
            rows["II", n, j, None] for n in range(1, 13) for j in range(n)]
        assert verify_axioms(system, 12) == axioms_oracle(system, 12)

    def test_memory_stays_near_a_few_level_stacks(self):
        # axiom I is one n x n x dim int8 broadcast (0.36 MB at n 12, dim 2520),
        # and axiom III's largest temporary the 6n x dim int64 stack of one
        # refinement (1.45 MB), summed over k before the next is built; the same
        # broadcast in int64 would be 2.9 MB alone
        system = IdempotentSystem(2520)
        verify_axioms(system, 12)
        tracemalloc.start()
        try:
            verify_axioms(system, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestProductLaw:
    def test_crt_case(self):
        system = IdempotentSystem(18)
        product, verdict = product_law(system, 1, 2, 2, 3)
        assert verdict == {"kind": "projection", "j": 5, "level": 6, "residual": 0.0}
        assert product.isclose(system.projection(5, 6), 0)

    def test_insolvable_case_is_zero(self):
        system = IdempotentSystem(8)
        product, verdict = product_law(system, 0, 2, 1, 2)
        assert verdict["kind"] == "zero"
        assert product.isclose(product.zero(), 0)

    def test_coprime_same_index(self):
        system = IdempotentSystem(45)
        for j in range(3):
            product, verdict = product_law(system, j, 3, j, 5)
            assert verdict["kind"] == "projection"
            assert product.isclose(system.projection(j, 15), 0)

    def test_exhaustive_small_levels(self):
        for n in range(1, 9):
            for m in range(1, 9):
                lcm = n * m // math.gcd(n, m)
                system = IdempotentSystem(3 * lcm)
                for k in range(n):
                    for l in range(m):
                        _, verdict = product_law(system, k, n, l, m)
                        assert verdict["residual"] == 0, (k, n, l, m)


def multiplicativity(f: AlgFunction):
    """is_multiplicative as a residual: the distance of f(nm) from f(n) f(m)
    at its counterexample (n, m), or 0 when it finds none."""
    ok, where = is_multiplicative(f, 0)
    if ok:
        return 0.0
    n, m = where
    return f(n * m).distance(f(n) * f(m)), {"n": n, "m": m}


def draw_fault(data, top, window, periodic):
    """A level up to top and a column: inside the window for one entry, or
    in the level's first period for a fault repeating with the level.
    Both are drawn from the top down, where a too short window misses them."""
    level = top - data.draw(st.integers(0, top - 1))
    end = level if periodic else window
    return level, end - 1 - data.draw(st.integers(0, end - 1))


class TestReducedWindows:
    """Every entry of P_j(n), C_j(n) and T_{r,j}(n) depends only on the
    basis index mod n.  So ``check`` runs the axioms on levels up to
    n_limit on min(dim, 6 n_limit), and is_multiplicative decides a family
    on levels 1..K on min(dim, K): a window meeting every residue of each equation.
    Both windows must place a fault alike: one flipped entry inside the
    shorter window, or a fault repeating with its level from anywhere in
    its first period."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5000), st.integers(0, 1), st.integers(1, 300),
           st.lists(st.integers(-600, 600), min_size=1, max_size=4))
    def test_projections_tile_their_first_period(self, dim, offset, n, js):
        first = IdempotentSystem(min(n, dim), offset).projections(js, n)
        tiled = np.tile(first, -(-dim // first.shape[1]))[:, :dim]
        assert np.array_equal(IdempotentSystem(dim, offset).projections(js, n), tiled)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5000), st.integers(0, 1), st.integers(1, 12), st.booleans(), st.data())
    def test_axioms_give_the_same_residual_and_place(self, dim, offset, n_limit, periodic,
                                                     data):
        window = min(dim, 6 * n_limit)
        assert verify_axioms(IdempotentSystem(dim, offset), n_limit) == verify_axioms(
            IdempotentSystem(window, offset), n_limit)
        level, column = draw_fault(data, 6 * n_limit, window, periodic)
        fault = level, data.draw(st.integers(0, level - 1)), column, periodic
        assert verify_axioms(Flipped(dim, offset, *fault), n_limit) == verify_axioms(
            Flipped(window, offset, *fault), n_limit)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5000), st.integers(0, 1), st.integers(6, 32),
           st.sampled_from([0, 1, 5]), st.booleans(), st.data())
    def test_projection_family_gives_the_same_residual_and_place(self, dim, offset, k, j,
                                                                 periodic, data):
        def residual(system):
            return multiplicativity(
                AlgFunction([system.projection(j, n) for n in range(1, k + 1)]))

        window = min(dim, k)
        assert residual(IdempotentSystem(dim, offset)) == residual(
            IdempotentSystem(window, offset)) == 0.0
        level, column = draw_fault(data, k, window, periodic)
        fault = level, j % level, column, periodic  # entries of P_j(level)
        assert residual(Flipped(dim, offset, *fault)) == residual(Flipped(window, offset, *fault))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3000), st.integers(0, 1), st.integers(6, 30),
           st.sampled_from([0, 1, 5]), st.booleans(), st.data())
    def test_operator_families_give_the_same_residual_and_place(self, dim, offset, k, j,
                                                                periodic, data):
        window = min(dim, k)
        level, column = draw_fault(data, k, window, periodic)
        at = slice(column, None, level) if periodic else column

        def residual(fam, build, faulty):
            ops = [build(fam, n) for n in range(1, k + 1)]
            if faulty:  # entries of the level's operator off by one
                entries = np.array(ops[level - 1].entries)
                entries[at] += 1
                ops[level - 1] = DiagonalOperator(entries, offset)
            return multiplicativity(AlgFunction(ops))

        for build in (lambda fam, n: fam.c_operator(j, n), lambda fam, n: fam.t_operator(n, j, n)):
            full, reduced = OperatorFamily(dim, offset), OperatorFamily(window, offset)
            assert residual(full, build, False) == residual(reduced, build, False) == 0.0
            assert residual(full, build, True) == residual(reduced, build, True)


class TestOnePeriodDecides:
    """P_k(n) P_l(m) and its prediction depend only on the index mod
    lcm(n, m), so a window of one period decides the law on every wider
    window."""

    @given(st.integers(-50, 50), st.integers(1, 15), st.integers(-50, 50), st.integers(1, 15),
           st.integers(0, 1), st.integers(0, 300))
    def test_product_law(self, k, n, l, m, offset, extra):
        period = math.lcm(n, m)
        _, at_period = product_law(IdempotentSystem(period, offset), k, n, l, m)
        _, wider = product_law(IdempotentSystem(period + extra, offset), k, n, l, m)
        assert wider == at_period


class TestProductLawResidual:
    """The one pass over many level pairs against the per-case product_law."""

    def test_projection_stack(self):
        system = IdempotentSystem(7, offset=1)
        stack = system.projections([0, 4, -1], 3)
        assert stack.shape == (3, 7) and stack.dtype == np.int64
        assert not stack.flags.writeable
        for row, j in zip(stack.tolist(), [0, 4, -1]):
            assert tuple(row) == system.projection(j, 3).entries

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 1), st.integers(0, 150))
    def test_matches_per_case_oracle(self, n, m, offset, extra):
        system = IdempotentSystem(math.lcm(n, m) + extra, offset)
        (residual, at), = product_law_residuals(system, [(n, m)]).values()
        per_case = {(k, l): product_law(system, k, n, l, m)[1]["residual"]
                    for k in range(n) for l in range(m)}
        assert residual == max(per_case.values()) == 0
        assert at == {"k": 0, "l": 0}

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)), min_size=1, max_size=5,
                    unique=True),
           st.integers(0, 1), st.integers(0, 30), st.sampled_from([1, 10, 11, 12, 1000, -11]),
           st.data())
    def test_wrong_provider_is_placed_like_the_oracle(self, levels, offset, extra, scale, data):
        # one level's stack flipped at one entry and scaled, so the residuals span
        # 0/1 entries, the last int8 bound (10) and past it
        dim = max(math.lcm(n, m) for n, m in levels) + extra
        level = data.draw(st.sampled_from(sorted({x for n, m in levels
                                                  for x in (n, m, math.lcm(n, m))})))
        system = Scaled(dim, offset, level, data.draw(st.integers(0, level - 1)),
                        data.draw(st.integers(0, dim - 1)), scale)
        got = product_law_residuals(system, levels)
        assert list(got) == levels
        for n, m in levels:
            per_case = [[product_law(system, k, n, l, m)[1]["residual"] for l in range(m)]
                        for k in range(n)]
            worst = max(map(max, per_case))
            k, l = next((k, l) for k in range(n) for l in range(m) if per_case[k][l] == worst)
            assert got[n, m] == (worst, {"k": k, "l": l})

    def test_residuals_past_int8_are_exact(self):
        # P_0(2) read as -11 at e_2: P_0(2)^2 - P_0(2) is 121 + 11 = 132 there, past int8
        system = Scaled(4, 0, 2, 0, 0, -11)
        assert product_law_residuals(system, [(2, 2)]) == {(2, 2): (132.0, {"k": 0, "l": 0})}

    def test_crt_grid_is_crt_solve(self):
        # every pair n, m <= 12 in one call, and the divisor-level pairs in another
        for levels in ([(n, m) for n in range(1, 13) for m in range(1, 13)],
                       [(n, m) for n in (1, 2, 3, 4, 6) for m in (n * 2, n * 3)]):
            ns, ms = np.array(levels, dtype=np.int64).T
            assert idempotents._crt_grids(ns, ms).tolist() == [
                math.lcm(n, m) if j is None else j
                for n, m in levels for k in range(n) for l in range(m)
                for j in [crt_solve(k, n, l, m)]]

    def test_wrong_index_is_placed(self, monkeypatch):
        real = idempotents._crt_grids

        def wrong(n, m):  # P_5(6) is P_1(2) P_2(3); predict P_0(6)
            grids = real(n, m)
            assert (n[0], m[0]) == (2, 3) and grids[1 * 3 + 2] == 5  # pair (2, 3) comes first
            grids[1 * 3 + 2] = 0
            return grids

        monkeypatch.setattr(idempotents, "_crt_grids", wrong)
        assert product_law_residuals(IdempotentSystem(6), [(2, 3), (3, 2)]) == {
            (2, 3): (1.0, {"k": 1, "l": 2}), (3, 2): (0.0, {"k": 0, "l": 0})}


class TestDivisorProductLaw:
    """For n | m the CRT law is the divisor rule: P_j(n) P_k(m) is P_k(m)
    when k = j (mod n), else zero."""

    def test_congruent_index_keeps_finer_projection(self):
        system = IdempotentSystem(8)
        result, verdict = product_law(system, 1, 2, 3, 4)
        assert result.isclose(system.projection(3, 4), 0)
        assert verdict == {"kind": "projection", "j": 3, "level": 4, "residual": 0.0}

    def test_incongruent_index_kills(self):
        system = IdempotentSystem(8)
        result, verdict = product_law(system, 0, 2, 3, 4)
        assert result.isclose(result.zero(), 0)
        assert verdict == {"kind": "zero", "residual": 0.0}

    def test_level_one_absorbs(self):
        system = IdempotentSystem(10)
        for k in range(5):
            result, verdict = product_law(system, 3, 1, k, 5)
            assert result.isclose(system.projection(k, 5), 0)
            assert verdict["residual"] == 0
        assert product_law_residuals(system, [(1, 5)]) == {(1, 5): (0.0, {"k": 0, "l": 0})}


class TestWeightedIdentities:
    def test_ones_pair(self):
        system = IdempotentSystem(24)
        ones = [1] * 12
        assert weighted_product_identities(ones, ones, system, 1) == 0
        # scalar shadows of the particular cases
        assert lcm_tuple_count(2, 4) == 5
        assert 2 ** omega(12) == 4

    def test_mixed_pair(self):
        system = IdempotentSystem(30)
        residual = weighted_product_identities(
            scalar_table(totient, 15), scalar_table(lambda n: n, 15), system, 2
        )
        assert residual == 0

    def test_operator_lehmer_form(self, monkeypatch):
        # (nu0 * phi P_1)(m) (nu0 * P_1)(m) = (nu0 * (phi P_1 [] P_1))(m), m <= 30
        phi, ones = scalar_table(totient, 30), [1] * 30
        system = IdempotentSystem(36)
        assert weighted_product_identities(phi, ones, system, 1) == 0
        # fault injection: every nu0 * f loses its d = 1 term at m = 6, in the
        # one Dirichlet pass of lehmer_sides that forms all three nu0 * f
        exact = convolution.scalar_dirichlet

        def dropped(nu0, f):
            h = exact(nu0, f)
            h[5] -= nu0[0] * f[5]
            return h

        monkeypatch.setattr(convolution, "scalar_dirichlet", dropped)
        assert weighted_product_identities(phi, ones, system, 1) > 0


class TestWeightedStacks:
    """The stack form of the weighted row against its element form."""

    @pytest.mark.parametrize("n_max, dim, j", [(30, 30, 1), (12, 24, 0), (15, 7, 5)])
    def test_matches_the_element_form(self, n_max, dim, j):
        alpha, beta = scalar_table(totient, n_max), scalar_table(lambda n: n % 5 - 2, n_max)
        system = IdempotentSystem(dim)
        assert weighted_product_identities(alpha, beta, system, j) == 0
        assert weighted_identities_elements(alpha, beta, system, j) == 0

    @pytest.mark.parametrize("level, column", [(2, 4), (6, 5), (7, 3), (30, 29)])
    def test_one_corrupted_entry_gives_the_element_forms_residual(self, level, column):
        # one entry of P_1(level) flipped, in the stack and the diagonal alike
        alpha, beta = scalar_table(totient, 30), scalar_table(lambda n: n % 5 - 2, 30)
        system = Flipped(30, 0, level, 1 % level, column)
        residual = weighted_product_identities(alpha, beta, system, 1)
        assert residual == weighted_identities_elements(alpha, beta, system, 1) > 0


class TestMultiplicativityOfProjections:
    def test_fixed_index_family(self):
        from idemarith.convolution import AlgFunction, is_multiplicative

        system = IdempotentSystem(60)
        for j in (0, 1, 5):
            fam = AlgFunction([system.projection(j, n) for n in range(1, 31)])
            ok, ce = is_multiplicative(fam, 0)
            assert ok, ce
