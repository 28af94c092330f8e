"""Truncated monomial model: diagonals, determinant/trace identities, the
representation map P(alpha) = sum alpha(n) P_0(n) with theta^r and IU*,
and the dense shift-operator oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from idemarith import analytic, arith
from idemarith.algebra import DiagonalOperator, ShapeMismatchError
from idemarith.analytic import (
    det_c0,
    det_c0_unsigned_form,
    euler_residuals,
    iu_star,
    iu_star_representation,
    p_operator,
    p_operator_identities,
    theta_power,
    trace_erratum_forms,
    trace_identities,
)
from idemarith.arith import (divisors, epsilon, factorize, jordan_totient, mobius, omega,
                             ramanujan_sum, totient)
from idemarith.convolution import scalar_table
from idemarith.idempotents import IdempotentSystem
from idemarith.ramanujan_ops import OperatorFamily
from oracle_forms import (det_table, euler_power_residual, iu_star_fractions,
                          shift_operators, trace_table)

H0_16 = IdempotentSystem(16, 1)


class TestDiagonals:
    """C_0(n) and T_0(n) on e_1..e_N: OperatorFamily(N, 1) at j = 0."""

    def test_c0_alternates_for_n2(self):
        assert OperatorFamily(4, 1).c_operator(0, 2).entries == (-1, 1, -1, 1)

    def test_level_one_both_identity(self):
        fam = OperatorFamily(16, 1)
        assert fam.c_operator(0, 1).entries == (1,) * 16
        assert fam.t_operator(1, 0, 1).entries == (1,) * 16

    def test_entry_at_own_level(self):
        fam = OperatorFamily(6, 1)
        assert fam.c_operator(0, 6).entries[5] == 2  # c_6(6) = phi(6)
        assert fam.t_operator(6, 0, 6).entries[5] == 0  # gcd(6, 6) > 1

    def test_agrees_with_operator_family_at_j0(self):
        # the per-level tables read the entries of these diagonals: the
        # determinant is the product of C_0(n)'s, the traces the sums of both
        for n in (2, 4, 6, 9):
            for big_n in range(1, 13):
                fam = OperatorFamily(big_n, 1)
                c0, t0 = fam.c_operator(0, n).entries, fam.t_operator(n, 0, n).entries
                trace_c0, _, trace_t0, _ = trace_table(n, [big_n])[0].tolist()
                assert (det_table(n, [big_n])[0][0], trace_c0, trace_t0) == (
                    math.prod(c0), sum(c0), sum(t0))


class TestDeterminant:
    def test_examples(self):
        assert det_c0(2, 4) == (1, 1)
        assert det_c0(6, 6) == (-4, -4)
        for big_n in (1, 5, 9):
            direct, closed = det_c0(12, big_n)
            assert direct == closed == 0

    def test_direct_equals_closed_everywhere(self):
        for n in range(2, 31):
            for big_n in range(1, 65):
                direct, closed = det_c0(n, big_n)
                assert direct == closed, (n, big_n)

    @given(st.integers(2, 400), st.integers(1, 1200))
    def test_direct_is_the_product_of_the_entries(self, n, big_n):
        direct = 1
        for k in range(1, big_n + 1):
            direct *= ramanujan_sum(n, k)
        got = det_c0(n, big_n)[0]
        assert got == direct and type(got) is int  # past int64 too

    def test_unsigned_display_fails_at_odd_dims(self):
        # documented erratum: the bare product drops a sign
        assert det_c0(2, 3)[0] == 1
        assert det_c0_unsigned_form(2, 3) == -1

    @pytest.mark.parametrize("n, big_n", [(1, 5), (4, 0), (5, -3)])
    def test_rejects_bad_level_or_window(self, n, big_n):
        # at N = 0 the closed form read 0 for non-squarefree n against the
        # empty product 1; at N < 0 both sides came out as floats
        with pytest.raises(ValueError, match="^det_c0 requires n >= 2 and N >= 1$"):
            det_c0(n, big_n)


class TestTrace:
    def test_examples(self):
        rep = trace_identities(6, 6)
        assert rep["trace_c0"] == rep["trace_c0_closed"] == 0
        rep = trace_identities(6, 10)
        assert rep["trace_t0"] == rep["trace_t0_closed"] == 3
        rep = trace_identities(2, 1)
        assert rep["trace_t0"] == 1

    def test_exact_for_all_desk_sizes(self):
        for n in range(2, 61):
            for big_n in range(1, 201, 3):
                assert trace_identities(n, big_n)["pass"], (n, big_n)

    @given(st.integers(1, 400), st.integers(1, 1200))
    def test_direct_traces_sum_the_entries(self, n, big_n):
        rep = trace_identities(n, big_n)
        assert rep["trace_c0"] == sum(ramanujan_sum(n, k) for k in range(1, big_n + 1))
        assert rep["trace_t0"] == sum(1 for m in range(1, big_n + 1) if math.gcd(m, n) == 1)
        assert type(rep["trace_c0"]) is type(rep["trace_t0"]) is int

    def test_erratum_chain_values(self):
        # the commonly quoted chain of expressions disagrees with itself at (6, 10)
        err = trace_erratum_forms(6, 10)
        assert err["coprime_floor_sum"] == 1
        assert err["omega_expression"] == 12
        assert trace_identities(6, 10)["trace_t0_closed"] == 3
        assert not (err["coprime_floor_sum"] == err["omega_expression"]
                    == trace_identities(6, 10)["trace_t0_closed"])

    def test_erratum_form_values(self):
        # the two points the report's errata section evaluates
        assert trace_erratum_forms(6, 10) == {
            "prime_power_sum": -1, "coprime_floor_sum": 1, "omega_expression": 12}
        assert trace_erratum_forms(6, 7) == {
            "prime_power_sum": -2, "coprime_floor_sum": 1, "omega_expression": 9}
        assert trace_identities(6, 7)["trace_c0"] == 1

    @pytest.mark.parametrize("n, big_n", [(0, 5), (5, 0), (5, -3)])
    def test_rejects_bad_level_or_window(self, n, big_n):
        with pytest.raises(ValueError, match="^trace_identities requires n >= 1 and N >= 1$"):
            trace_identities(n, big_n)


def det_oracle(n, big_n):
    """det_c0 one window at a time: the product of c_n(k) for k <= N, and
    the signed closed form."""
    direct = math.prod(ramanujan_sum(n, k) for k in range(1, big_n + 1))
    closed = 0
    if mobius(n):
        closed = (-1) ** (big_n * omega(n)) * math.prod(
            (1 - p) ** (big_n // p) for p, _ in factorize(n))
    return direct, closed


def trace_oracle(n, big_n):
    """Both sides of both trace identities at one window, summed entry by entry."""
    return (sum(ramanujan_sum(n, k) for k in range(1, big_n + 1)),
            sum(d * mobius(n // d) * (big_n // d) for d in divisors(n)),
            sum(1 for m in range(1, big_n + 1) if math.gcd(m, n) == 1),
            sum(mobius(r) * (big_n // r) for r in divisors(n)))


# a level and windows shorter and longer than it, in any order, repeats allowed
level_windows = st.tuples(st.integers(1, 120), st.lists(st.integers(1, 400), min_size=1,
                                                         max_size=12))


class TestPerLevelTables:
    """Every window of a level from one period, against the per-window oracles."""

    @given(level_windows)
    def test_trace_table(self, level):
        n, dims = level
        table = trace_table(n, dims)
        assert table.shape == (len(dims), 4)
        assert [tuple(row) for row in table.tolist()] == [trace_oracle(n, d) for d in dims]

    @given(level_windows.filter(lambda level: level[0] >= 2))
    def test_det_table(self, level):
        n, dims = level
        table = det_table(n, dims)
        assert table == [det_oracle(n, d) for d in dims]
        assert all(type(x) is int for pair in table for x in pair)

    @given(st.integers(1, 120), st.integers(1, 400))
    def test_one_window_wrappers(self, n, big_n):
        rep = trace_identities(n, big_n)
        assert (rep["trace_c0"], rep["trace_c0_closed"], rep["trace_t0"],
                rep["trace_t0_closed"]) == trace_oracle(n, big_n)
        if n >= 2:
            assert det_c0(n, big_n) == det_oracle(n, big_n)

    @pytest.mark.parametrize("n", [1, 12, 30, 97, 360])
    def test_tables_look_up_mobius_once_per_divisor(self, n, monkeypatch):
        calls = []
        monkeypatch.setattr(analytic, "mobius", lambda d: calls.append(d) or mobius(d))
        table = trace_table(n, [1, n, 3 * n + 2])
        assert sorted(calls) == list(divisors(n))
        assert [tuple(row) for row in table.tolist()] == [
            trace_oracle(n, d) for d in (1, n, 3 * n + 2)]
        if n >= 2:
            calls.clear()
            assert det_table(n, [1, n + 1]) == [det_oracle(n, 1), det_oracle(n, n + 1)]
            assert sorted(calls) == list(divisors(n))

    @pytest.mark.parametrize("dims", [[], [3, 0], [-1]])
    def test_tables_reject_empty_or_bad_windows(self, dims):
        with pytest.raises(ValueError, match="^trace_table requires .* N >= 1$"):
            trace_table(6, dims)
        with pytest.raises(ValueError, match="^det_table requires .* N >= 1$"):
            det_table(6, dims)


# a level n <= 60 and a window N <= 3n
level_and_window = st.integers(1, 60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, 3 * n)))


class TestOnePeriodDecidesEveryWindow:
    """The premise of the trace and determinant rows, which check N = 1..n
    alone: floor((N + n)/d) = floor(N/d) + n/d for d | n, so each side of
    each identity is additive (traces) or multiplicative (determinant) over
    one period."""

    @given(level_and_window)
    def test_each_trace_column_adds_a_period(self, level):
        n, big_n = level
        shifted, head, period = trace_table(n, [big_n + n, big_n, n])
        assert shifted.tolist() == (head + period).tolist()

    @given(level_and_window.filter(lambda level: level[0] >= 2))
    def test_each_det_side_multiplies_by_a_period(self, level):
        n, big_n = level
        shifted, head, period = det_table(n, [big_n + n, big_n, n])
        assert shifted == (head[0] * period[0], head[1] * period[1])


class TestPOperator:
    def test_totient_gives_euler_diagonal(self):
        diag = p_operator(scalar_table(totient, 64))
        assert diag.entries == tuple(range(1, 65)) == theta_power(1, 64).entries

    def test_moebius_gives_rank_one(self):
        diag = p_operator(scalar_table(mobius, 16))
        assert diag.entries == (1,) + (0,) * 15

    def test_epsilon_gives_identity(self):
        diag = p_operator(scalar_table(epsilon, 16))
        assert diag.entries == (1,) * 16

    def test_rejects_offset_zero_space(self):
        # every P_0(n) is 1 at e_0, so the map lives on e_1..e_N alone
        diag = p_operator([1] * 8)
        assert diag.offset == 1
        with pytest.raises(ShapeMismatchError):
            diag * IdempotentSystem(8, 0).unit()
        with pytest.raises(ValueError):
            p_operator([])

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=200))
    def test_is_the_sum_of_idempotents(self, alpha):
        # the abstract's claim: P(alpha) = sum_{n <= N} alpha(n) P_0(n) on e_1..e_N
        system = IdempotentSystem(len(alpha), 1)
        total = system.unit().zero()
        for n, a in enumerate(alpha, 1):
            total = total + system.projection(0, n).scale(a)
        assert p_operator(alpha).entries == total.entries

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_jordan_totients_give_euler_powers(self, r):
        assert euler_power_residual(r, 300) == 0
        assert p_operator(scalar_table(lambda n: jordan_totient(r, n), 300)).entries == tuple(
            m**r for m in range(1, 301))

    @pytest.mark.parametrize("r, n_max", [(1, 3000), (2, 3000), (3, 3000), (4, 3000),
                                          (5, 3000), (7, 600), (2, 1), (2, 2)])
    def test_jordan_table_matches_jordan_totient(self, r, n_max):
        # 3000^5 fits int64; 600^7 does not, so that table is built from Python ints
        table = analytic._jordan_table(r, n_max)
        assert table.dtype == (np.int64 if n_max**r <= 2**63 - 1 else object)
        assert table.tolist() == [jordan_totient(r, n) for n in range(1, n_max + 1)]
        assert all(type(value) is int for value in table.tolist())

    def test_jordan_table_rejects_r_below_one(self):
        with pytest.raises(ValueError, match="r >= 1"):
            euler_power_residual(0, 10)

    def test_euler_power_residual_sees_a_wrong_jordan_value(self, monkeypatch):
        real = analytic._jordan_table
        monkeypatch.setattr(analytic, "_jordan_table", lambda r, n_max: [
            value + (n == 7) for n, value in enumerate(real(r, n_max), 1)])
        assert euler_power_residual(2, 6) == 0  # below the wrong value
        assert euler_power_residual(2, 7) == euler_power_residual(2, 300) == 1
        # the stacked pass reads the same table: J_1..J_3 all off at 7, mu not
        assert euler_residuals(6) == [0, 0, 0, 0]
        assert euler_residuals(7) == euler_residuals(300) == [1, 1, 1, 0]

    @pytest.mark.parametrize("n_dim", [1, 2, 64, 512, 3000])
    def test_stacked_euler_pass_is_the_per_power_form(self, n_dim):
        # each column against its own diagonals: P(J_r) with theta^r, P(mu) with diag(eps)
        mu = scalar_table(mobius, n_dim)
        eps = DiagonalOperator(scalar_table(epsilon, n_dim), 1)
        assert euler_residuals(n_dim) == [
            *(euler_power_residual(r, n_dim) for r in (1, 2, 3)),
            p_operator(mu).distance(eps)] == [0, 0, 0, 0]

    def test_stacked_euler_pass_places_a_wrong_mobius_value(self, monkeypatch):
        # mu(6) = 1 read as 0 by the sieve: P(mu) is off by 1 at every multiple of 6.
        # arith's product serves mobius_table alone, the J_r tables never
        real = arith.prime_power_product

        def wrong(factor, unit):
            return np.where(np.arange(len(factor)) == 6, 0, real(factor, unit))

        monkeypatch.setattr(arith, "prime_power_product", wrong)
        assert euler_residuals(5) == [0, 0, 0, 0]
        assert euler_residuals(6) == euler_residuals(64) == [0, 0, 0, 1]

    def test_theta_power_and_iu_star_entries(self):
        assert theta_power(2, 5).entries == (1, 4, 9, 16, 25)
        assert theta_power(0, 3).entries == (1, 1, 1)
        assert theta_power(1, 1).offset == iu_star(1).offset == 1
        assert iu_star(1).entries == (0,)
        assert iu_star(4).entries == (0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
        assert theta_power(40, 3).entries[-1] == 3**40  # past int64, exact

    @pytest.mark.parametrize("r", [-1, -3])
    def test_theta_power_rejects_negative_r(self, r):
        # theta^-1 gave the floats 1.0, 0.5, ...
        with pytest.raises(ValueError, match="r >= 0"):
            theta_power(r, 4)

    @pytest.mark.parametrize("r, n_dim", [(0, 5), (1, 3000), (5, 3000), (6, 3000), (7, 600),
                                          (2, 1)])
    def test_theta_power_is_exact_across_int64(self, r, n_dim):
        # 3000^5 fits int64; 3000^6 and 600^7 do not
        entries = theta_power(r, n_dim).entries
        assert entries == tuple(m**r for m in range(1, n_dim + 1))
        assert all(type(v) is int for v in entries)

    @pytest.mark.parametrize("pairs, n_max", [(0, 8), (-1, 8), (1, 0), (1, -3)])
    def test_algebra_map_rejects_vacuous_runs(self, pairs, n_max):
        # pairs=0 passed over no pair, n_max=0 became the whole window
        with pytest.raises(ValueError, match="pairs >= 1 and n_max >= 1"):
            p_operator_identities(IdempotentSystem(16, 1), n_max, pairs=pairs)

    def test_algebra_map_defaults_to_the_window(self):
        report = p_operator_identities(IdempotentSystem(20, 1), pairs=1)
        assert report["n_max"] == 20 and report["pass"]
        assert p_operator_identities(IdempotentSystem(20, 1), 40, pairs=1)["n_max"] == 20

    def test_algebra_map_property(self):
        report = p_operator_identities(IdempotentSystem(64, 1), 64)
        assert report["pass"]
        assert report["algebra_map_max_residual"] == 0
        assert report["euler_power_max_residual"] == 0

    def test_algebra_map_keeps_a_nan_residual(self, monkeypatch):
        # a NaN after a finite worst residual: max(worst, nan) kept the 0
        real = analytic.lehmer_sides

        def nan_second(alpha, beta):
            lhs, rhs, worst = real(alpha, beta)
            return lhs, rhs, [worst[0], math.nan, *worst[2:]]

        monkeypatch.setattr(analytic, "lehmer_sides", nan_second)
        report = p_operator_identities(IdempotentSystem(20, 1), pairs=3)
        assert math.isnan(report["algebra_map_max_residual"]) and report["pass"] is False


class TestShiftOperators:
    def test_ustar_u_is_identity_on_retained(self):
        ops = shift_operators(H0_16)
        product = (ops["U_star"] * ops["U"]).array
        expected = np.eye(16)
        expected[15, 15] = 0  # top vector dropped by the truncated shift
        assert np.max(np.abs(product - expected)) < 1e-12

    def test_theta_diagonal(self):
        ops = shift_operators(IdempotentSystem(8, 1))
        assert ops["theta"].array[2, 2] == 3

    def test_integration_compose_backward_shift(self):
        space = IdempotentSystem(10, 1)
        ops = shift_operators(space)
        diag = np.diag((ops["integration"] * ops["U_star"]).array)
        assert abs(diag[0]) == 0
        for m in range(2, 11):
            assert abs(diag[m - 1] - 1 / m) < 1e-12
        assert list(diag) == [0] + [1 / m for m in range(2, 11)]


class TestIuStarRepresentation:
    def test_candidate_search(self):
        report = iu_star_representation(128)
        assert report == {"mu*nu_minus1": True, "mu*nu_1": False}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_smallest_windows_refute_mu_nu_1(self, dim):
        assert iu_star_representation(dim)["mu*nu_1"] is False

    def test_one_entry_window_is_rejected(self):
        # e_1 is the truncation edge, so dim 1 compares no entry at all
        with pytest.raises(ValueError, match="dim >= 2"):
            iu_star_representation(1)

    def test_integer_form_is_the_fraction_form(self):
        for n_dim in range(2, 201):
            assert iu_star_representation(n_dim) == iu_star_fractions(n_dim)

    def test_one_wrong_mobius_value_refutes_mu_nu_minus_1(self, monkeypatch):
        # m P(mu * nu_{-1})(m) = 1 + 7 at m = 7, where mu(7) = -1 is read as 0
        monkeypatch.setattr(analytic, "mobius", lambda n: 0 if n == 7 else mobius(n))
        assert iu_star_representation(7) == {"mu*nu_minus1": False, "mu*nu_1": False}
        assert iu_star_representation(6) == {"mu*nu_minus1": True, "mu*nu_1": False}

    def test_iu_star_is_the_oracle_product_on_the_diagonal(self):
        # integration after the truncated backward shift, as dense matrices
        ops = shift_operators(IdempotentSystem(10, 1))
        product = (ops["integration"] * ops["U_star"]).array
        assert np.array_equal(product, np.diag(np.array(iu_star(10).entries, dtype=float)))
