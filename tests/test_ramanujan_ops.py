"""Operator-valued Ramanujan sums and the divisor-partition idempotents."""

import cmath
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idemarith import ramanujan_ops, suites
from idemarith.algebra import DiagonalOperator, is_idempotent
from idemarith.arith import (EvenFunction, divisors, factorize, mobius, ramanujan_sum,
                             rf_transform, tau)
from idemarith.convolution import AlgFunction, is_multiplicative
from idemarith.ramanujan_ops import OperatorFamily, even_function_identity, root_sum_residual
from idemarith.suites import run_suite
import oracle_forms
from oracle_forms import (c_operator_constructions, c_t_transforms, element_from_json,
                          element_to_json, orthogonality_residual, ramanujan_orthogonality,
                          root_of_unity_residual, s_power_sum, t_decomposition, t_top_identities)


# The divisor-family identities one operator at a time, from c_operator,
# t_operator and projection diagonals on a window at one j: the oracles of
# the class-table forms.  They read c_n through the module, so a patched one
# reaches both forms.

def rounded(op):
    """A complex float diagonal within 1e-9 of an integer one, as that one."""
    values = np.array(op.entries)
    ints = np.rint(values.real)
    assert np.abs(values - ints).max() < 1e-9
    return DiagonalOperator(ints.astype(np.int64), op.offset)


def constructions_oracle(fam, j, n):
    exact = fam.c_operator(j, n)
    coprime = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    root_of_unity = rounded(s_power_sum(fam, j, n, coprime))
    moebius_sum = exact.zero()
    for d in divisors(n):
        moebius_sum = moebius_sum + fam.projection(j, n // d).scale(mobius(d) * (n // d))
    prime_product, radical = fam.unit(), 1
    for p, a in factorize(n):
        factor = fam.projection(j, p**a).scale(p) - fam.projection(j, p ** (a - 1))
        prime_product, radical = prime_product * factor, radical * p
    return {"root_of_unity": exact.distance(root_of_unity),
            "moebius_sum": exact.distance(moebius_sum),
            "prime_product": exact.distance(prime_product.scale(n // radical))}


def t_top_oracle(fam, j, n):
    top = fam.t_operator(n, j, n)
    moebius_sum = top.zero()
    for d in divisors(n):
        moebius_sum = moebius_sum + fam.projection(j, d).scale(mobius(d))
    prime_product = fam.unit()
    for p, _ in factorize(n):
        prime_product = prime_product * (fam.unit() - fam.projection(j, p))
    return max(top.distance(moebius_sum), top.distance(prime_product))


def t_decomposition_oracle(fam, j, n):
    divs = divisors(n)
    ops = {r: fam.t_operator(r, j, n) for r in divs}
    total = ops[divs[0]].zero()
    for r in divs:
        total = total + ops[r]
    residual = max(total.distance(fam.unit()), abs(len(divs) - tau(n)))
    for r in divs:
        for rp in divs:
            expected = ops[r] if r == rp else ops[r].zero()
            residual = max(residual, (ops[r] * ops[rp]).distance(expected))
    return residual


def c_t_transforms_oracle(fam, j, n):
    divs = divisors(n)
    forward = fam.c_operator(j, n).zero()
    for r in divs:
        forward = forward + fam.t_operator(r, j, n).scale(ramanujan_ops.ramanujan_sum(n, n // r))
    backward = forward.zero()
    for r in divs:
        backward = backward + fam.c_operator(j, r).scale(ramanujan_ops.ramanujan_sum(n, n // r))
    return max(fam.c_operator(j, n).distance(forward),
               fam.t_operator(n, j, n).scale(n).distance(backward))


def even_identity_oracle(fam, alpha, j, n):
    coeffs = rf_transform(alpha).unnormalized
    lhs = fam.c_operator(j, n).zero()
    rhs = lhs
    for r in divisors(n):
        lhs = lhs + fam.c_operator(j, r).scale(alpha(n // r))
        rhs = rhs + fam.t_operator(r, j, n).scale(coeffs[r])
    return lhs.distance(rhs)


# a level, an index j in [-n, 2n], a basis offset and a window of at least
# one period, which meets every gcd class of the level
levels = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(-n, 2 * n), st.integers(0, 1), st.integers(n, n + 90)))


class TestSOperator:
    def test_level_one_identity(self):
        fam = OperatorFamily(5)
        assert fam.s_operator(1).distance(fam.unit()) < 1e-12

    def test_level_two_alternates(self):
        s = OperatorFamily(4).s_operator(2)
        assert all(abs(v - e) < 1e-12 for v, e in zip(s.entries, (1, -1, 1, -1)))

    def test_nth_power_is_identity(self):
        fam = OperatorFamily(16)
        for n in range(1, 13):
            power = fam.unit()
            for _ in range(n):
                power = power * fam.s_operator(n)
            assert power.distance(fam.unit()) < 1e-9

    def test_square_of_s4_is_s2(self):
        fam = OperatorFamily(8)
        s4 = fam.s_operator(4)
        assert (s4 * s4).distance(fam.s_operator(2)) < 1e-12

    @pytest.mark.parametrize("n", [1, 7, 37, 60])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_entries_are_the_roots_of_unity_of_m_mod_n(self, n, offset):
        values = np.array(OperatorFamily(2520, offset).s_operator(n).entries)
        for m, v in zip(range(offset, offset + 2520), values.tolist()):
            assert abs(v - cmath.exp(2j * math.pi * (m % n) / n)) <= 1e-15
        assert values[:-n].tobytes() == values[n:].tobytes()  # bit-equal n apart

    @pytest.mark.parametrize("n", [1, 7, 37, 60])
    def test_nth_power_and_json_round_trip(self, n):
        fam = OperatorFamily(2520, 1)
        s = fam.s_operator(n)
        power = fam.unit()
        for _ in range(n):
            power = power * s
        assert power.distance(fam.unit()) <= 1e-12
        back = element_from_json(element_to_json(s))
        assert back.offset == 1
        assert np.array(back.entries).tobytes() == np.array(s.entries).tobytes()


class TestCOperator:
    def test_entrywise_characterization(self):
        fam = OperatorFamily(12)
        c = fam.c_operator(0, 6)
        assert c.entries[6] == ramanujan_sum(6, 6) == 2
        c = fam.c_operator(1, 4)
        assert c.entries[3] == ramanujan_sum(4, 2) == -2

    def test_level_one_identity(self):
        fam = OperatorFamily(7)
        assert fam.c_operator(0, 1).distance(fam.unit()) == 0

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 9, 12, 18, 30])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_three_constructions_agree(self, n, j):
        residuals = c_operator_constructions(n)
        assert residuals == {"root_of_unity": 0, "moebius_sum": 0, "prime_product": 0}
        assert residuals == constructions_oracle(OperatorFamily(n), j, n)  # one period at j

    @pytest.mark.parametrize("n", [1, 2, 7, 12, 30, 60])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_coprime_power_sum_is_c(self, n, offset):
        fam = OperatorFamily(2 * n + 5, offset)
        coprime = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
        for j in (0, 1, n - 1, -3):
            assert s_power_sum(fam, j, n, coprime).distance(fam.c_operator(j, n)) <= 1e-9

    def test_prime_power_case(self):
        # C_j(p^k) = p^k (P_j(p^k) - (1/p) P_j(p^{k-1}))
        fam = OperatorFamily(27)
        for p, k, j in ((3, 2, 0), (2, 3, 1), (5, 1, 2)):
            n = p**k
            expected = (fam.projection(j, n)
                        - fam.projection(j, n // p).scale(1 / p)).scale(n)
            assert fam.c_operator(j, n).distance(expected) < 1e-9

    def test_multiplicative_family(self):
        fam = OperatorFamily(60)
        for j in (0, 1, 5):
            alg = AlgFunction([fam.c_operator(j, n) for n in range(1, 31)])
            ok, ce = is_multiplicative(alg, 0)
            assert ok, ce


class TestTOperator:
    def test_top_selects_coprime_indices(self):
        fam = OperatorFamily(12)
        top = fam.t_operator(6, 0, 6)
        for m, v in zip(range(12), top.entries):
            assert v == (1 if math.gcd(m, 6) == 1 else 0)

    def test_r_one_is_projection_zero(self):
        fam = OperatorFamily(12)
        assert fam.t_operator(1, 0, 4).distance(fam.projection(0, 4)) == 0

    @given(st.integers(1, 300), st.integers(0, 1), st.integers(1, 80), st.integers(-200, 200))
    def test_r_one_is_the_inherited_projection(self, dim, offset, n, j):
        # T_{1,j}(n) = P_j(n), both from the one window
        fam = OperatorFamily(dim, offset)
        assert fam.t_operator(1, j, n).entries == fam.projection(j, n).entries

    def test_middle_divisor_selection(self):
        fam = OperatorFamily(8)
        t = fam.t_operator(2, 0, 4)
        selected = [m for m, v in zip(range(8), t.entries) if v]
        assert selected == [2, 6]

    def test_requires_divisor(self):
        with pytest.raises(ValueError):
            OperatorFamily(8).t_operator(3, 0, 4)

    @pytest.mark.parametrize("r, n", [(0, 6), (-3, 6), (-1, 1), (1, 0), (2, -4)])
    def test_rejects_non_positive_r_or_n(self, r, n):
        # r 0 raised ZeroDivisionError; r -3 gave an all-zero diagonal (6 % -3 == 0)
        with pytest.raises(ValueError, match="r, n >= 1"):
            OperatorFamily(8).t_operator(r, 0, n)

    @pytest.mark.parametrize("method", ["t_top_identities", "t_decomposition",
                                        "c_t_transforms", "c_operator_constructions"])
    @pytest.mark.parametrize("n", [0, -6])
    def test_identities_reject_non_positive_level(self, method, n):
        with pytest.raises(ValueError, match="level n must be positive"):
            getattr(oracle_forms, method)(n)

    def test_s_operator_rejects_level_zero_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n must be positive"):
                OperatorFamily(8).s_operator(0)

    def test_prime_power_top_cases(self):
        # the top coprime selector at level p^k only sees the prime:
        # T_{p^k, j}(p^k) = e - P_j(p)
        fam = OperatorFamily(18)
        e = fam.unit()
        assert fam.t_operator(3, 1, 3).distance(e - fam.projection(1, 3)) == 0
        assert fam.t_operator(9, 0, 9).distance(e - fam.projection(0, 3)) == 0

    def test_multiplicative_family(self):
        fam = OperatorFamily(60)
        for j in (0, 1, 5):
            alg = AlgFunction([fam.t_operator(n, j, n) for n in range(1, 31)])
            ok, ce = is_multiplicative(alg, 0)
            assert ok, ce


class TestTopIdentities:
    @pytest.mark.parametrize("n,j", [(1, 0), (6, 0), (7, 1), (12, 2), (30, 1)])
    def test_moebius_and_prime_product(self, n, j):
        assert t_top_identities(n) == t_top_oracle(OperatorFamily(n), j, n) == 0


class TestDecomposition:
    @pytest.mark.parametrize("n", [1, 2, 7, 12, 24, 30])
    def test_partition_of_identity(self, n):
        # includes the tau(n) member count
        assert t_decomposition(n) == t_decomposition_oracle(OperatorFamily(2 * n), 0, n) == 0

    def test_members_are_idempotent(self):
        fam = OperatorFamily(24)
        for r in divisors(12):
            assert is_idempotent(fam.t_operator(r, 1, 12), 0)


class TestTransforms:
    @pytest.mark.parametrize("n,j", [(1, 0), (4, 2), (6, 0), (18, 1), (30, 2)])
    def test_both_directions(self, n, j):
        assert c_t_transforms(n) == c_t_transforms_oracle(OperatorFamily(3 * n), j, n) == 0


class TestOrthogonality:
    """sum_{r|n} c_n(n/r) c_r(l) = n [gcd(l, n) = 1]: the per-l oracle, and
    the suite row's class form against it."""

    def test_orthogonality(self):
        for n in range(1, 101):
            for l in range(1, n + 1):
                expected = n if math.gcd(l, n) == 1 else 0
                assert ramanujan_orthogonality(n, l) == expected

    def test_orthogonality_examples(self):
        assert ramanujan_orthogonality(6, 5) == 6
        assert ramanujan_orthogonality(6, 4) == 0
        assert ramanujan_orthogonality(1, 1) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 200), st.sampled_from([-1, 1]), st.data())
    def test_class_form_matches_the_per_l_oracle(self, n, delta, data):
        # c_r(x) off by delta on one class (r, gcd(x, r)), r | n, seen alike by both forms
        r_bad = data.draw(st.sampled_from(divisors(n)))
        g_bad = data.draw(st.sampled_from(divisors(r_bad)))

        def wrong(r, x):
            return ramanujan_sum(r, x) + (delta if (r, math.gcd(x, r)) == (r_bad, g_bad) else 0)

        with mock.patch.object(ramanujan_ops, "ramanujan_sum", wrong), \
                mock.patch.object(oracle_forms, "ramanujan_sum", wrong), \
                mock.patch.object(oracle_forms, "_divisor_tables",
                                  oracle_forms._divisor_tables.__wrapped__):
            residuals = [abs(ramanujan_orthogonality(n, l) - (n if math.gcd(l, n) == 1 else 0))
                         for l in range(1, n + 1)]
            got = orthogonality_residual(n)
        assert got == (max(residuals), {"l": 1 + residuals.index(max(residuals))})
        assert orthogonality_residual(n) == (0, {"l": 1})

    def test_wrong_class_value_fails_the_orthogonality_row(self, monkeypatch):
        real = ramanujan_ops._class_pairs

        def wrong(levels, n_max):  # c_3(4) = -1 read as 0 at level 12
            pairs = real(levels, n_max)
            if n_max >= 12:
                at = pairs.first[levels.at(12, 4)] + divisors(12).index(3)  # (n, g, r) = (12, 4, 3)
                assert pairs.r[at] == 3 and pairs.cr[at] == -1
                pairs = pairs._replace(cr=pairs.cr.copy())
                pairs.cr[at] += 1
            return pairs

        monkeypatch.setattr(ramanujan_ops, "_class_pairs", wrong)
        row = run_suite("transforms", n_max=12, dim=60)["checks"][1]
        assert row["identity"] == "Ramanujan sum orthogonality"
        # r = 3 weighs c_12(4) = -2, so class 4 is off by 2, first met at l = 4
        assert row["pass"] is False and row["max_residual"] == 2.0
        assert row["counterexample"] == {"n": 12, "at": {"l": 4}}


class TestDivisorStacks:
    """The class-table identities against the per-operator oracles above."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5000), st.integers(0, 1), st.integers(1, 60), st.data())
    def test_stack_rows_are_the_operators(self, dim, offset, n, data):
        # the premise of the class tables: for r | n, P_j(r), C_j(r) and T_{r,j}(n)
        # on any window are their table rows read at the class gcd(m - j, n)
        j = data.draw(st.integers(-n, 2 * n))
        fam = OperatorFamily(dim, offset)
        divs, t, p, c = oracle_forms._divisor_tables(n)
        assert divs == divisors(n)
        at = np.searchsorted(divs, np.gcd((np.arange(offset, offset + dim) - j) % n, n))
        for r, t_row, p_row, c_row in zip(divs, t, p, c):
            assert fam.t_operator(r, j, n).entries == tuple(t_row[at].tolist())
            assert fam.projection(j, r).entries == tuple(p_row[at].tolist())
            assert fam.c_operator(j, r).entries == tuple(c_row[at].tolist())

    @pytest.mark.parametrize("dim", [5, 30, 72])
    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("j", [0, 1, 5])
    def test_family_stacks_are_the_operators(self, dim, offset, j):
        # the premise of the family rows: row n - 1 of each stack is P_j(n),
        # C_j(n) or T_{n,j}(n) as its element builder makes it, and as the
        # definitions give it at each e_m: [m = j (mod n)], c_n(m - j), [gcd(m - j, n) = 1]
        fam = OperatorFamily(dim, offset)
        stacks = {kind: fam.family(j, 30, kind) for kind in "PCT"}
        window = range(offset, offset + dim)
        for kind, build, entry in (
                ("P", lambda n: fam.projection(j, n), lambda n, x: int(x % n == 0)),
                ("C", lambda n: fam.c_operator(j, n), ramanujan_sum),
                ("T", lambda n: fam.t_operator(n, j, n), lambda n, x: int(math.gcd(x, n) == 1))):
            assert stacks[kind].dtype == np.int64 and stacks[kind].shape == (30, dim)
            assert stacks[kind].tolist() == [list(build(n).entries) for n in range(1, 31)]
            assert stacks[kind].tolist() == [[entry(n, m - j) for m in window]
                                             for n in range(1, 31)]

    def test_c_operator_and_the_c_stack_read_one_value_per_class(self, monkeypatch):
        # c_n(g) is asked of ramanujan_sum once per class (n, g) the window meets
        calls = []
        monkeypatch.setattr(ramanujan_ops, "ramanujan_sum",
                            lambda n, g: calls.append((n, g)) or ramanujan_sum(n, g))
        fam = OperatorFamily(72, 1)
        fam.c_operator(5, 12)
        assert sorted(calls) == [(12, g) for g in divisors(12)]
        calls.clear()
        fam.family(5, 30, "C")
        assert sorted(calls) == [(n, g) for n in range(1, 31) for g in divisors(n)]

    @settings(max_examples=40, deadline=None)
    @given(levels)
    def test_residuals_match_the_oracles(self, level):
        n, j, offset, dim = level
        fam = OperatorFamily(dim, offset)
        # the rounded float construction and the exact ones are all 0
        assert c_operator_constructions(n) == constructions_oracle(fam, j, n)
        assert t_top_identities(n) == t_top_oracle(fam, j, n) == 0
        assert t_decomposition(n) == t_decomposition_oracle(fam, j, n) == 0
        assert c_t_transforms(n) == c_t_transforms_oracle(fam, j, n) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 4, 6, 12, 18, 24, 30, 36]), st.integers(0, 1),
           st.integers(1, 90), st.data())
    def test_even_identity_matches_the_oracle(self, n, offset, dim, data):
        alpha = EvenFunction(n, {r: data.draw(st.integers(-9, 9)) for r in divisors(n)})
        j = data.draw(st.integers(-n, 2 * n))
        fam = OperatorFamily(dim, offset)
        assert even_function_identity(alpha) == even_identity_oracle(fam, alpha, j, n) == 0

    def test_weighted_sum_stays_exact_past_int64(self):
        # int64 would wrap 2^62 + 2^62 to -2^63
        stack = np.ones((2, 3), dtype=np.int64)
        assert oracle_forms._weighted([2**62, 2**62], stack).tolist() == [2**63] * 3
        assert oracle_forms._weighted([2, -3], stack).dtype == np.int64

    @settings(max_examples=30, deadline=None)
    @given(levels, st.data())
    def test_wrong_c_value_gives_the_oracles_residuals(self, level, data):
        # c_r(g) off by one for one level r and gcd class g, wherever it is read
        n, j, offset, dim = level
        r = data.draw(st.sampled_from(divisors(n)))
        g = data.draw(st.sampled_from(divisors(r)))

        def wrong(q, x):
            return ramanujan_sum(q, x) + ((q, math.gcd(x % q, q)) == (r, g))

        fam = OperatorFamily(dim, offset)
        oracle_forms._divisor_tables.cache_clear()  # tables built from the wrong c
        try:
            with mock.patch.object(ramanujan_ops, "ramanujan_sum", wrong):
                assert c_t_transforms(n) == c_t_transforms_oracle(fam, j, n)
                assert c_operator_constructions(n) == constructions_oracle(fam, j, n)
        finally:
            oracle_forms._divisor_tables.cache_clear()


class TestOnePeriodDecides:
    """Every T_{r,j}(n) and C_j(r) with r | n has period n, so the window
    oracles on one period and on three give the class-table residuals."""

    @settings(deadline=None)
    @given(st.integers(1, 40), st.integers(-50, 50), st.integers(0, 1))
    def test_partitions_and_transforms(self, n, j, offset):
        one, three = OperatorFamily(n, offset), OperatorFamily(3 * n, offset)
        assert t_decomposition_oracle(one, j, n) == t_decomposition_oracle(
            three, j, n) == t_decomposition(n)
        assert c_t_transforms_oracle(one, j, n) == c_t_transforms_oracle(
            three, j, n) == c_t_transforms(n)


class TestEvenFunctionIdentity:
    def test_gcd_mod_4(self):
        alpha = EvenFunction(4, {r: math.gcd(r, 4) for r in divisors(4)})
        assert even_function_identity(alpha) == 0

    def test_constant_one_mod_6(self):
        alpha = EvenFunction(6, {r: 1 for r in divisors(6)})
        for j in (0, 1, 2):
            assert even_function_identity(alpha) == even_identity_oracle(
                OperatorFamily(12), alpha, j, 6) == 0

    def test_trivial_modulus(self):
        alpha = EvenFunction(1, {1: 3})
        assert even_function_identity(alpha) == 0


def is_prime(q):
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


class TestRootsModQ:
    """The exact root-of-unity evaluation in F_q, against the float sums."""

    def test_q_is_the_least_prime_above_2n_with_an_element_of_order_n(self):
        for n in range(1, 201):
            q, powers = ramanujan_ops._roots_mod(n)
            assert is_prime(q) and q > 2 * n and (q - 1) % n == 0
            assert not any(is_prime(p) for p in range(2 * n + 1, q) if (p - 1) % n == 0)
            omega = int(powers[1 % n])
            assert powers.tolist() == [pow(omega, e, q) for e in range(n)]
            assert pow(omega, n, q) == 1
            assert all(pow(omega, n // p, q) != 1 for p in range(2, n + 1)
                       if n % p == 0 and is_prime(p))
            assert powers.dtype == np.int64 and not powers.flags.writeable

    def test_level_below_one_is_refused(self):
        # q would never leave 2n + 1 at n = 0
        for n in (0, -3):
            with pytest.raises(ValueError, match="level n must be positive"):
                root_sum_residual([1], np.arange(1), n, 0)

    def test_float_sums_round_to_the_exact_c_table(self):
        for n in range(1, 201):
            divs, _, _, c = oracle_forms._divisor_tables(n)
            x = np.arange(n)
            coprime = np.array([k for k in range(1, n + 1) if math.gcd(k, n) == 1])
            sums = np.exp(2j * np.pi * np.outer(coprime, x) / n).sum(axis=0)
            exact = c[-1][np.searchsorted(divs, np.gcd(x, n))]
            assert np.abs(sums - exact).max() < 1e-9
            assert np.rint(sums.real).astype(np.int64).tolist() == exact.tolist()
            assert root_of_unity_residual(n) == 0

    def test_every_small_change_to_one_c_entry_is_seen(self):
        # a change d is read back as its symmetric residue mod q, which is |d| unless
        # n = 1 (q = 3); it is never 0, as 0 < |d| < q
        for n in range(1, 61):
            q = ramanujan_ops._roots_mod(n)[0]
            divs, _, _, c = oracle_forms._divisor_tables(n)
            x = np.arange(n)
            at = np.searchsorted(divs, np.gcd(x, n))
            coprime = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
            for g in range(len(divs)):
                for delta in (-2, -1, 1, 2):
                    wrong = c[-1].copy()
                    wrong[g] += delta
                    assert root_sum_residual(coprime, x, n, wrong[at]) == min(
                        abs(delta), q - abs(delta)) > 0

    def test_dft_sums_are_n_times_p0(self):
        for n in range(1, 61):
            expected = n * (np.arange(n) == 0)
            assert root_sum_residual(range(n), np.arange(n), n, expected) == 0
            assert root_sum_residual(range(n), np.arange(n), n, expected + 1) == 1

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_c_entry_fails_the_scalar_row(self, monkeypatch, delta):
        def wrong(n_max):  # c_12(4) = -2 read as -2 + delta
            levels = ramanujan_ops.level_table(n_max)
            c = levels.c.copy()
            c[levels.at(12, 4)] += delta
            return levels._replace(c=c)

        monkeypatch.setattr(suites, "level_table", wrong)
        row = run_suite("ramanujan", n_max=12, dim=60)["checks"][0]
        assert row["identity"] == "scalar Ramanujan sums vs root-of-unity oracle"
        assert row["pass"] is False and row["max_residual"] == 1.0
        assert row["counterexample"] == {"n": 12}

    def test_omega_squared_at_even_n_fails_the_root_of_unity_rows(self, monkeypatch):
        real = ramanujan_ops._roots_mod

        def squared(n):  # omega^2 has order n/2 at even n
            q, powers = real(n)
            return (q, powers[2 * np.arange(n) % n]) if n % 2 == 0 else (q, powers)

        monkeypatch.setattr(ramanujan_ops, "_roots_mod", squared)
        assert [root_of_unity_residual(n) for n in range(1, 9)] == [0, 2, 0, 4, 0, 4, 0, 8]
        rows = run_suite("all", n_max=12, dim=60)["checks"]
        failed = {row["identity"]: row for row in rows if not row["pass"]}
        assert list(failed) == ["congruence-exact vs DFT provider",
                                "scalar Ramanujan sums vs root-of-unity oracle",
                                "operator Ramanujan identities (three constructions, partitions)"]
        scalar = failed["scalar Ramanujan sums vs root-of-unity oracle"]
        assert scalar["max_residual"] == 8.0 and scalar["counterexample"] == {"n": 8}

    def test_flipped_p0_entry_fails_the_dft_row(self, monkeypatch):
        real = ramanujan_ops.IdempotentSystem.projections

        def flipped(self, js, n):  # P_0(5) reads 1 at e_1
            stack = real(self, js, n).copy()
            if n == 5:
                stack[0, 1] = 1
            return stack

        monkeypatch.setattr(ramanujan_ops.IdempotentSystem, "projections", flipped)
        rows = {row["identity"]: row for row in run_suite("axioms", n_max=12, dim=60)["checks"]}
        row = rows["congruence-exact vs DFT provider"]
        assert row["pass"] is False and row["max_residual"] == 5.0
        assert row["counterexample"] == {"n": 5}
