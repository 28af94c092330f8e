"""Operator-valued Ramanujan sums and the divisor-partition idempotents."""

import cmath
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idemarith import ramanujan_ops
from idemarith.algebra import element_from_json, element_to_json, is_idempotent
from idemarith.arith import (EvenFunction, divisors, factorize, mobius, ramanujan_sum,
                             rf_transform, tau)
from idemarith.convolution import AlgFunction, is_multiplicative
from idemarith.ramanujan_ops import OperatorFamily


# The divisor-family identities one operator at a time, from c_operator,
# t_operator and projection diagonals: the oracles of the stacked forms.
# They read c_n through the module, so a patched one reaches both forms.

def constructions_oracle(fam, j, n):
    exact = fam.c_operator(j, n)
    root_of_unity = fam.s_power_sum(j, n, [k for k in range(1, n + 1) if math.gcd(k, n) == 1])
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


# a level, an index j in [-n, 2n], a basis offset and a window shorter or
# longer than the level
levels = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(-n, 2 * n), st.integers(0, 1), st.integers(1, 90)))


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
        fam = OperatorFamily(n)
        residuals = fam.c_operator_constructions(j, n)
        assert residuals["root_of_unity"] < 1e-9
        assert residuals["moebius_sum"] == 0
        assert residuals["prime_product"] == 0

    @pytest.mark.parametrize("n", [1, 2, 7, 12, 30, 60])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_coprime_power_sum_is_c(self, n, offset):
        fam = OperatorFamily(2 * n + 5, offset)
        coprime = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
        for j in (0, 1, n - 1, -3):
            assert fam.s_power_sum(j, n, coprime).distance(fam.c_operator(j, n)) <= 1e-9

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
        for m, v in zip(fam._indices, top.entries):
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
        selected = [m for m, v in zip(fam._indices, t.entries) if v]
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
            getattr(OperatorFamily(8), method)(0, n)

    def test_s_power_sum_rejects_level_zero_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="level n must be positive"):
                OperatorFamily(8).s_power_sum(1, 0, [1, 2])

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
        fam = OperatorFamily(n)
        assert fam.t_top_identities(j, n) == 0


class TestDecomposition:
    @pytest.mark.parametrize("n", [1, 2, 7, 12, 24, 30])
    def test_partition_of_identity(self, n):
        fam = OperatorFamily(2 * n)
        assert fam.t_decomposition(0, n) == 0  # includes the tau(n) member count

    def test_members_are_idempotent(self):
        fam = OperatorFamily(24)
        for r in divisors(12):
            assert is_idempotent(fam.t_operator(r, 1, 12), 0)


class TestTransforms:
    @pytest.mark.parametrize("n,j", [(1, 0), (4, 2), (6, 0), (18, 1), (30, 2)])
    def test_both_directions(self, n, j):
        fam = OperatorFamily(3 * n)
        assert fam.c_t_transforms(j, n) == 0


class TestDivisorStacks:
    """The stacked identities against the per-operator oracles above."""

    @settings(max_examples=60, deadline=None)
    @given(levels)
    def test_stack_rows_are_the_operators(self, level):
        n, j, offset, dim = level
        fam = OperatorFamily(dim, offset)
        divs, *stacks = fam._stacks(j, n)
        assert divs == divisors(n)
        for r, t, p, c in zip(divs, *stacks):
            assert tuple(t.tolist()) == fam.t_operator(r, j, n).entries
            assert tuple(p.tolist()) == fam.projection(j, r).entries
            assert tuple(c.tolist()) == fam.c_operator(j, r).entries

    @settings(max_examples=40, deadline=None)
    @given(levels)
    def test_residuals_match_the_oracles(self, level):
        n, j, offset, dim = level
        fam = OperatorFamily(dim, offset)
        # the float construction is bit-equal, the exact ones are 0
        assert fam.c_operator_constructions(j, n) == constructions_oracle(fam, j, n)
        assert fam.t_top_identities(j, n) == t_top_oracle(fam, j, n) == 0
        assert fam.t_decomposition(j, n) == t_decomposition_oracle(fam, j, n) == 0
        assert fam.c_t_transforms(j, n) == c_t_transforms_oracle(fam, j, n) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 4, 6, 12, 18, 24, 30, 36]), st.integers(0, 1),
           st.integers(1, 90), st.data())
    def test_even_identity_matches_the_oracle(self, n, offset, dim, data):
        alpha = EvenFunction(n, {r: data.draw(st.integers(-9, 9)) for r in divisors(n)})
        j = data.draw(st.integers(-n, 2 * n))
        fam = OperatorFamily(dim, offset)
        assert fam.even_function_identity(alpha, j, n) == even_identity_oracle(
            fam, alpha, j, n) == 0

    def test_weighted_sum_stays_exact_past_int64(self):
        # int64 would wrap 2^62 + 2^62 to -2^63
        stack = np.ones((2, 3), dtype=np.int64)
        assert ramanujan_ops._weighted([2**62, 2**62], stack).tolist() == [2**63] * 3
        assert ramanujan_ops._weighted([2, -3], stack).dtype == np.int64

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
        ramanujan_ops._divisor_tables.cache_clear()  # tables built from the wrong c
        try:
            with mock.patch.object(ramanujan_ops, "ramanujan_sum", wrong):
                assert fam.c_t_transforms(j, n) == c_t_transforms_oracle(fam, j, n)
                assert fam.c_operator_constructions(j, n) == constructions_oracle(fam, j, n)
        finally:
            ramanujan_ops._divisor_tables.cache_clear()


class TestOnePeriodDecides:
    """Every T_{r,j}(n) and C_j(r) with r | n has period n, so window n
    gives the same residuals as a window of three periods."""

    @given(st.integers(1, 40), st.integers(-50, 50), st.integers(0, 1))
    def test_partitions_and_transforms(self, n, j, offset):
        one, three = OperatorFamily(n, offset), OperatorFamily(3 * n, offset)
        assert one.t_decomposition(j, n) == three.t_decomposition(j, n)
        assert one.c_t_transforms(j, n) == three.c_t_transforms(j, n)


class TestEvenFunctionIdentity:
    def test_gcd_mod_4(self):
        fam = OperatorFamily(16)
        alpha = EvenFunction(4, {r: math.gcd(r, 4) for r in divisors(4)})
        assert fam.even_function_identity(alpha, 0, 4) == 0

    def test_constant_one_mod_6(self):
        fam = OperatorFamily(12)
        alpha = EvenFunction(6, {r: 1 for r in divisors(6)})
        for j in (0, 1, 2):
            assert fam.even_function_identity(alpha, j, 6) == 0

    def test_trivial_modulus(self):
        fam = OperatorFamily(6)
        alpha = EvenFunction(1, {1: 3})
        assert fam.even_function_identity(alpha, 0, 1) == 0

    def test_modulus_mismatch_rejected(self):
        fam = OperatorFamily(12)
        alpha = EvenFunction(4, {r: r for r in divisors(4)})
        with pytest.raises(ValueError):
            fam.even_function_identity(alpha, 0, 6)
