"""Scalar number theory against brute-force oracles."""

import cmath
import dataclasses
import importlib
import inspect
import math
import pkgutil
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import idemarith
from idemarith.arith import (
    EvenFunction,
    divisors,
    epsilon,
    factorize,
    jordan_totient,
    lcm_tuple_count,
    mobius,
    nu,
    omega,
    prime_power_product,
    prime_power_split,
    ramanujan_sum,
    rf_residual,
    rf_transform,
    tau,
    totient,
)
from oracle_forms import crt_solve, rf_residual_per_k, rf_transform_per_k


def root_of_unity_sum(n, j):
    """Independent oracle: the literal sum of eps_n^{jk} over k coprime to n."""
    return sum(
        cmath.exp(2j * cmath.pi * j * k / n)
        for k in range(1, n + 1)
        if math.gcd(k, n) == 1
    )


class TestFactorize:
    def test_examples(self):
        assert factorize(1) == ()
        assert factorize(12) == ((2, 2), (3, 1))
        assert factorize(97) == ((97, 1),)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(10**12 + 1)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_roundtrip_and_invariants(self, n):
        pairs = factorize(n)
        primes = [p for p, _ in pairs]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1)) for p in primes)
        assert all(a >= 1 for _, a in pairs)
        assert math.prod(p**a for p, a in pairs) == n


class TestPrimePowerSplit:
    def test_matches_factorize_up_to_3000(self):
        prime, power, rest = (a.tolist() for a in prime_power_split(3000))
        assert (prime[1], power[1], rest[1]) == (1, 1, 1)
        for n in range(2, 3001):
            p, a = factorize(n)[-1]
            assert (prime[n], power[n], rest[n]) == (p, p**a, n // p**a)
            assert factorize(rest[n]) == factorize(n)[:-1]

    @pytest.mark.parametrize("n_max", [1, 2, 3, 16, 17])
    def test_small_tables_are_read_only(self, n_max):
        split = prime_power_split(n_max)
        assert [a.size for a in split] == [n_max + 1] * 3
        for array in split:
            with pytest.raises(ValueError):
                array[0] = 5

    def test_product_multiplies_in_ascending_prime_order(self):
        class Word:  # a free monoid: a product spells the order of its factors
            def __init__(self, text):
                self.text = text

            def __mul__(self, other):
                return Word(self.text + other.text)

        _, power, _ = prime_power_split(60)
        factor = np.array([Word(f"[{q}]") for q in power.tolist()], dtype=object)
        acc = [w.text for w in prime_power_product(factor, Word("1"))[1:]]
        assert acc[0] == "1" and acc[7] == "1[8]" and acc[59] == "1[4][3][5]"
        for n in range(2, 61):
            assert acc[n - 1] == "1" + "".join(f"[{p**a}]" for p, a in factorize(n))


class TestClassicalFunctions:
    def test_mobius_examples(self):
        assert mobius(1) == 1
        assert mobius(30) == -1
        assert mobius(12) == 0

    @pytest.mark.parametrize("n", range(1, 120))
    def test_totient_direct_count(self, n):
        assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    def test_totient_examples(self):
        assert totient(1) == 1
        assert totient(12) == 4
        assert totient(13) == 12

    def test_jordan_examples(self):
        assert jordan_totient(1, 12) == totient(12) == 4
        assert jordan_totient(2, 6) == 24
        assert jordan_totient(3, 1) == 1

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_jordan_equals_totient_at_r1_and_formula(self, r):
        for n in range(1, 60):
            expected = n**r
            for p, _ in factorize(n):
                expected = expected // p**r * (p**r - 1)
            assert jordan_totient(r, n) == expected

    def test_standard_scalars(self):
        assert omega(12) == 2
        assert tau(1) == 1
        assert nu(2, 5) == 25
        assert nu(-1, 4) == Fraction(1, 4)
        assert isinstance(nu(-2, 3), Fraction)
        assert epsilon(1) == 1 and epsilon(7) == 0

    def test_mobius_inversion(self):
        for n in range(1, 1001):
            assert sum(mobius(d) for d in divisors(n)) == epsilon(n)


class TestMultiplicativity:
    def test_coprime_products(self):
        for n in range(1, 40):
            for m in range(1, 300 // max(n, 1) + 1):
                if math.gcd(n, m) != 1 or n * m > 300:
                    continue
                assert mobius(n * m) == mobius(n) * mobius(m)
                assert totient(n * m) == totient(n) * totient(m)
                assert jordan_totient(2, n * m) == jordan_totient(2, n) * jordan_totient(2, m)

    def test_ramanujan_multiplicative_in_n(self):
        for n, m in [(2, 3), (3, 4), (4, 9), (5, 6), (8, 9)]:
            for j in range(n * m):
                assert ramanujan_sum(n * m, j) == ramanujan_sum(n, j) * ramanujan_sum(m, j)


class TestRamanujanSum:
    def test_special_values(self):
        assert ramanujan_sum(6, 6) == totient(6) == 2
        assert ramanujan_sum(5, 1) == mobius(5) == -1
        assert ramanujan_sum(9, 3) == -3
        assert ramanujan_sum(4, 2) == -2

    @pytest.mark.parametrize("n", range(1, 51))
    def test_root_of_unity_oracle(self, n):
        for j in range(n):
            assert abs(ramanujan_sum(n, j) - root_of_unity_sum(n, j)) < 1e-9

    def test_periodicity(self):
        for n in range(1, 201):
            for j in range(0, 2 * n, max(1, n // 7)):
                assert ramanujan_sum(n, j) == ramanujan_sum(n, j + n)

    def test_hoelder(self):
        for n in range(1, 201):
            for j in range(n):
                g = math.gcd(j if j else n, n)
                num = mobius(n // g) * totient(n)
                if num % totient(n // g) == 0:
                    assert ramanujan_sum(n, j) == num // totient(n // g)


class TestLcmTupleCount:
    def brute(self, s, n):
        # enumerate s-tuples of divisors of n with lcm exactly n
        from itertools import product

        count = 0
        for tup in product(divisors(n), repeat=s):
            l = 1
            for t in tup:
                l = l * t // math.gcd(l, t)
            if l == n:
                count += 1
        return count

    def test_examples(self):
        assert lcm_tuple_count(2, 4) == 5
        assert lcm_tuple_count(3, 1) == 1
        assert lcm_tuple_count(2, 12) == 15

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_brute_force(self, s):
        for n in range(1, 61):
            assert lcm_tuple_count(s, n) == self.brute(s, n)


class TestCrt:
    def test_examples(self):
        assert crt_solve(1, 2, 2, 3) == 5
        assert crt_solve(0, 2, 1, 2) is None
        assert crt_solve(3, 5, 3, 5) == 3

    def scan(self, k, n, l, m):
        lcm = math.lcm(n, m)
        hits = [j for j in range(lcm) if (j - k) % n == 0 and (j - l) % m == 0]
        return hits[0] if hits else None

    def test_exhaustive_small(self):
        for n in range(1, 13):
            for m in range(1, 13):
                for k in range(n):
                    for l in range(m):
                        assert crt_solve(k, n, l, m) == self.scan(k, n, l, m)

    @given(st.integers(1, 40), st.integers(1, 40), st.data())
    @settings(max_examples=200)
    def test_sampled_up_to_40(self, n, m, data):
        k = data.draw(st.integers(0, n - 1))
        l = data.draw(st.integers(0, m - 1))
        assert crt_solve(k, n, l, m) == self.scan(k, n, l, m)


class TestEvenFunctions:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            EvenFunction(4, {1: 1, 2: 2})  # missing the divisor 4

    def test_evaluation_depends_on_gcd(self):
        alpha = EvenFunction(12, {r: r * r for r in divisors(12)})
        for n in range(1, 40):
            assert alpha(n) == math.gcd(n, 12) ** 2

    def test_rf_gcd4_orthogonal(self):
        alpha = EvenFunction(4, {r: math.gcd(r, 4) for r in divisors(4)})
        coeffs = rf_transform(alpha)
        # frozen from solving the 3x3 divisor system by hand
        assert coeffs.orthogonal == {1: 2, 2: 1, 4: Fraction(1, 2)}
        assert coeffs.unnormalized == {1: 8, 2: 4, 4: 2}

    def test_rf_constant_mod_1(self):
        alpha = EvenFunction(1, {1: 1})
        coeffs = rf_transform(alpha)
        assert coeffs.orthogonal == {1: 1}

    def test_rf_linear_system_oracle(self):
        # independent oracle: solve the reconstruction system directly
        import numpy as np

        d = 4
        alpha = EvenFunction(d, {r: math.gcd(r, d) for r in divisors(d)})
        divs = divisors(d)
        a = np.array([[ramanujan_sum(r, n) for r in divs] for n in range(1, d + 1)],
                     dtype=float)
        b = np.array([alpha(n) for n in range(1, d + 1)], dtype=float)
        solved, *_ = np.linalg.lstsq(a, b, rcond=None)
        coeffs = rf_transform(alpha)
        for r, value in zip(divs, solved):
            assert abs(float(coeffs.orthogonal[r]) - value) < 1e-9

    def test_rf_roundtrip_random(self):
        import numpy as np

        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.choice([1, 2, 3, 4, 6, 8, 12, 16, 18, 24, 36, 48]))
            alpha = EvenFunction(d, {r: int(rng.integers(-9, 10)) for r in divisors(d)})
            coeffs = rf_transform(alpha)
            for n in range(1, d + 1):
                recon = sum(coeffs.orthogonal[r] * ramanujan_sum(r, n) for r in divisors(d))
                assert abs(recon - alpha(n)) < 1e-9

    def test_rf_unnormalized_is_d_times_orthogonal(self):
        for d in (6, 12, 30):
            alpha = EvenFunction(d, {r: r + 1 for r in divisors(d)})
            coeffs = rf_transform(alpha)
            for r in divisors(d):
                assert coeffs.unnormalized[r] == d * coeffs.orthogonal[r]

    @given(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 18, 24, 30, 36, 48]), st.data())
    def test_rf_residual_is_zero_on_exact_values(self, d, data):
        values = {r: data.draw(st.integers(-9, 9)) for r in divisors(d)}
        assert rf_residual(EvenFunction(d, values)) == 0

    @pytest.mark.parametrize("d", range(1, 61))
    def test_class_form_is_the_per_k_form(self, monkeypatch, d):
        # the premise of the class sums: alpha(k) c_r(k), r | d, depends on
        # g = gcd(k, d) alone, and phi(d/g) of the k = 1..d have that g
        rng = random.Random(d)
        for values in ({r: r + 1 for r in divisors(d)},
                       {r: rng.randint(-9, 9) for r in divisors(d)}):
            alpha = EvenFunction(d, values)
            coeffs = rf_transform(alpha)
            assert coeffs == rf_transform_per_k(alpha)
            assert rf_residual(alpha) == rf_residual_per_k(alpha) == 0
            # both normalizations off by one term, consistently: only the
            # reconstruction fails, and its worst over the classes is its worst
            # over n = 1..d
            r, delta = rng.choice(divisors(d)), rng.choice([-2, 1, 3])
            wrong = dataclasses.replace(
                coeffs, unnormalized={**coeffs.unnormalized, r: coeffs.unnormalized[r] + delta},
                orthogonal={**coeffs.orthogonal, r: coeffs.orthogonal[r] + Fraction(delta, d)})
            monkeypatch.setattr("idemarith.arith.rf_transform", lambda alpha: wrong)
            assert rf_residual(alpha) == rf_residual_per_k(alpha, wrong) == abs(delta) * totient(r)
            monkeypatch.undo()

    @pytest.mark.parametrize("normalization", ["unnormalized", "orthogonal"])
    def test_rf_residual_sees_a_dropped_divisor_term(self, monkeypatch, normalization):
        # fault injection: rf_transform loses the r = 2 term of one
        # normalization, as a sum that skips one divisor would
        exact = rf_transform

        def dropped(alpha):
            coeffs = exact(alpha)
            return dataclasses.replace(
                coeffs, **{normalization: {**getattr(coeffs, normalization), 2: 0}})

        monkeypatch.setattr("idemarith.arith.rf_transform", dropped)
        alpha = EvenFunction(4, {r: math.gcd(r, 4) for r in divisors(4)})
        assert rf_residual(alpha) > 0


def _cache_holders():
    """(name, object) for every module-level object of the package, and every
    attribute of a class defined there, that has a ``cache_info``."""
    for info in pkgutil.iter_modules(idemarith.__path__):
        module = importlib.import_module(f"idemarith.{info.name}")
        for name, obj in vars(module).items():
            own_class = inspect.isclass(obj) and obj.__module__ == module.__name__
            members = vars(obj).items() if own_class else ()
            for label, value in [(name, obj), *((f"{name}.{k}", v) for k, v in members)]:
                if hasattr(value, "cache_info"):
                    yield f"{module.__name__}.{label}", value


def test_every_cache_in_the_package_is_bounded():
    # an unbounded cache keeps one entry per distinct argument for the life of the process
    holders = dict(_cache_holders())
    assert {"idemarith.arith.factorize", "idemarith.arith.divisors",
            "idemarith.arith._ramanujan_reduced"} <= holders.keys()
    assert {name: value.cache_info().maxsize for name, value in holders.items()
            if value.cache_info().maxsize is None} == {}
