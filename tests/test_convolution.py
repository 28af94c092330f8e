"""Convolution products against number-theoretic oracles."""

import copy
import itertools
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idemarith import arith, convolution
from idemarith.algebra import (
    _INT64_MAX,
    DenseMatrix,
    DiagonalOperator,
    NonInvertibleError,
    Scalar,
    ShapeMismatchError,
    invert,
    is_idempotent,
)
from idemarith.arith import (
    divisors,
    epsilon,
    factorize,
    jordan_totient,
    lcm_tuple_count,
    mobius,
    omega,
    totient,
)
from idemarith.convolution import (
    AlgFunction,
    InverseCheckError,
    dirichlet_convolve,
    dirichlet_identity,
    dirichlet_inverse,
    is_multiplicative,
    lcm_convolve,
    lehmer_identity_check,
    lehmer_sides,
    scalar_dirichlet,
    scalar_lcm,
    scalar_table,
    scalar_unitary,
    unitary_convolve,
)
from idemarith.idempotents import IdempotentSystem
from oracle_forms import convolve_elements, dirichlet_inverse_objects, is_multiplicative_loop

UNIT = Scalar(1)


def lifted(alpha, n_max):
    return AlgFunction.lift(alpha, UNIT, n_max)


def dirichlet_loop(a, b, zero):
    """The Dirichlet product as a per-n loop over the divisors d of n,
    ascending: the reference for the index kernel."""
    out = []
    for n in range(1, len(a) + 1):
        acc = zero
        for d in divisors(n):
            acc = acc + a[d - 1] * b[n // d - 1]
        out.append(acc)
    return out


def lcm_loop(a, b, zero):
    """The lcm product as a per-n loop over the divisor pairs (k, l) of n
    with gcd(n/k, n/l) = 1, k ascending then l ascending."""
    out = []
    for n in range(1, len(a) + 1):
        acc = zero
        for k in divisors(n):
            for l in divisors(n):
                if math.gcd(n // k, n // l) == 1:
                    acc = acc + a[k - 1] * b[l - 1]
        out.append(acc)
    return out


def unitary_loop(a, b, zero):
    """The unitary product as a per-n loop over the divisors d of n with
    gcd(d, n/d) = 1, ascending."""
    out = []
    for n in range(1, len(a) + 1):
        acc = zero
        for d in divisors(n):
            if math.gcd(d, n // d) == 1:
                acc = acc + a[d - 1] * b[n // d - 1]
        out.append(acc)
    return out


def inverse_loop(f):
    """The right-inverse recursion as a per-n loop over the divisors d > 1."""
    lead_inv = invert(f(1))
    g = [lead_inv]
    for n in range(2, f.n_max + 1):
        acc = f(1).zero()
        for d in divisors(n)[1:]:
            acc = acc + f(d) * g[n // d - 1]
        g.append(-(lead_inv * acc))
    return g


# (scalar product, AlgFunction product, per-n loop) for each kind
PRODUCTS = {
    "dirichlet": (scalar_dirichlet, dirichlet_convolve, dirichlet_loop),
    "lcm": (scalar_lcm, lcm_convolve, lcm_loop),
    "unitary": (scalar_unitary, unitary_convolve, unitary_loop),
}


def bits(values):
    """The float64 bit patterns of real or complex values."""
    return np.array(values, dtype=complex).view(np.uint64).tolist()


def convolved(kind, a, b):
    """The values of the product ``kind`` of a and b as Scalar-valued AlgFunctions."""
    f, g = (AlgFunction(map(Scalar, table)) for table in (a, b))
    return [v.value for v in PRODUCTS[kind][1](f, g).values]


def lcm_all_pairs(a, b, zero):
    """The lcm product from its definition over all pairs (k, l), k
    ascending then l ascending: a reference for the lcm product that
    shares no term enumeration with it."""
    n_max = len(a)
    out = [zero] * n_max
    for k in range(1, n_max + 1):
        for l in range(1, n_max + 1):
            m = k * l // math.gcd(k, l)
            if m <= n_max:
                out[m - 1] = out[m - 1] + a[k - 1] * b[l - 1]
    return out


class TestDirichlet:
    def test_moebius_inversion(self):
        f = dirichlet_convolve(lifted(mobius, 100), lifted(lambda n: 1, 100))
        for n in range(1, 101):
            assert f(n).value == epsilon(n)

    def test_totient_sum(self):
        f = dirichlet_convolve(lifted(totient, 100), lifted(lambda n: 1, 100))
        for n in range(1, 101):
            assert f(n).value == n

    def test_identity_laws(self):
        ident = dirichlet_identity(UNIT, 50)
        assert ident(1).value == 1 and ident(2).value == 0
        f = lifted(totient, 50)
        for prod in (dirichlet_convolve, lcm_convolve, unitary_convolve):
            for n in range(1, 51):
                assert prod(f, ident)(n).value == f(n).value
                assert prod(ident, f)(n).value == f(n).value


class TestLcm:
    def test_ones_counts_pairs(self):
        f = lcm_convolve(lifted(lambda n: 1, 60), lifted(lambda n: 1, 60))
        for n in range(1, 61):
            assert f(n).value == lcm_tuple_count(2, n)
        assert f(4).value == 5

    def test_totient_square_is_jordan(self):
        f = lcm_convolve(lifted(totient, 60), lifted(totient, 60))
        for n in range(1, 61):
            assert f(n).value == jordan_totient(2, n)
        assert f(6).value == 24

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=80), st.data())
    def test_scalar_matches_all_pairs(self, a, data):
        b = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=len(a), max_size=len(a)))
        assert scalar_lcm(a, b) == lcm_all_pairs(a, b, 0)

    def test_scalar_matches_all_pairs_at_3000(self):
        rng = np.random.default_rng(3000)
        a, b = (rng.integers(-9, 10, 3000).tolist() for _ in range(2))
        assert scalar_lcm(a, b) == lcm_all_pairs(a, b, 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 80), st.integers(0, 2**32 - 1))
    def test_dense_matches_all_pairs_exactly(self, n_max, seed):
        # float entries of non-commuting matrices: equal arrays pin both
        # the factor order and the summation order
        rng = np.random.default_rng(seed)
        f, g = (AlgFunction([DenseMatrix(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                             for _ in range(n_max)]) for _ in range(2))
        assert any(not np.array_equal((x * y).array, (y * x).array)
                   for x, y in zip(f.values, g.values))
        got = lcm_convolve(f, g).values
        want = lcm_all_pairs(f.values, g.values, f(1).zero())
        assert all(np.array_equal(x.array, y.array) for x, y in zip(got, want))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 80), st.integers(0, 2**32 - 1))
    def test_diagonal_matches_all_pairs(self, n_max, seed):
        rng = np.random.default_rng(seed)
        f, g = (AlgFunction([DiagonalOperator(rng.integers(-9, 10, 3).tolist())
                             for _ in range(n_max)]) for _ in range(2))
        got = lcm_convolve(f, g).values
        want = lcm_all_pairs(f.values, g.values, f(1).zero())
        assert [x.entries for x in got] == [y.entries for y in want]

    def test_jordan_as_repeated_lcm_power(self):
        phi = lifted(totient, 40)
        f = phi
        for r in (2, 3):
            f = lcm_convolve(f, phi)
            for n in range(1, 41):
                assert f(n).value == jordan_totient(r, n)


TERM_COUNTS = [  # each product's terms at n, and their total on 1..3000
    ("dirichlet", lambda n: len(divisors(n)), 24496),
    ("lcm", lambda n: lcm_tuple_count(2, n), 86212),
    ("unitary", lambda n: 2 ** omega(n), 16961),
]
GROWTH = (1, 2, 255, 256, 257, 1000, 3000)  # the sizes an index is grown through, and past


def assert_holds_each_term_once(index, terms, total):
    left, right, starts = index
    assert np.diff(starts).tolist() == [terms(n) for n in range(1, len(starts))]
    assert starts[-1] == left.size == right.size == total
    assert left.dtype == right.dtype == starts.dtype == np.int32


def assert_grown_index_matches_one_shot(n_max: int, kinds=sorted(PRODUCTS)):
    """Each product's index grown through the GROWTH sizes below n_max, then to
    n_max, equals at every size the index built for that size at once."""
    sizes = [size for size in (*GROWTH, n_max) if size <= n_max]
    for kind in kinds:
        convolution._indexes.clear()
        grown = [convolution._index(kind, size) for size in sizes]
        for size, index in zip(sizes, grown):
            convolution._indexes.clear()
            one_shot = convolution._index(kind, size)
            assert all(x.tolist() == y.tolist() and x.dtype == y.dtype
                       for x, y in zip(index, one_shot)), (kind, size)


def spy_blocks(monkeypatch) -> list:
    """Record (kind, lo, hi) of each block of terms ``convolution._index`` builds."""
    built, real = [], convolution._terms

    def counted(kind, lo, hi, base):
        built.append((kind, lo, hi))
        return real(kind, lo, hi, base)

    monkeypatch.setattr(convolution, "_terms", counted)
    return built


def random_dense(rng, scale=1.0):
    return DenseMatrix(scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))))


class TestIndexKernel:
    """The index kernel against the per-n loops, on every value type."""

    KINDS = sorted(PRODUCTS)

    @pytest.mark.parametrize("kind", KINDS)
    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=120), st.data())
    def test_ints(self, kind, a, data):
        b = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=len(a), max_size=len(a)))
        prod, _, loop = PRODUCTS[kind]
        for got in (prod(a, b), convolved(kind, a, b)):
            assert got == loop(a, b, 0)
            assert all(type(v) is int for v in got)

    @pytest.mark.parametrize("kind", KINDS)
    @given(st.lists(st.integers(2**31, 2**31 + 2**12), min_size=2, max_size=60))
    def test_sums_past_int64_stay_exact(self, kind, a):
        # every product lies in [2^62, 2^63) and fits int64, but n = 2 sums
        # two of them: only the term-count factor of the bound sends this
        # to exact ints
        prod, _, loop = PRODUCTS[kind]
        for got in (prod(a, a[::-1]), convolved(kind, a, a[::-1])):
            assert got == loop(a, a[::-1], 0)
            assert max(got) > 2**63 - 1 and all(type(v) is int for v in got)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=50)
    @given(st.lists(st.one_of(st.floats(-1e100, 1e100), st.sampled_from([-0.0, math.nan])),
                    min_size=1, max_size=60), st.randoms(use_true_random=False))
    def test_floats_bit_for_bit(self, kind, a, rnd):
        # one NaN and no infinities: the sign of a NaN made from two NaNs, or
        # from inf - inf, follows the processor's operand order, which even
        # CPython's own float addition does not fix
        b = a[:]
        rnd.shuffle(b)
        prod, _, loop = PRODUCTS[kind]
        want = loop(a, b, 0)
        for got in (prod(a, b), convolved(kind, a, b)):
            assert bits(got) == bits(want) and list(map(type, got)) == list(map(type, want))

    @pytest.mark.parametrize("kind", KINDS)
    @given(st.lists(st.fractions(max_denominator=12), min_size=1, max_size=60), st.data())
    def test_fractions(self, kind, a, data):
        b = data.draw(st.lists(st.fractions(max_denominator=12), min_size=len(a),
                               max_size=len(a)))
        prod, _, loop = PRODUCTS[kind]
        for got in (prod(a, b), convolved(kind, a, b)):
            assert got == loop(a, b, 0)
            assert all(type(v) is Fraction for v in got)

    # per stack kind: the entries of its first column, and of each other column
    STACK_ENTRIES = {
        "int64": (st.integers(-10**6, 10**6),) * 2,
        "past the int64 rule": (st.integers(2**40, 2**62).map(lambda v: v * (-1)**v),
                                st.integers(-10**6, 10**6) | st.integers(-2**62, 2**62)),
        "past int64": (st.integers(2**63, 2**70).map(lambda v: v * (-1)**v),
                       st.integers(-10**6, 10**6) | st.integers(-2**70, 2**70)),
        "float": (st.floats(-1e100, 1e100) | st.sampled_from([-0.0, math.nan]),) * 2,
    }

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("values", sorted(STACK_ENTRIES))
    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 12), st.data())
    def test_stack_is_each_column_alone(self, kind, values, n_max, k, data):
        # k tables against the per-table product of each column, in values (bits,
        # for floats) and types: a stack past the int64 rule gives Python ints,
        # also in the columns that alone would run in int64
        first, other = (st.lists(e, min_size=n_max, max_size=n_max)
                        for e in self.STACK_ENTRIES[values])
        a, b = (data.draw(st.tuples(first, st.lists(other, min_size=k - 1, max_size=k - 1)))
                for _ in range(2))
        a, b = [a[0], *a[1]], [b[0], *b[1]]
        prod = PRODUCTS[kind][0]
        dtype = object if values == "past int64" else None
        got = prod(np.array(a, dtype=dtype).T, np.array(b, dtype=dtype).T)
        assert got.shape == (n_max, k)
        assert got.dtype == (np.int64 if values == "int64" else object)
        for j in range(k):
            col, want = got[:, j].tolist(), prod(a[j], b[j])
            assert bits(col) == bits(want) if values == "float" else col == want
            assert all(type(v) is (float if values == "float" else int) for v in col + want)

    def test_stacks_must_match_in_shape(self):
        with pytest.raises(ValueError, match=r"\(4, 2\) vs \(4, 3\)"):
            scalar_lcm(np.ones((4, 2), dtype=np.int64), np.ones((4, 3), dtype=np.int64))
        with pytest.raises(ValueError, match=r"\(4,\) vs \(4, 1\)"):
            scalar_dirichlet([1, 2, 3, 4], np.ones((4, 1), dtype=np.int64))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_dense_bit_for_bit(self, kind, n_max, seed):
        rng = np.random.default_rng(seed)
        f, g = (AlgFunction([random_dense(rng) for _ in range(n_max)]) for _ in range(2))
        _, convolve, loop = PRODUCTS[kind]
        got = convolve(f, g).values
        want = loop(f.values, g.values, f(1).zero())
        assert bits([x.array for x in got]) == bits([y.array for y in want])

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_diagonal(self, kind, n_max, seed):
        rng = np.random.default_rng(seed)
        f, g = (AlgFunction([DiagonalOperator(rng.integers(-9, 10, 3).tolist())
                             for _ in range(n_max)]) for _ in range(2))
        _, convolve, loop = PRODUCTS[kind]
        got = convolve(f, g).values
        assert [x.entries for x in got] == [y.entries for y in loop(f.values, g.values,
                                                                     f(1).zero())]

    @pytest.mark.parametrize("kind, terms, total", TERM_COUNTS)
    def test_index_holds_each_term_once(self, kind, terms, total):
        assert_holds_each_term_once(convolution._index(kind, 3000), terms, total)

    @pytest.mark.parametrize("kind, terms, total", TERM_COUNTS)
    def test_grown_index_is_the_one_shot_index(self, kind, terms, total):
        # grown across the block edges 256/257 to 3000, and read at every step
        assert_grown_index_matches_one_shot(3000, kinds=(kind,))
        assert_holds_each_term_once(convolution._index(kind, 3000), terms, total)

    def test_one_index_is_held_per_product(self):
        for kind, n_max in (("lcm", 100), ("dirichlet", 300), ("lcm", 50), ("unitary", 20)):
            convolution._index(kind, n_max)
        # lcm reads the unitary index, which reads the Dirichlet one, each at its own N
        assert {kind: len(held[2]) - 1 for kind, held in convolution._indexes.items()} == {
            "dirichlet": 300, "unitary": 100, "lcm": 100}

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_request_within_the_held_index_builds_nothing(self, kind, monkeypatch):
        big = convolution._index(kind, 600)
        built = spy_blocks(monkeypatch)
        for n_max in (600, 257, 1, 0):
            small = convolution._index(kind, n_max)
            assert built == []
            assert all(np.shares_memory(x, y) or x.size == 0 for x, y in zip(small, big))
            assert small[2].tolist() == big[2][:n_max + 1].tolist()
            assert small[0].size == small[1].size == small[2][-1]

    def test_a_larger_request_builds_only_past_the_held_n(self, monkeypatch):
        convolution._index("lcm", 300)
        built = spy_blocks(monkeypatch)
        convolution._index("lcm", 600)
        assert sorted(built) == sorted((kind, lo, hi) for kind in self.KINDS
                                       for lo, hi in ((301, 557), (557, 601)))
        built.clear()
        convolution._index("dirichlet", 601)
        assert built == [("dirichlet", 601, 602)]

    def test_a_patched_index_grows_a_wrong_index_held(self, monkeypatch):
        # the hazard tests/conftest.py guards against: the unitary index read as the
        # Dirichlet one leaves an lcm index held that is wrong after the patch is gone
        real = convolution._index
        monkeypatch.setattr(convolution, "_index", lambda kind, n_max: real(
            "dirichlet" if kind == "unitary" else kind, n_max))
        real("lcm", 30)
        monkeypatch.setattr(convolution, "_index", real)
        assert convolution._index("lcm", 30)[2][-1] != sum(lcm_tuple_count(2, n)
                                                           for n in range(1, 31))

    @pytest.mark.parametrize("kind", KINDS)
    def test_an_index_grown_past_the_cap_is_returned_and_not_held(self, kind, monkeypatch):
        one_shot = convolution._index(kind, 600)
        convolution._indexes.clear()
        held = convolution._index(kind, 300)
        kept = convolution._indexes[kind]
        # the cap is the held index's bytes: it stays kept, and the index on 1..600 passes it
        monkeypatch.setattr(arith, "HELD_BYTES", sum(array.nbytes for array in kept))
        built = spy_blocks(monkeypatch)
        grown = convolution._index(kind, 600)
        assert [(lo, hi) for k, lo, hi in built if k == kind] == [(301, 557), (557, 601)]
        assert all(x.tolist() == y.tolist() and x.dtype == y.dtype for x, y in zip(grown, one_shot))
        assert convolution._indexes[kind] is kept  # the smaller index held stays, unchanged
        built.clear()
        for n_max in (300, 257, 1):
            small = convolution._index(kind, n_max)
            assert built == []
            assert all(np.shares_memory(x, y) or x.size == 0 for x, y in zip(small, held))
            assert small[2].tolist() == held[2][:n_max + 1].tolist()

    def test_each_test_starts_with_no_index_held(self):
        assert convolution._indexes == {}
        assert_holds_each_term_once(convolution._index("lcm", 30), lambda n: lcm_tuple_count(2, n),
                                    sum(lcm_tuple_count(2, n) for n in range(1, 31)))

    @pytest.mark.parametrize("prod", [scalar_dirichlet, scalar_lcm, scalar_unitary])
    @pytest.mark.parametrize("a, b", [([1], [1, 2, 3]), ([1, 2, 3], [1])])
    def test_scalar_rejects_unequal_lengths(self, prod, a, b):
        # the Dirichlet product returned [1] and the lcm product raised IndexError
        with pytest.raises(ValueError, match=f"{len(a)} vs {len(b)}"):
            prod(a, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_tables(self, kind):
        assert PRODUCTS[kind][0]([], []) == []


def stored(values):
    """Each diagonal's entries, offset, dtype and bound."""
    return [(x.entries, x.offset, x._values.dtype, x._bound) for x in values]


class TestDiagonalStack:
    """int64 diagonals of one shape and offset convolve on one stack: the
    entries, dtypes and bounds of the per-element path."""

    @pytest.mark.parametrize("kind", sorted(PRODUCTS))
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 4), st.integers(0, 1), st.integers(0, 64),
           st.data())
    def test_matches_the_per_element_path(self, kind, n_max, dim, offset, bits, data):
        # entries up to 2^bits: int64 stacks, sums past int64 and object diagonals
        entries = st.lists(st.integers(-(2**bits), 2**bits), min_size=dim, max_size=dim)
        f, g = (AlgFunction([DiagonalOperator(data.draw(entries), offset) for _ in range(n_max)])
                for _ in range(2))
        assert stored(convolution._convolve(kind, f, g).values) == stored(
            convolve_elements(kind, f, g).values)

    @pytest.mark.parametrize("kind", sorted(PRODUCTS))
    @pytest.mark.parametrize("past", [0, 1])
    def test_int64_bound_is_the_products(self, kind, past):
        # a^2 (most terms at one n) <= 2^63 - 1 stays on the stack; at a + 1 the
        # per-element path takes the family, on Python ints where a sum leaves int64
        terms = int(np.diff(convolution._index(kind, 12)[2]).max())
        a = math.isqrt(_INT64_MAX // terms) + past
        f = AlgFunction([DiagonalOperator([a, -a, 1], 1)] * 12)
        got = convolution._convolve(kind, f, f).values
        assert stored(got) == stored(convolve_elements(kind, f, f).values)
        assert {x._values.dtype for x in got} == ({np.dtype(np.int64), np.dtype(object)} if past
                                                   else {np.dtype(np.int64)})

    @pytest.mark.parametrize("kind", sorted(PRODUCTS))
    def test_stacks_of_one_shape_but_another_kind_or_offset_raise(self, kind):
        # each family is an int64 stack of shape (3, 2): only the kind or the offset
        # tells them apart, and a product of two of them is a product of mismatched elements
        families = [AlgFunction(map(Scalar, [1, 2, 3])),
                    *(AlgFunction(DiagonalOperator([v], offset) for v in (1, 2, 3))
                      for offset in (0, 1))]
        for f, g in itertools.permutations(families, 2):
            with pytest.raises(ShapeMismatchError):
                convolution._convolve(kind, f, g)

    def test_functions_pickle_and_copy_as_their_values(self):
        # a held function pickles and copies its values and its stack alike
        scalars = AlgFunction(map(Scalar, [1, -2, 3]))
        diagonals = AlgFunction([DiagonalOperator([1, 2], 1)] * 3)
        for f, parts in ((scalars, lambda values: [x.value for x in values]), (diagonals, stored)):
            for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
                assert parts(g.values) == parts(f.values)
                assert np.array_equal(g._stack, f._stack)

    @pytest.mark.parametrize("kind", [*sorted(PRODUCTS), "inverse"])
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 3), st.booleans(), st.integers(0, 40), st.data())
    def test_results_hold_the_stack_their_values_would_build(self, kind, n_max, dim,
                                                              scalars, bits, data):
        # a result on the stack path is handed its stack; it must be the one _held
        # builds from its values, bound column and all, and read off them alone
        entries = st.lists(st.integers(-(2**bits), 2**bits), min_size=dim, max_size=dim)
        tables = [[data.draw(entries) for _ in range(n_max)] for _ in range(2)]
        if kind == "inverse":
            tables[0][0] = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=dim,
                                              max_size=dim))
        f, g = (AlgFunction(Scalar(row[0]) if scalars else DiagonalOperator(row, 1)
                            for row in table) for table in tables)
        got = (convolution.dirichlet_inverse(f, 0) if kind == "inverse"
               else convolution._convolve(kind, f, g))
        held = convolution._held(got.values)[0]
        if held is None:  # a sum left int64: the result holds elements
            assert got._stack is None
        else:
            assert got._stack.dtype == np.int64 and np.array_equal(got._stack, held)
        assert AlgFunction(got.values).values == got.values

    def test_mixed_shapes_and_types_stay_per_element(self):
        for odd in (DiagonalOperator([1, 2], 1), DiagonalOperator([1, 2, 3]),
                    DenseMatrix(np.eye(2))):
            f = AlgFunction([DiagonalOperator([1, 2]), odd])
            with pytest.raises(ShapeMismatchError):
                dirichlet_convolve(f, f)

    def test_products_past_int64_leave_the_stack(self):
        # f(2) f(3) = 2^64 wraps to f(6) = 0 in int64; exactly, they differ
        big, unit = DiagonalOperator([2**32, 1]), DiagonalOperator([1, 1])
        f = AlgFunction([unit, big, big, unit, unit, DiagonalOperator([0, 1])])
        assert is_multiplicative(f, 0) == is_multiplicative_loop(f, 0) == (False, (2, 3))


def view(x):
    """A Scalar's value, or a diagonal's entries and offset."""
    return x.value if isinstance(x, Scalar) else (x.entries, x.offset)


def stacked(entries: np.ndarray, offset: int) -> AlgFunction:
    """n -> the diagonal on e_offset.. of row n - 1 of an int64 array, held as
    that array and its bounds alone, as a product's result on the stack path is."""
    return AlgFunction._of(np.column_stack((entries, abs(entries).max(axis=1))), offset)


class TestLazyResults:
    """A result on the stack path holds its stack alone and builds elements
    only when read: each read gives what the function built eagerly from the
    per-element path's elements gives."""

    @pytest.mark.parametrize("kind", [*sorted(PRODUCTS), "inverse"])
    @pytest.mark.parametrize("scalars", [True, False])
    def test_reads_match_an_eager_function(self, kind, scalars):
        rng = np.random.default_rng(7)
        tables = rng.integers(-9, 10, size=(2, 12, 3)).tolist()
        tables[0][0] = [1, -1, 1]  # f(1) a unit, so f has an int64 inverse
        f, g = (AlgFunction(Scalar(row[0]) if scalars else DiagonalOperator(row, 1)
                            for row in table) for table in tables)
        if kind == "inverse":
            lazy, eager = dirichlet_inverse(f, 0), dirichlet_inverse_objects(f, 0)
        else:
            lazy, eager = convolution._convolve(kind, f, g), convolve_elements(kind, f, g)
        assert lazy._values is None and lazy._stack is not None
        assert lazy.n_max == eager.n_max == 12
        assert [view(lazy(n)) for n in range(1, 13)] == [view(eager(n)) for n in range(1, 13)]
        for n in (0, 13):
            with pytest.raises(IndexError, match=re.escape(f"n={n} outside tabulated range 1..12")):
                lazy(n)
        lazy._check(eager)
        eager._check(lazy)
        for other, error in ((AlgFunction(eager.values[:5]), ValueError),
                             (AlgFunction([DenseMatrix(np.eye(2))] * 12), ShapeMismatchError)):
            for h in (lazy, eager):
                with pytest.raises(error):
                    h._check(other)
        assert lazy._values is None  # reading f(n) and checking built no values tuple
        for copied in (pickle.loads(pickle.dumps(lazy)), copy.deepcopy(lazy), copy.copy(lazy)):
            assert [view(x) for x in copied.values] == [view(x) for x in eager.values]
            assert np.array_equal(copied._stack, lazy._stack)
        assert [view(x) for x in lazy.values] == [view(x) for x in eager.values]
        assert lazy.values is lazy.values  # built once, on the first read
        if kind != "inverse" and not scalars:  # entries, dtypes and bounds alike
            assert stored(lazy.values) == stored(eager.values)

    def test_diagonals_hold_the_stack_held_builds(self):
        entries = np.array([[1, 0, -3], [2, 2, 0]])
        f = stacked(entries, 1)
        eager = AlgFunction([DiagonalOperator(row, 1) for row in entries.tolist()])
        assert f._values is None and np.array_equal(f._stack, eager._stack)
        assert stored(f.values) == stored(eager.values)


def per_n_distance(f, g):
    return max(f(n).distance(g(n)) for n in range(1, f.n_max + 1))


class TestDistance:
    """AlgFunction.distance is the worst f(n).distance(g(n)) over n: one array
    difference on two stacks, element by element on anything else."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 1), st.integers(1, 3), st.integers(0, 63),
           st.data())
    def test_stacks_match_the_per_n_distance(self, n_max, scalars, dim, bits, data):
        # bits up to 63: int64 stacks whose bounds' sum fits, and ones whose sum leaves it
        entries = st.lists(st.integers(-(2**bits) + 1, 2**bits - 1), min_size=dim, max_size=dim)
        f, g = (AlgFunction(Scalar(row[0]) if scalars else DiagonalOperator(row, 1)
                            for row in (data.draw(entries) for _ in range(n_max)))
                for _ in range(2))
        assert f._stack is not None and g._stack is not None
        assert f.distance(g) == g.distance(f) == per_n_distance(f, g)

    @pytest.mark.parametrize("scalars", [True, False])
    def test_bounds_past_int64_compare_exactly(self, scalars):
        # 2^63 - 1 against -2^62: the difference 3 * 2^62 - 1 would wrap to -2^62 - 1
        rows = [[_INT64_MAX, 1], [-(2**62), 1]]
        f, g = (AlgFunction([Scalar(row[0]) if scalars else DiagonalOperator(row)] * 3)
                for row in rows)
        assert f._stack.dtype == g._stack.dtype == np.int64
        assert f.distance(g) == g.distance(f) == per_n_distance(f, g) == float(3 * 2**62 - 1)

    def test_one_corrupted_entry_is_found(self):
        entries = np.arange(60).reshape(12, 5) % 7 - 3
        f = stacked(entries, 0)
        for n, k in ((1, 0), (7, 3), (12, 4)):
            wrong = entries.copy()
            wrong[n - 1, k] += 4
            assert f.distance(stacked(wrong, 0)) == 4.0
        assert f.distance(AlgFunction([DiagonalOperator(row) for row in entries])) == 0.0

    def test_dense_and_mixed_functions_take_the_element_path(self):
        rng = np.random.default_rng(3)
        f, g = (AlgFunction([DenseMatrix(rng.integers(-3, 4, (2, 2))) for _ in range(6)])
                for _ in range(2))
        assert f._stack is None and f.distance(g) == per_n_distance(f, g) > 0
        floats = AlgFunction(map(Scalar, [0.5, 1.0, 2.0]))  # no stack: floats are elements
        ints = AlgFunction(map(Scalar, [1, 1, 1]))
        assert floats._stack is None and floats.distance(ints) == ints.distance(floats) == 1.0

    def test_mismatched_n_max_or_kind_raises_as_check_does(self):
        f = AlgFunction(map(Scalar, [1, 2, 3]))
        for other, error in ((AlgFunction(map(Scalar, [1, 2])), ValueError),
                             (AlgFunction(DiagonalOperator([v]) for v in (1, 2, 3)),
                              ShapeMismatchError),
                             (AlgFunction(DiagonalOperator([v], 1) for v in (1, 2, 3)),
                              ShapeMismatchError),
                             (AlgFunction([DenseMatrix(np.eye(1))] * 3), ShapeMismatchError)):
            for x, y in ((f, other), (other, f)):
                with pytest.raises(error):
                    x._check(y)
                with pytest.raises(error):
                    x.distance(y)
        diagonals = AlgFunction(DiagonalOperator([v]) for v in (1, 2, 3))
        with pytest.raises(ShapeMismatchError):  # one kind and stack shape, another offset
            diagonals.distance(AlgFunction(DiagonalOperator([v], 1) for v in (1, 2, 3)))


class TestUnitary:
    def test_ones_counts_coprime_splits(self):
        f = unitary_convolve(lifted(lambda n: 1, 60), lifted(lambda n: 1, 60))
        for n in range(1, 61):
            assert f(n).value == 2 ** omega(n)
        assert f(12).value == 4

    def test_prime_has_two_splits(self):
        f = lifted(lambda n: n + 2, 30)
        g = lifted(lambda n: 3 * n, 30)
        h = unitary_convolve(f, g)
        for p in (2, 3, 5, 7, 11, 13):
            assert h(p).value == f(1).value * g(p).value + f(p).value * g(1).value


class TestAssociativityCommutativity:
    PRODUCTS = [scalar_dirichlet, scalar_lcm, scalar_unitary]

    @pytest.mark.parametrize("prod", PRODUCTS)
    def test_scalar_triples_exact(self, prod):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a, b, c = (list(rng.integers(-9, 10, 60)) for _ in range(3))
            assert prod(prod(a, b), c) == prod(a, prod(b, c))
            assert prod(a, b) == prod(b, a)


def inverse_outcome(inverse, f, tol):
    """The (type, repr) of each value of inverse(f, tol), or the message of
    the InverseCheckError it raised."""
    try:
        return [(type(v.value), repr(v.value)) for v in inverse(f, tol).values]
    except InverseCheckError as exc:
        return str(exc)


INVERSE_SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129]
INVERSE_ENTRIES = {
    "int": st.integers(-9, 9),
    "int near 2^20": st.integers(-(2**20), 2**20),  # leaves int64 a few ranges in
    "int near 2^40": st.integers(2**39, 2**40) | st.integers(-(2**40), -(2**39)),
    "int past int64": st.integers(-(2**70), 2**70),
    "fraction": st.fractions(-3, 3, max_denominator=6),
    "float": st.floats(-3, 3) | st.just(math.nan),
}


class TestInverse:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 3), st.sampled_from([4, 40, 70]), st.data())
    def test_reversed_product_of_a_stack_is_the_same_sum(self, n_max, k, bits, data):
        # the premise of one verification product on the stack path: the Dirichlet terms
        # (d, n/d) pair with (n/d, d), so g*f adds f*g's integer products, in int64 and past it
        entries = st.integers(-(2**bits), 2**bits)
        f, g = (np.array([[data.draw(st.sampled_from([-1, 1])) for _ in range(k)]]
                         + [[data.draw(entries) for _ in range(k)] for _ in range(n_max - 1)])
                for _ in range(2))
        fg, gf = (convolution._product("dirichlet", *pair, 0) for pair in ((f, g), (g, f)))
        assert fg.dtype == gf.dtype and fg.tolist() == gf.tolist()

    @pytest.mark.parametrize("family, products", [
        ([Scalar(1)] + [Scalar(v) for v in range(-5, 6)], 1),
        ([DiagonalOperator([1, -1])] + [DiagonalOperator([v, 2**40]) for v in range(12)], 1),
        ([Scalar(Fraction(1))] + [Scalar(Fraction(v, 3)) for v in range(-5, 6)], 2),
        ([Scalar(1.0)] + [Scalar(v / 4) for v in range(-5, 6)], 2),
        ([DenseMatrix(np.eye(2))] + [DenseMatrix(np.full((2, 2), v / 8)) for v in range(12)], 2),
    ], ids=["int", "int past int64", "fraction", "float", "dense"])
    def test_a_stack_is_verified_by_one_product(self, family, products, monkeypatch):
        formed, real = [], convolution._product
        monkeypatch.setattr(convolution, "_product", lambda *args: formed.append(1) or real(*args))
        f = AlgFunction(family)
        got = dirichlet_inverse(f, tol=1e-9)
        assert len(formed) == products
        identity = dirichlet_identity(f(1).unit(), f.n_max)
        for product in (dirichlet_convolve(f, got), dirichlet_convolve(got, f)):
            assert product.distance(identity) <= 1e-9

    def test_ones_inverts_to_moebius(self):
        inv = dirichlet_inverse(lifted(lambda n: 1, 100))
        for n in range(1, 101):
            assert inv(n).value == mobius(n)

    def test_numpy_integer_table_inverts_to_python_ints(self):
        # numpy integers went the float path: np.float64 values, -0.0 at n = 4
        inv = dirichlet_inverse(AlgFunction(map(Scalar, np.array([1, 2, 3, 4, 5, 6]))))
        values = [v.value for v in inv.values]
        assert values == [1, -2, -3, 0, -5, 6]
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_identity_rejects_empty_range(self, n_max):
        # n_max 0 and -1 gave a function with n_max 1
        with pytest.raises(ValueError, match="n_max >= 1"):
            dirichlet_identity(UNIT, n_max)

    def test_identity_self_inverse(self):
        ident = dirichlet_identity(UNIT, 20)
        inv = dirichlet_inverse(ident)
        for n in range(1, 21):
            assert inv(n).value == ident(n).value

    def test_round_trip_two_sided(self):
        sys2 = IdempotentSystem(8)
        f = AlgFunction(
            [sys2.projection(0, 1)]
            + [sys2.projection(0, n) + sys2.projection(1, n).scale(2) for n in range(2, 13)]
        )
        inv = dirichlet_inverse(f)
        ident = dirichlet_identity(f(1).unit(), 12)
        for n in range(1, 13):
            assert dirichlet_convolve(f, inv)(n).isclose(ident(n), 1e-9)
            assert dirichlet_convolve(inv, f)(n).isclose(ident(n), 1e-9)

    @pytest.mark.parametrize("lead", [1, -1])
    def test_unit_lead_stays_integer(self, lead):
        rng = np.random.default_rng(7)
        f = AlgFunction([Scalar(lead)] + [Scalar(v) for v in rng.integers(-9, 10, 59).tolist()])
        inv = dirichlet_inverse(f, tol=0)
        assert all(type(v.value) is int for v in inv.values)
        ident = dirichlet_identity(UNIT, 60)
        for prod in (dirichlet_convolve(f, inv), dirichlet_convolve(inv, f)):
            assert [v.value for v in prod.values] == [v.value for v in ident.values]

    def test_non_unit_lead_gives_fractions(self):
        inv = dirichlet_inverse(lifted(lambda n: n + 1, 20), tol=0)
        assert inv(1).value == Fraction(1, 2)
        assert all(type(v.value) is Fraction for v in inv.values)

    @given(st.sampled_from([1, -1]),
           st.lists(st.integers(-9, 9), min_size=0, max_size=150))
    def test_scalar_ints_match_loop(self, lead, rest):
        f = AlgFunction(map(Scalar, [lead] + rest))
        got = [v.value for v in dirichlet_inverse(f, tol=0).values]
        assert got == [v.value for v in inverse_loop(f)]
        assert all(type(v) is int for v in got)

    @given(st.lists(st.integers(-9, 9), min_size=0, max_size=60))
    def test_lead_two_matches_loop_in_fractions(self, rest):
        f = AlgFunction(map(Scalar, [2] + rest))
        got = [v.value for v in dirichlet_inverse(f, tol=0).values]
        assert got == [v.value for v in inverse_loop(f)]
        assert all(type(v) is Fraction for v in got)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_dense_matches_loop_bit_for_bit(self, n_max, seed):
        rng = np.random.default_rng(seed)
        f = AlgFunction([DenseMatrix(np.eye(2)) + random_dense(rng, 0.1)
                         for _ in range(n_max)])
        got = dirichlet_inverse(f, tol=1e-6).values
        assert bits([x.array for x in got]) == bits([y.array for y in inverse_loop(f)])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_diagonal_matches_loop(self, n_max, seed):
        # a lead of entries +-1 runs on the stack: with entries of modulus 2^39..2^40
        # it leaves int64 at n = 4..7, where g(4) = f(2)^2 - f(4) passes 2^63
        rng = np.random.default_rng(seed)
        for lead, low, high in (([1, -1, 2], 0, 9), ([-1, 1, 1], 2**39, 2**40)):
            rest = [rng.integers(low, high + 1, 3) * rng.choice([-1, 1], 3)
                    for _ in range(n_max - 1)]
            f = AlgFunction([DiagonalOperator(lead)] + [DiagonalOperator(e.tolist()) for e in rest])
            got = [x.entries for x in dirichlet_inverse(f, tol=0).values]
            assert got == [y.entries for y in inverse_loop(f)]
            assert high == 9 or n_max < 4 or max(abs(v) for e in got for v in e) > _INT64_MAX

    def test_wrong_term_in_recursion_is_caught(self, monkeypatch):
        real = convolution._index

        def recursion_index(kind, n_max):
            # only the recursion's lookup is wrong: its last term, d = n_max,
            # takes g(2) for g(1); the verification gets the true index
            monkeypatch.setattr(convolution, "_index", real)
            left, right, starts = real(kind, n_max)
            right = right.copy()
            right[-1] = 1
            return left, right, starts

        monkeypatch.setattr(convolution, "_index", recursion_index)
        with pytest.raises(InverseCheckError, match="n=12"):
            dirichlet_inverse(lifted(lambda n: 1, 12))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=0, max_size=80),
           st.sampled_from([0.0, 1e-16, 1e-14, 1e-12]))
    def test_scalar_check_matches_per_n_loop(self, rest, tol):
        # the array comparison raises where the per-n isclose loop first fails
        f = AlgFunction(map(Scalar, [1.0] + rest))
        g = AlgFunction(inverse_loop(f))
        ident = dirichlet_identity(UNIT, f.n_max)
        expected = None
        for name, prod in (("f*g", dirichlet_convolve(f, g)), ("g*f", dirichlet_convolve(g, f))):
            failing = [n for n in range(1, f.n_max + 1) if not prod(n).isclose(ident(n), tol)]
            if failing:
                expected = f"{name} differs from I at n={failing[0]}"
                break
        if expected is None:
            got = dirichlet_inverse(f, tol).values
            assert [v.value for v in got] == [v.value for v in g.values]
        else:
            with pytest.raises(InverseCheckError, match=f"^{re.escape(expected)}$"):
                dirichlet_inverse(f, tol)

    @settings(deadline=None)
    @given(st.sampled_from(sorted(INVERSE_ENTRIES)), st.sampled_from(INVERSE_SIZES),
           st.sampled_from([1, -1]), st.sampled_from([0, 1e-9]), st.data())
    def test_matches_object_recursion(self, kind, n_max, lead, tol, data):
        # int tables with f(1) = +-1 run their first dyadic ranges in int64
        rest = data.draw(st.lists(INVERSE_ENTRIES[kind], min_size=n_max - 1, max_size=n_max - 1))
        lead = {"fraction": Fraction, "float": float}.get(kind, int)(lead)
        f = AlgFunction(map(Scalar, [lead] + rest))
        assert (inverse_outcome(dirichlet_inverse, f, tol)
                == inverse_outcome(dirichlet_inverse_objects, f, tol))

    @pytest.mark.parametrize("entry", [2**40, 2_800_000_000])
    @pytest.mark.parametrize("n_max", [3, 7, 64, 65])
    def test_leaves_int64_at_a_dyadic_range(self, entry, n_max):
        # n = 2, 3 run in int64; g(6) = -(f(2) g(3) + f(3) g(2) + f(6)) = 2 F^2 - F leaves
        # it, and for F = 2.8e9 each of its terms still fits: only the sum would wrap
        f = AlgFunction(map(Scalar, [1] + [entry] * (n_max - 1)))
        got = [v.value for v in dirichlet_inverse(f, tol=0).values]
        assert got == [v.value for v in dirichlet_inverse_objects(f, tol=0).values]
        assert all(type(v) is int for v in got)
        assert got[1] == -entry and (n_max < 6 or got[5] == 2 * entry**2 - entry > 2**63)

    def test_nan_entry_fails_the_check(self):
        f = AlgFunction([Scalar(1), Scalar(math.nan)] + [Scalar(0)] * 4)
        with pytest.raises(InverseCheckError, match="^f\\*g differs from I at n=2$"):
            dirichlet_inverse(f, tol=1.0)

    def test_non_invertible_leading_value(self):
        f = lifted(lambda n: n - 1, 10)  # f(1) = 0
        with pytest.raises(NonInvertibleError):
            dirichlet_inverse(f)


class TestMultiplicativity:
    def test_totient_lift_is_multiplicative(self):
        ok, ce = is_multiplicative(lifted(totient, 120))
        assert ok and ce is None

    def test_counterexample_reported(self):
        # n + 1 with the value at 1 patched to keep f(1) idempotent
        ok, ce = is_multiplicative(lifted(lambda n: 1 if n == 1 else n + 1, 30))
        assert not ok
        assert ce == (2, 3)

    def test_non_idempotent_lead_reported_at_one(self):
        ok, ce = is_multiplicative(lifted(lambda n: n + 1, 30))
        assert not ok
        assert ce == (1, 1)

    def test_projection_slice_multiplicative(self):
        system = IdempotentSystem(64)
        fam = AlgFunction([system.projection(1, n) for n in range(1, 31)])
        ok, _ = is_multiplicative(fam)
        assert ok

    def test_multiplicative_leading_value_idempotent(self):
        for alpha in (totient, mobius, lambda n: 1):
            f = lifted(alpha, 60)
            ok, _ = is_multiplicative(f)
            assert ok
            assert is_idempotent(f(1), 1e-9)

    def test_closure_under_dirichlet(self):
        for a, b in ((mobius, lambda n: 1), (totient, lambda n: 1)):
            h = dirichlet_convolve(lifted(a, 120), lifted(b, 120))
            ok, _ = is_multiplicative(h)
            assert ok


def multiplicative_from(values, unit, n_max):
    """[h(1), ..., h(n_max)] with h(n) = unit * h(p1^a1) * ... * h(pk^ak),
    each h(p^a) drawn once from values (a callable)."""
    at_power = {}
    table = []
    for n in range(1, n_max + 1):
        value = unit
        for p, a in factorize(n):
            if p**a not in at_power:
                at_power[p**a] = values()
            value = value * at_power[p**a]
        table.append(value)
    return table


SCALARS = {
    "int": st.integers(-3, 3),
    "float": st.floats(-3, 3, allow_nan=False),
    "fraction": st.fractions(-3, 3, max_denominator=6),
}


class TestMultiplicativityAgainstLoop:
    """is_multiplicative returns the (verdict, counterexample) of the
    per-pair, per-factorize loop it replaced."""

    @given(st.sampled_from(sorted(SCALARS)), st.integers(1, 60), st.sampled_from([0, 1e-9]),
           st.data())
    def test_scalar_tables(self, kind, n_max, tol, data):
        table = multiplicative_from(lambda: data.draw(SCALARS[kind]), 1, n_max)
        if data.draw(st.booleans()):  # one entry corrupted, or set to NaN
            at = data.draw(st.integers(0, n_max - 1))
            table[at] = data.draw(SCALARS[kind] | st.just(math.nan))
        f = AlgFunction(map(Scalar, table))
        assert is_multiplicative(f, tol) == is_multiplicative_loop(f, tol)

    @pytest.mark.parametrize("n_max", [1, 2])
    @pytest.mark.parametrize("lead", [1, 0, 2, math.nan])
    def test_shortest_tables(self, n_max, lead):
        f = AlgFunction([Scalar(lead), Scalar(5)][:n_max])
        for tol in (0, 1e-9):
            assert is_multiplicative(f, tol) == is_multiplicative_loop(f, tol)

    def test_nan_tolerance_fails_at_the_lead(self):
        system = IdempotentSystem(12, 1)
        for f in (lifted(totient, 30), AlgFunction(system.projection(1, n) for n in range(1, 31))):
            assert is_multiplicative(f, math.nan) == is_multiplicative_loop(f, math.nan) == (
                False, (1, 1))

    @given(st.integers(1, 4), st.integers(1, 40), st.integers(0, 1), st.data())
    def test_diagonal_families(self, dim, n_max, offset, data):
        # int64 families run on one stack; one value flipped, or past int64
        def diagonal():
            return DiagonalOperator(data.draw(st.lists(st.integers(-2, 2), min_size=dim,
                                                       max_size=dim)), offset)

        unit = DiagonalOperator([1] * dim, offset)
        table = multiplicative_from(diagonal, unit, n_max)
        if data.draw(st.booleans()):
            past = DiagonalOperator([2**63] * dim, offset)
            table[data.draw(st.integers(0, n_max - 1))] = (
                past if data.draw(st.booleans()) else diagonal())
        f = AlgFunction(table)
        for tol in (0, 1e-9, 0.5, math.nan):
            assert is_multiplicative(f, tol) == is_multiplicative_loop(f, tol)

    @pytest.mark.parametrize("corrupt, first, positions", [
        (46, (2, 23), range(0, 64)),
        (159, (3, 53), range(64, 192)),
        (185, (5, 37), range(192, 448)),
        (272, (16, 17), [339]),
    ], ids=["first block", "second block", "third block", "last pair"])
    def test_counterexample_in_each_pair_block(self, corrupt, first, positions):
        # N = 300 has 340 coprime pairs 2 <= n < m, compared 64, 128, 256 at a time
        n_max = 300
        pairs = [(n, m) for n in range(2, n_max + 1) for m in range(n + 1, n_max // n + 1)
                 if math.gcd(n, m) == 1]
        assert len(pairs) == 340 and pairs.index(first) in positions
        table = scalar_table(totient, n_max)
        table[corrupt - 1] += 1
        for values in (table, [float(v) for v in table]):
            f = AlgFunction(map(Scalar, values))
            for tol in (0, 1e-9):
                assert is_multiplicative(f, tol) == is_multiplicative_loop(f, tol) == (
                    False, first)

    def test_non_commuting_family_fails_at_a_later_reversed_pair(self):
        # every pair passes in order, f(12) = f(3) f(4) included, and so do the
        # reversed (3, 2) and (5, 2); the reversed pair (4, 3) fails: f(4) f(3) differs
        eye = np.eye(2)
        values = {3: [[1, 1], [0, 1]], 4: [[1, 0], [1, 1]]}
        f = {n: DenseMatrix(values.get(n, eye)) for n in range(1, 13)}
        f[6], f[10], f[12] = f[2] * f[3], f[2] * f[5], f[3] * f[4]
        assert not f[12].isclose(f[4] * f[3])
        family = AlgFunction(f[n] for n in range(1, 13))
        assert is_multiplicative(family) == is_multiplicative_loop(family) == (False, (4, 3))

    def test_non_commuting_pair_fails_in_the_reversed_order(self):
        # f(6) = f(2) f(3) passes the pair (2, 3), but f(3) f(2) differs
        f = {n: DenseMatrix(np.eye(2)) for n in range(1, 7)}
        f[2], f[3] = DenseMatrix([[1, 1], [0, 1]]), DenseMatrix([[1, 0], [1, 1]])
        f[6] = f[2] * f[3]
        family = AlgFunction(f[n] for n in range(1, 7))
        assert is_multiplicative(family) == is_multiplicative_loop(family) == (False, (3, 2))

    @pytest.mark.parametrize("corrupt, first", [(None, None), (12, (3, 4))])
    def test_diagonals_within_the_pair_bound_run_on_the_stack(self, monkeypatch, corrupt, first):
        # f(p^a) is 2^20 at p's entry and 1 elsewhere, so every value has bound 2^20:
        # 2 bound^2 fits int64, and the pairs are compared as one int64 array
        primes = [2, 3, 5, 7, 11]
        values = [DiagonalOperator([2**20 if n % p == 0 else 1 for p in primes])
                  for n in range(1, 13)]
        if corrupt:
            values[corrupt - 1] = DiagonalOperator([2**20, 2**20 - 1, 1, 1, 1])
        f = AlgFunction(values)
        passes = []

        def spy(fv, n, m, tol):
            passes.append((fv.dtype, fv.ndim))  # a 2-D table is compared as arrays
            return first_far_pair(fv, n, m, tol)

        first_far_pair = convolution._first_far_pair
        monkeypatch.setattr(convolution, "_first_far_pair", spy)
        assert is_multiplicative(f, 0) == is_multiplicative_loop(f, 0) == (
            (True, None) if corrupt is None else (False, first))
        assert passes == [(np.int64, 2)]

    def test_only_dense_families_compare_the_reversed_order(self, monkeypatch):
        # diagonals commute, so one element pass over the 340 pairs of N = 300
        # decides a float family; dense matrices of the same entries take two
        passes = []

        def spy(fv, n, m, tol):
            passes.append(fv.ndim)
            return first_far_pair(fv, n, m, tol)

        first_far_pair = convolution._first_far_pair
        monkeypatch.setattr(convolution, "_first_far_pair", spy)
        entries = [[float(totient(n)), float(mobius(n)), 1.0] for n in range(1, 301)]
        for make, count in ((DiagonalOperator, 1), (lambda e: DenseMatrix(np.diag(e)), 2)):
            f = AlgFunction(map(make, entries))
            passes.clear()
            assert is_multiplicative(f, 0) == is_multiplicative_loop(f, 0) == (True, None)
            assert passes == [1] * count


class TestLehmerIdentity:
    def test_ones_gives_tau_squared(self):
        ones = [1] * 200
        report = lehmer_identity_check(ones, ones)
        assert report["pass"]
        lhs = scalar_dirichlet(ones, ones)
        rhs = scalar_dirichlet(ones, scalar_table(lambda n: lcm_tuple_count(2, n), 200))
        assert [v * v for v in lhs] == rhs

    def test_epsilon_reduces(self):
        eps = scalar_table(epsilon, 100)
        beta = scalar_table(totient, 100)
        report = lehmer_identity_check(eps, beta)
        assert report["pass"]

    def test_totient_pair_gives_squares(self):
        phi = scalar_table(totient, 200)
        report = lehmer_identity_check(phi, phi)
        assert report["pass"]
        summed = scalar_dirichlet([1] * 200, scalar_table(lambda n: jordan_totient(2, n), 200))
        assert summed == [m * m for m in range(1, 201)]

    def test_max_residual_reports_rounding_within_tol(self):
        # float tables: rounding leaves a nonzero residual that no failure lists
        alpha = [0.1 * k for k in range(1, 61)]
        report = lehmer_identity_check(alpha, [1 / 3] * 60)
        assert report["scalar_failures"] == []
        assert 0 < report["max_residual"] <= 1e-9

    def test_nan_tolerance_fails(self):
        ones = [1] * 30
        report = lehmer_identity_check(ones, ones, tol=float("nan"))
        assert report["max_residual"] == 0
        assert report["pass"] is False
        assert [f["m"] for f in report["scalar_failures"]] == list(range(1, 31))

    def test_empty_tables_are_rejected(self):
        # nothing to evaluate is not a pass
        with pytest.raises(ValueError, match="length >= 1"):
            lehmer_identity_check([], [])

    def test_nan_residual_is_the_max_residual(self):
        # at m = 2 both sides are inf and their residual a NaN, which max() skipped
        report = lehmer_identity_check([1.0, math.inf], [1.0, 1.0])
        assert report["scalar_failures"] == [{"m": 2, "lhs": math.inf, "rhs": math.inf}]
        assert math.isnan(report["max_residual"]) and report["pass"] is False

    def test_stack_is_each_pair_alone(self):
        # column j of each side is pair j's; a NaN stays its own pair's worst
        rng = np.random.default_rng(17)
        alpha, beta = (rng.integers(-5, 6, (90, 4)) for _ in range(2))
        lhs, rhs, worst = lehmer_sides(alpha, beta)
        assert lhs.shape == rhs.shape == (90, 4) and worst == [0] * 4
        for j in range(4):
            ones = [1] * 90
            a, b = alpha[:, j].tolist(), beta[:, j].tolist()
            assert lhs[:, j].tolist() == [x * y for x, y in zip(scalar_dirichlet(ones, a),
                                                                 scalar_dirichlet(ones, b))]
            assert rhs[:, j].tolist() == scalar_dirichlet(ones, scalar_lcm(a, b))
        floats = np.array([[1.0, 1.0], [2.0, math.inf]])
        assert lehmer_sides(floats, np.ones((2, 2)))[2][0] == 0
        assert math.isnan(lehmer_sides(floats, np.ones((2, 2)))[2][1])

    def test_sides_leave_int64_before_they_wrap(self, monkeypatch):
        # a broken lcm product of zeros: the left side 2^32 * 2^32 would wrap
        # to 0 in int64 and hide the failure
        monkeypatch.setattr(convolution, "scalar_lcm", lambda a, b: np.zeros_like(a))
        lhs, rhs, worst = lehmer_sides(np.array([[2**32]]), np.array([[2**32]]))
        assert lhs.tolist() == [[2**64]] and rhs.tolist() == [[0]] and worst == [2**64]
