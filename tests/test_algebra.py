"""Algebra-element contract: laws, norms, determinants, serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idemarith import analytic
from idemarith.algebra import (
    DenseMatrix,
    DiagonalOperator,
    NonInvertibleError,
    Scalar,
    ShapeMismatchError,
    determinant,
    element_from_json,
    element_text,
    element_to_json,
    invert,
    is_idempotent,
    operator_norm,
    trace,
)
from idemarith.arith import divisors
from idemarith.ramanujan_ops import OperatorFamily

RNG = np.random.default_rng(42)


def random_dense(n):
    return DenseMatrix(RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)))


def random_diag(n, offset=0):
    return DiagonalOperator(RNG.normal(size=n) + 1j * RNG.normal(size=n), offset)


@pytest.mark.parametrize("make", [random_dense, random_diag, lambda n: Scalar(complex(RNG.normal(), RNG.normal()))])
def test_algebra_laws(make):
    for _ in range(10):
        x, y, z = make(5), make(5), make(5)
        assert ((x * y) * z).isclose(x * (y * z), 1e-9)
        assert (x * (y + z)).isclose(x * y + x * z, 1e-9)
        assert (x.unit() * x).isclose(x, 1e-9)
        assert (x * x.unit()).isclose(x, 1e-9)
        assert (x.zero() * x).isclose(x.zero(), 1e-9)
        assert (x * x.zero()).isclose(x.zero(), 1e-9)


@pytest.mark.parametrize("make", [random_dense, random_diag])
def test_norm_submultiplicative(make):
    for _ in range(20):
        x, y = make(6), make(6)
        assert operator_norm(x * y) <= operator_norm(x) * operator_norm(y) + 1e-9


def test_norm_multiplicativity_counterexample():
    # the stronger claim ||f(nm)|| = ||f(n)|| ||f(m)|| fails for the
    # max-row-sum norm even on a multiplicative function
    f2 = DenseMatrix([[1, 1], [0, 1]])
    f3 = DenseMatrix([[1, 0], [1, 1]])
    assert operator_norm(f2 * f3) == 3.0
    assert operator_norm(f2) * operator_norm(f3) == 4.0


def test_determinant_multiplicative():
    for n in (2, 4, 8):
        for _ in range(10):
            x, y = random_dense(n), random_dense(n)
            lhs = determinant(x * y)
            rhs = determinant(x) * determinant(y)
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_determinant_examples():
    assert determinant(DiagonalOperator((-1, 1, -1, 1))) == 1
    assert determinant(DenseMatrix(np.eye(3))) == 1
    assert determinant(DiagonalOperator((2, 0, 5))) == 0
    assert determinant(DenseMatrix([[1, 2], [2, 4]])) == 0


def test_trace_examples():
    assert trace(DenseMatrix(np.eye(5))) == 5
    assert trace(DiagonalOperator((1, -1, 2))) == 2
    assert trace(DenseMatrix(np.zeros((3, 3)))) == 0


def test_is_idempotent():
    assert is_idempotent(DenseMatrix(np.eye(4)), 1e-9)
    assert is_idempotent(DiagonalOperator((1, 0, 1, 0)), 1e-9)
    assert not is_idempotent(DiagonalOperator((2, 0)), 1e-9)


def test_invert_diag_exact():
    inv = invert(DiagonalOperator((2, 4)))
    assert inv.entries == (Fraction(1, 2), Fraction(1, 4))
    ident = DiagonalOperator((1, 1))
    assert invert(ident).isclose(ident)
    units = invert(DiagonalOperator((1, -1, 1)))
    assert units.entries == (1, -1, 1) and all(type(v) is int for v in units.entries)
    assert type(invert(Scalar(-1)).value) is int
    with pytest.raises(NonInvertibleError):
        invert(DiagonalOperator((1, 0)))
    with pytest.raises(NonInvertibleError):
        invert(Scalar(0))


def test_invert_dense():
    x = random_dense(5)
    inv = invert(x)
    assert (x * inv).isclose(x.unit(), 1e-9)
    assert (inv * x).isclose(x.unit(), 1e-9)
    with pytest.raises(NonInvertibleError):
        invert(DenseMatrix([[1, 1], [1, 1]]))


def test_operator_norm_examples():
    assert operator_norm(DiagonalOperator((1, -3, 2))) == 3
    assert operator_norm(DenseMatrix(np.eye(4))) == 1
    assert operator_norm(DiagonalOperator((0, 0))) == 0


def test_shape_mismatch_is_hard_error():
    with pytest.raises(ShapeMismatchError):
        DiagonalOperator((1, 2)) * DiagonalOperator((1, 2, 3))
    with pytest.raises(ShapeMismatchError):
        DiagonalOperator((1, 2), offset=0) + DiagonalOperator((1, 2), offset=1)
    with pytest.raises(ShapeMismatchError):
        DenseMatrix(np.eye(2)) * DenseMatrix(np.eye(3))
    with pytest.raises(ShapeMismatchError):
        DiagonalOperator((1, 2)) * DenseMatrix(np.eye(2))


@pytest.mark.parametrize("other", [2, 2.5, DiagonalOperator((1,)), DenseMatrix(np.eye(1))])
def test_scalar_sum_needs_a_scalar(other):
    with pytest.raises(ShapeMismatchError):
        Scalar(1) + other
    with pytest.raises(ShapeMismatchError):
        Scalar(1) - other


def test_diag_dense_consistency():
    def dense(d):
        return DenseMatrix(np.diag(np.array(d.entries, dtype=complex)))

    a = random_diag(6)
    b = random_diag(6)
    assert dense(a * b).isclose(dense(a) * dense(b), 1e-9)
    assert dense(a + b).isclose(dense(a) + dense(b), 1e-9)
    assert abs(trace(a) - trace(dense(a))) < 1e-9
    assert abs(complex(determinant(a)) - determinant(dense(a))) < 1e-6


def test_exact_entries_stay_exact():
    a = DiagonalOperator((1, 2, 3))
    b = DiagonalOperator((4, 5, 6))
    assert all(isinstance(v, int) for v in (a * b).entries)
    assert (a * b).entries == (4, 10, 18)
    scaled = a.scale(Fraction(1, 2))
    assert scaled.entries == (Fraction(1, 2), 1, Fraction(3, 2))


def test_json_roundtrip():
    diag = DiagonalOperator((1, -2, 3 + 1j), offset=1)
    blob = json.dumps(element_to_json(diag))
    back = element_from_json(json.loads(blob))
    assert back.offset == 1 and back.isclose(diag, 1e-12)

    dense = random_dense(3)
    blob = json.dumps(element_to_json(dense))
    back = element_from_json(json.loads(blob))
    assert back.isclose(dense, 1e-12)

    assert element_to_json(diag)["kind"] == "diag"
    assert element_to_json(dense)["kind"] == "dense"
    with pytest.raises(ValueError):
        element_from_json({"kind": "sparse"})


_JSON_NUMBERS = st.one_of(
    st.integers(-10**6, 10**6),
    st.complex_numbers(max_magnitude=1e12, allow_nan=False, allow_infinity=False))


@given(st.lists(_JSON_NUMBERS, min_size=1, max_size=12), st.integers(0, 1))
def test_json_roundtrip_diag(values, offset):
    diag = DiagonalOperator(values, offset)
    back = element_from_json(json.loads(json.dumps(element_to_json(diag))))
    assert back.offset == offset and back.entries == diag.entries


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(_JSON_NUMBERS, min_size=n * n, max_size=n * n)))
def test_json_roundtrip_dense(values):
    n = int(len(values) ** 0.5)
    dense = DenseMatrix(np.array(values, dtype=complex).reshape(n, n))
    back = element_from_json(json.loads(json.dumps(element_to_json(dense))))
    assert np.array_equal(back.array, dense.array)


def json_dumps_oracle(x) -> str:
    """The encoder element_text replaces: every [re, im] pair through json."""
    if isinstance(x, DiagonalOperator):
        c = np.array([complex(v) for v in x.entries], dtype=np.complex128)
        head = {"kind": "diag", "n": x.n, "offset": x.offset}
    else:
        c = x.array.reshape(-1)
        head = {"kind": "dense", "n": x.n}
    return json.dumps({"entries": np.stack((c.real, c.imag), -1).tolist(), **head},
                      sort_keys=True)


@st.composite
def exported_operators(draw):
    """One operator as `idemarith export` builds it: P, C, T or S at
    dim <= 2520, or the dense theta / IU* at dim <= 60; or the sum of
    two congruence projections of different levels, which keeps no period."""
    kind = draw(st.sampled_from(["P", "C", "T", "S", "theta", "IU*", "P+P"]))
    if kind in ("theta", "IU*"):
        ops = analytic.shift_operators(OperatorFamily(draw(st.integers(1, 60)), 1))
        return ops["theta"] if kind == "theta" else ops["integration"] * ops["U_star"]
    dim = draw(st.integers(1, 2520))
    family = OperatorFamily(dim, draw(st.integers(0, 1)))
    n = draw(st.integers(1, min(dim, 120)))
    j = draw(st.integers(-n, 2 * n))
    if kind == "P":
        return family.projection(j, n)
    if kind == "P+P":
        other = n + draw(st.integers(1, 60))
        return family.projection(j, n) + family.projection(draw(st.integers(0, other)), other)
    if kind == "C":
        return family.c_operator(j, n)
    if kind == "T":
        return family.t_operator(draw(st.sampled_from(divisors(n))), j, n)
    return family.s_operator(n)


@settings(max_examples=150, deadline=None)
@given(exported_operators())
def test_element_text_matches_json_dumps_on_exports(x):
    assert element_text(x) == json_dumps_oracle(x)


@pytest.mark.parametrize("dim,offset", [(1, 0), (5, 1), (37, 0), (2520, 1)])
@pytest.mark.parametrize("build", [
    lambda f: f.projection(0, 2) + f.projection(0, 3),
    lambda f: f.c_operator(1, 12) * f.t_operator(3, 1, 12),
    lambda f: f.s_operator(7).scale(Fraction(1, 3)),
    lambda f: f.c_operator(2, 5).scale(2**62),
    lambda f: -f.s_operator(5),
    lambda f: DiagonalOperator(f.c_operator(0, 6).entries, f.offset),
    lambda f: f.s_operator(4).unit() - f.projection(1, 4),
], ids=["P2+P3", "C*T", "scale", "scale-past-int64", "neg", "from-entries", "unit-P"])
def test_arithmetic_results_encode_every_entry(dim, offset, build):
    # a result keeps no period: P_0(2) + P_0(3) has neither operand's,
    # so it must not be encoded as a repeat of one
    x = build(OperatorFamily(dim, offset))
    assert element_text(x) == json_dumps_oracle(x)


@pytest.mark.parametrize("n,dim", [(7, 3), (60, 1), (2521, 2520), (40, 39)])
@pytest.mark.parametrize("offset", [0, 1])
def test_periodic_longer_than_the_window_encodes_every_entry(n, dim, offset):
    family = OperatorFamily(dim, offset)
    for x in (family.projection(1, n), family.c_operator(2, n), family.s_operator(n)):
        assert element_text(x) == json_dumps_oracle(x)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("x", [
    DiagonalOperator((0.0, -0.0, 1.0, -0.0)),
    DiagonalOperator((complex(0.0, -0.0), complex(-0.0, 0.0), 0j, complex(-0.0, -0.0)), 1),
    DiagonalOperator((_NAN, _INF, -_INF, complex(_NAN, -_INF), complex(-_INF, _NAN))),
    DiagonalOperator((Fraction(1, 3), Fraction(-2, 7), 1, Fraction(1, 3))),
    DiagonalOperator((2**70, -1, 2**70)),
    DiagonalOperator((2**53 + 1, 2**53, -(2**53 + 1))),
    DiagonalOperator((7,)),
    DenseMatrix([[-0.0, 0.0], [complex(0.0, -0.0), _NAN]]),
])
def test_element_text_matches_json_dumps_by_hand(x):
    assert element_text(x) == json_dumps_oracle(x)


def test_element_text_keeps_signed_zeros_and_storage():
    assert DiagonalOperator((2**70, -1))._values.dtype == object
    assert DiagonalOperator((2**53 + 1,))._values.dtype == np.int64
    text = element_text(DiagonalOperator((0.0, complex(-0.0, 0.0), complex(0.0, -0.0))))
    assert text.startswith('{"entries": [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0]]')
    assert element_to_json(DiagonalOperator((1, 2)))["entries"] == [[1.0, 0.0], [2.0, 0.0]]
    with pytest.raises(TypeError):
        element_text(Scalar(1))


@pytest.mark.parametrize("data", [
    {"kind": "diag", "n": 2.0, "offset": 0, "entries": [[1, 0], [2, 0]]},
    {"kind": "diag", "n": 2, "offset": True, "entries": [[1, 0], [2, 0]]},
    {"kind": "diag", "n": 2, "offset": 2, "entries": [[1, 0], [2, 0]]},
    {"kind": "diag", "n": 2, "entries": [[1, 0], [2, 0]]},
    {"kind": "diag", "n": 2, "offset": 0, "entries": [1, [2, 0]]},
    {"kind": "diag", "n": 2, "offset": 0, "entries": [[1, 0]]},
    {"kind": "dense", "n": 1, "entries": [["1", 0]]},
    {"kind": "dense", "n": 0, "entries": []},
    {"kind": "dense", "n": 1},
    [[1, 0]],
])
def test_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        element_from_json(data)


def test_product_past_int64_stays_exact():
    product = DiagonalOperator((2**62, -3)) * DiagonalOperator((4, 5))
    assert product.entries == (2**64, -15)


def test_sum_crossing_int64_stays_exact():
    a = DiagonalOperator((2**62 + 2**61, 1))
    b = DiagonalOperator((2**62, 1))
    assert (a + b).entries == (2**63 + 2**61, 2)
    assert (-a - b).entries == (-(2**63 + 2**61), -2)
    assert a.distance(-b) == float(2**63 + 2**61)


def test_scale_past_int64_stays_exact():
    assert DiagonalOperator((3, -1)).scale(2**70).entries == (3 * 2**70, -(2**70))
    assert DiagonalOperator((0, 0)).scale(2**70).entries == (0, 0)


def test_entries_beyond_int64_kept_exact():
    for values in ((2**63, -(2**63), 2**100), (2**63, -1), (2**64 - 1, 5)):
        diag = DiagonalOperator(values)
        assert diag.entries == values
        assert all(type(v) is int for v in diag.entries)
        assert (diag * diag.unit()).entries == values


def test_scale_by_fraction_yields_fractions():
    for p in (2, 3, 7):
        scaled = DiagonalOperator((1, p, 2 * p + 1)).scale(Fraction(1, p))
        assert all(isinstance(v, (int, Fraction)) for v in scaled.entries)
        assert scaled.entries == (Fraction(1, p), 1, Fraction(2 * p + 1, p))
        assert isinstance(scaled.entries[0], Fraction)


def test_entries_are_python_scalars():
    assert all(type(v) is int for v in DiagonalOperator((1, 2, 3)).entries)
    assert all(type(v) is complex for v in DiagonalOperator((1j, 2)).entries)


def test_determinant_of_long_ramanujan_diagonal_is_exact():
    from idemarith.analytic import c0_t0_diagonals
    from idemarith.arith import ramanujan_sum

    c0, _ = c0_t0_diagonals(30, OperatorFamily(3000, 1))
    expected = 1
    for m in range(1, 3001):
        expected *= ramanujan_sum(30, m)
    assert c0.n == 3000
    assert determinant(c0) == expected
    assert abs(expected) > 2**63  # 30 is squarefree, so no factor c_30(m) is 0
