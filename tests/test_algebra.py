"""Algebra-element contract: laws, norms, inverses, serialization."""

import json
import math
import operator
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idemarith.algebra import (
    DenseMatrix,
    DiagonalOperator,
    NonInvertibleError,
    Scalar,
    ShapeMismatchError,
    _CHUNK,
    element_text,
    invert,
    is_idempotent,
    operator_norm,
)
from idemarith.analytic import iu_star, theta_power
from idemarith.arith import divisors, ramanujan_sum
from idemarith.ramanujan_ops import OperatorFamily
from oracle_forms import det_table, element_from_json, element_to_json, shift_operators

RNG = np.random.default_rng(42)


def random_dense(n):
    return DenseMatrix(RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)))


def random_diag(n, offset=0):
    return DiagonalOperator(RNG.normal(size=n) + 1j * RNG.normal(size=n), offset)


def _dense(d: DiagonalOperator) -> DenseMatrix:
    """The dense matrix with d's diagonal."""
    return DenseMatrix(np.diag(np.array(d.entries, dtype=complex)))


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


def test_invert_numpy_integers_exactly():
    # numpy integers were taken for floats: 0.5, and np.float64 units
    assert invert(Scalar(np.int64(2))).value == Fraction(1, 2)
    assert type(invert(Scalar(np.int64(2))).value) is Fraction
    for unit in (np.int64(1), np.int32(-1)):
        value = invert(Scalar(unit)).value
        assert value == unit and type(value) is int
    with pytest.raises(NonInvertibleError):
        invert(Scalar(np.int64(0)))


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


@pytest.mark.parametrize("build", [
    lambda: DiagonalOperator([]),
    lambda: DenseMatrix(np.zeros((0, 0))),
    lambda: DiagonalOperator.periodic(np.ones_like, 1, 0, 0),
    lambda: DiagonalOperator.periodic(np.ones_like, 3, 0, -2),
], ids=["diagonal", "dense", "periodic", "periodic-negative-dim"])
def test_every_element_refuses_no_entries(build):
    # an empty dense matrix was accepted, and invert or operator_norm then failed in numpy
    with pytest.raises(ValueError, match="^(DiagonalOperator|DenseMatrix) needs at least one entry$"):
        build()


def test_diag_dense_consistency():
    a = random_diag(6)
    b = random_diag(6)
    assert _dense(a * b).isclose(_dense(a) * _dense(b), 1e-9)
    assert _dense(a + b).isclose(_dense(a) + _dense(b), 1e-9)


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
    """One operator as `idemarith export` prints it: P, C, T or S at
    dim <= 2520, or the dense theta / IU* at dim <= 60; or the sum of
    two congruence projections of different levels, which keeps no period."""
    kind = draw(st.sampled_from(["P", "C", "T", "S", "theta", "IU*", "P+P"]))
    if kind in ("theta", "IU*"):
        ops = shift_operators(OperatorFamily(draw(st.integers(1, 60)), 1))
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


_SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, _NAN, _INF, -_INF])


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-(2**63 - 1), 2**63 - 1), min_size=1, max_size=60),
    st.lists(st.fractions() | st.integers(-9, 9), min_size=1, max_size=60),
    st.lists(st.floats() | _SPECIAL_FLOATS, min_size=1, max_size=60),
), st.integers(0, 1))
def test_dense_text_of_a_diagonal_matches_json_dumps(values, offset):
    # int64, object (Fraction) and object (float) storage; the offset is not in the text
    x = DiagonalOperator(values, offset)
    assert element_text(x, dense=True) == json_dumps_oracle(_dense(x))


@pytest.mark.parametrize("dim", [1, 2, 24, 1000])
@pytest.mark.parametrize("build", [lambda dim: theta_power(1, dim), iu_star],
                         ids=["theta", "IU*"])
def test_theta_and_iu_star_dense_text_matches_json_dumps(dim, build):
    x = build(dim)
    text, want = element_text(x, dense=True), json_dumps_oracle(_dense(x))
    same = text == want  # outside the assert: pytest would diff megabytes of text
    assert same, f"first difference at offset {len(os.path.commonprefix([text, want]))}"


@pytest.mark.parametrize("size", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_text_is_the_same_across_chunk_boundaries(size):
    # a non-periodic diagonal of each storage, and a period longer than one chunk
    for x in (DiagonalOperator(RNG.normal(size=size) + 1j * RNG.normal(size=size)),
              DiagonalOperator(np.arange(size) - size // 2, 1),
              DiagonalOperator([Fraction(m, 3) for m in range(size)]),
              OperatorFamily(2 * size + 5, 1).projection(1, size)):
        assert element_text(x) == json_dumps_oracle(x)


@pytest.mark.parametrize("n", [math.isqrt(_CHUNK) - 1, math.isqrt(_CHUNK), math.isqrt(_CHUNK) + 1])
def test_dense_text_is_the_same_across_chunk_boundaries(n):
    # n^2 entries just below, at and just above one chunk
    x = random_dense(n)
    assert element_text(x) == json_dumps_oracle(x)


def test_element_text_keeps_signed_zeros_and_storage():
    assert DiagonalOperator((2**70, -1))._values.dtype == object
    assert DiagonalOperator((2**53 + 1,))._values.dtype == np.int64
    text = element_text(DiagonalOperator((0.0, complex(-0.0, 0.0), complex(0.0, -0.0))))
    assert text.startswith('{"entries": [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0]]')
    assert element_to_json(DiagonalOperator((1, 2)))["entries"] == [[1.0, 0.0], [2.0, 0.0]]
    with pytest.raises(TypeError):
        element_text(Scalar(1))


_EDGE = 2**53  # the largest bound whose int64 entries print from int text


def _periodic(period: list[int], dim: int, offset: int) -> DiagonalOperator:
    """The int64 diagonal repeating period over dim entries, the last one cut
    when dim is not a multiple of its length."""
    return DiagonalOperator.periodic(lambda r: np.array(period)[r], len(period), 0, dim, offset)


_AT_EDGE = [[_EDGE, -_EDGE, 0, 1, -1], [-_EDGE, -3, -(2**52) - 1], [-7, 0, 5]]
_PAST_EDGE = [[_EDGE + 1, -(_EDGE + 1), 0], [-(_EDGE + 1), _EDGE], [10**16, -7], [-(10**16)]]


@pytest.mark.parametrize("period", _AT_EDGE + _PAST_EDGE)
@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("repeats", [1, 3])
@pytest.mark.parametrize("cut", [0, 1, 2])
def test_integer_text_matches_json_on_both_sides_of_2_53(period, offset, repeats, cut):
    # negative entries, offsets 0 and 1, whole and cut periods, and the dense form;
    # int text past the edge would print 9007199254740993.0 or 10000000000000000.0
    dim = len(period) * repeats + cut
    for x in (_periodic(period, dim, offset), DiagonalOperator(period * repeats, offset)):
        assert x._values.dtype == np.int64
        want = json_dumps_oracle(x)
        assert element_text(x) == json.dumps(element_to_json(x), sort_keys=True) == want
        assert element_text(x, dense=True) == json_dumps_oracle(_dense(x))


@pytest.mark.parametrize("period", _AT_EDGE + _PAST_EDGE)
def test_integer_text_takes_json_only_past_2_53(monkeypatch, period):
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps ran")

    x = _periodic(period, 2 * len(period) + 1, 1)
    want = json_dumps_oracle(x)
    monkeypatch.setattr(json, "dumps", refuse)
    if period in _AT_EDGE:
        assert element_text(x) == want
    else:
        with pytest.raises(AssertionError, match="json.dumps ran"):
            element_text(x)


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
    # entries are Python ints, so the product of an int64 diagonal's entries
    # does not wrap; det_table's direct side is that product, det C_0(n)
    c0 = OperatorFamily(3000, 1).c_operator(0, 30)
    expected = 1
    for m in range(1, 3001):
        expected *= ramanujan_sum(30, m)
    assert c0.n == 3000
    assert math.prod(c0.entries) == det_table(30, [3000])[0][0] == expected
    assert abs(expected) > 2**63  # 30 is squarefree, so no factor c_30(m) is 0


# two shapes of each element type; the two scalars share the one scalar shape
_SHAPES = [
    ("scalar-int", Scalar(3)),
    ("scalar-complex", Scalar(2.5 - 1j)),
    ("diag-3", DiagonalOperator((1, -2, 3))),
    ("diag-2-offset-1", DiagonalOperator((4, 0), offset=1)),
    ("dense-2", DenseMatrix([[1, 2], [3, 4]])),
    ("dense-3", DenseMatrix(np.arange(9).reshape(3, 3) - 4j)),
]
_MISMATCHED = [pytest.param(x, y, id=f"{a}-{b}") for a, x in _SHAPES for b, y in _SHAPES
               if type(x) is not type(y) or (type(x) is not Scalar and x is not y)]
_NUMBERS = [3, Fraction(-2, 3), 0.5]


def _state(x):
    """An element's type and every entry with its type, so equal states are
    the same value in the same storage."""
    if isinstance(x, Scalar):
        values = [x.value]
    elif isinstance(x, DiagonalOperator):
        values = [x.offset, str(x._values.dtype), *x.entries]
    else:
        values = x.array.reshape(-1).tolist()
    return type(x), [(type(v), v) for v in values]


@pytest.mark.parametrize("x,y", _MISMATCHED)
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                lambda x, y: x.distance(y), lambda x, y: x.isclose(y)],
                         ids=["add", "sub", "mul", "distance", "isclose"])
def test_contract_refuses_other_types_and_shapes(x, y, op):
    with pytest.raises(ShapeMismatchError):
        op(x, y)


@pytest.mark.parametrize("name,x", _SHAPES, ids=[name for name, _ in _SHAPES])
@pytest.mark.parametrize("c", _NUMBERS, ids=["int", "fraction", "float"])
def test_contract_number_on_either_side_of_mul_scales(name, x, c):
    assert _state(c * x) == _state(x * c) == _state(x.scale(c))
    with pytest.raises(TypeError):
        c + x
