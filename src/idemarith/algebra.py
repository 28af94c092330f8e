"""Concrete unital associative algebras over the complex numbers: scalars,
dense matrices, and diagonal operators on a truncated monomial basis.

Elements are immutable values sharing one contract, written once in the
private base ``_Element``: a plain number on either side of ``*`` scales,
``+`` and ``-`` share one sum, ``isclose`` compares ``distance`` with a
tolerance, and an operand of another type or shape raises
``ShapeMismatchError``.  A diagonal operator holds its entries in one array:
int64 while every value fits, complex128 for complex input, and object (exact
Python int or Fraction) otherwise, integer results past int64 included, so
exact inputs stay exact; ``entries`` returns Python scalars.  There is no
trace or determinant: ``analytic`` computes those of the Ramanujan diagonals
per level.

``element_text`` serializes a diagonal or dense element to JSON text,
byte-identical to ``json.dumps(..., sort_keys=True)`` of its [re, im]
entry pairs.  A diagonal built by ``DiagonalOperator.periodic`` keeps the
length of the block it repeats, so its text is that of one period,
repeated, and built with one join; any other element is written in runs
of at most 4096 entries.  Integer entries of modulus at most 2**53 print
from int text, any others through ``json.dumps``.  A diagonal can also be
written as the dense matrix it is, straight from its entries.  The package
writes this form and never reads it back.
"""

from __future__ import annotations

import json
import numbers
import operator
from fractions import Fraction
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-9
# int64 entries stay within +-(2**63 - 1), so negation never wraps
_INT64_MAX = 2**63 - 1

__all__ = [
    "DEFAULT_TOL",
    "DenseMatrix",
    "DiagonalOperator",
    "NonInvertibleError",
    "Scalar",
    "ShapeMismatchError",
    "element_text",
    "invert",
    "is_idempotent",
    "operator_norm",
]


class ShapeMismatchError(ValueError):
    """Arithmetic between elements of different shape (N or basis offset)."""


class NonInvertibleError(ArithmeticError):
    """The element has no inverse meeting the residual tolerance."""


class _Element:
    """The half of the element contract that the three algebras share.  A
    subclass gives ``_sum`` (``+`` or ``-`` as op, its operand checked),
    negation, ``_product`` (its operand checked), ``scale``, ``unit``,
    ``zero``, ``distance`` and, unless it is a scalar, the ``_shape`` that
    ``_check`` compares and ``repr`` shows.
    """

    __slots__ = ()

    def _shape(self) -> str:
        return ""

    def _check(self, other):
        if not isinstance(other, type(self)) or self._shape() != other._shape():
            theirs = repr(other) if isinstance(other, _Element) else type(other).__name__
            raise ShapeMismatchError(f"cannot combine {self!r} with {theirs}")

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return self.scale(other)
        return self._product(other)

    def __rmul__(self, c):
        if isinstance(c, numbers.Number):
            return self.scale(c)
        return NotImplemented

    def __add__(self, other):
        return self._sum(other, operator.add)

    def __sub__(self, other):
        return self._sum(other, operator.sub)

    def isclose(self, other, tol: float = DEFAULT_TOL) -> bool:
        return self.distance(other) <= tol

    def __repr__(self):
        return f"{type(self).__name__}{self._shape()}"


class Scalar(_Element):
    """A complex scalar viewed as a one-dimensional algebra element."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def _sum(self, other, op):
        self._check(other)
        return Scalar(op(self.value, other.value))

    def __neg__(self):
        return Scalar(-self.value)

    def _product(self, other):
        self._check(other)
        return Scalar(self.value * other.value)

    def scale(self, c):
        return Scalar(c * self.value)

    def unit(self):
        return Scalar(1)

    def zero(self):
        return Scalar(0)

    def distance(self, other) -> float:
        self._check(other)
        return float(abs(complex(self.value - other.value)))

    def __repr__(self):
        return f"Scalar({self.value!r})"


class _Stored(NamedTuple):
    """Entries already in storage form: a fresh array (1-D for a diagonal)
    of a storage dtype, the bound on |entry| of an int64 array (None
    otherwise), and the length of the leading block the array repeats
    (None: all of it)."""

    values: np.ndarray
    bound: int | None
    block: int | None = None


def _store(entries) -> _Stored:
    """Copy entries into storage form: int64 when every value is an integer
    of modulus <= 2**63 - 1, complex128 for complex input, and object
    (the Python scalars as given) for anything else.
    """
    if not isinstance(entries, np.ndarray):
        entries = list(entries)
    values = np.array(entries)
    kind = values.dtype.kind
    if kind in "biu" and values.size:
        bound = max(-int(values.min()), int(values.max()))
        if bound <= _INT64_MAX:
            return _Stored(values.astype(np.int64, copy=False), bound)
    elif kind == "c":
        return _Stored(values.astype(np.complex128, copy=False), None)
    # numpy infers float64 for ints beyond int64 mixed with negatives
    return _Stored(values if kind == "O" else np.array(entries, dtype=object), None)


class DiagonalOperator(_Element):
    """Diagonal operator on the monomial basis e_offset..e_{offset+N-1}.

    The algebra product of two diagonals of equal shape is the entrywise
    product.  Entries are held in one numpy array whose dtype follows the
    input: int64 while every value fits, complex128 for complex input, and
    object (exact Python int / Fraction, or whatever scalars were given)
    otherwise.  An int64 array carries a bound on its entries' modulus; an
    operation whose result could leave the int64 range is computed on
    Python ints instead, so integer inputs give exact integer results.
    ``entries`` returns the values as a tuple of Python scalars.
    """

    __slots__ = ("_values", "_bound", "_block", "offset")

    def __init__(self, entries, offset: int = 0):
        if offset not in (0, 1):
            raise ValueError("offset must be 0 or 1")
        values, bound, block = entries if isinstance(entries, _Stored) else _store(entries)
        if values.ndim != 1:
            raise ValueError("DiagonalOperator entries must be one-dimensional")
        if not values.size:
            raise ValueError("DiagonalOperator needs at least one entry")
        values.flags.writeable = False
        self._values = values
        self._bound = bound
        self._block = block or values.size
        self.offset = offset

    @classmethod
    def periodic(cls, period, n: int, shift: int, dim: int, offset: int = 0):
        """The diagonal on e_offset..e_{offset+dim-1} whose entry at e_m is
        period((m - shift) mod n): an n-periodic (n-even) sequence.

        ``period`` maps an int64 array of residues mod n to their values.
        It is called once, on the at most min(n, dim) residues the window
        meets, and the window repeats them.  The operator keeps that block
        length, so ``element_text`` formats one period and repeats its
        text; arithmetic results keep no block.
        """
        if n < 1:
            raise ValueError("period n must be positive")
        if dim < 1:
            raise ValueError("DiagonalOperator needs at least one entry")
        start = (offset - shift) % n
        values, bound, _ = _store(period(np.arange(start, start + min(n, dim)) % n))
        rows = np.repeat(values[np.newaxis], -(-dim // values.size), axis=0)
        return cls(_Stored(rows.reshape(-1)[:dim], bound, values.size), offset)

    @property
    def entries(self) -> tuple:
        """The diagonal entries as a tuple of Python scalars."""
        return tuple(self._values.tolist())

    @property
    def n(self) -> int:
        return self._values.size

    def _shape(self) -> str:
        return f"(n={self.n}, offset={self.offset})"

    def _operands(self, other, bound_of):
        """Both value arrays for an entrywise operation, and the bound on
        its result when that is int64.  Two int64 operands whose result
        might leave the int64 range are lifted to exact Python ints.
        """
        self._check(other)
        a, b = self._values, other._values
        if self._bound is None or other._bound is None:
            return a, b, None
        bound = bound_of(self._bound, other._bound)
        if bound > _INT64_MAX:
            return a.astype(object), b.astype(object), None
        return a, b, bound

    def _new(self, values, bound):
        return DiagonalOperator(_Stored(values, bound), self.offset)

    def _sum(self, other, op):
        a, b, bound = self._operands(other, operator.add)
        return self._new(op(a, b), bound)

    def __neg__(self):
        return self._new(-self._values, self._bound)

    def _product(self, other):
        a, b, bound = self._operands(other, operator.mul)
        return self._new(a * b, bound)

    def scale(self, c):
        a, bound = self._values, None
        if self._bound is not None:
            if isinstance(c, numbers.Integral):
                c = int(c)
                bound = abs(c) * self._bound
                if abs(c) > _INT64_MAX or bound > _INT64_MAX:
                    a, bound = a.astype(object), None
            elif not isinstance(c, (complex, np.complexfloating)):
                a = a.astype(object)  # Python scalar arithmetic, so Fractions stay exact
        return self._new(a * c, bound)

    def unit(self):
        return self._new(np.ones(self.n, dtype=np.int64), 1)

    def zero(self):
        return self._new(np.zeros(self.n, dtype=np.int64), 0)

    def distance(self, other) -> float:
        a, b, _ = self._operands(other, operator.add)
        return float(np.max(np.abs(a - b)))


class DenseMatrix(_Element):
    """Square complex matrix under ordinary matrix arithmetic."""

    __slots__ = ("array",)

    def __init__(self, array):
        a = np.array(array, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"DenseMatrix must be square, got shape {a.shape}")
        if not a.size:
            raise ValueError("DenseMatrix needs at least one entry")
        a.flags.writeable = False
        self.array = a

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def _shape(self) -> str:
        return f"(n={self.n})"

    def _sum(self, other, op):
        self._check(other)
        return DenseMatrix(op(self.array, other.array))

    def __neg__(self):
        return DenseMatrix(-self.array)

    def _product(self, other):
        self._check(other)
        return DenseMatrix(self.array @ other.array)

    def scale(self, c):
        return DenseMatrix(complex(c) * self.array)

    def unit(self):
        return DenseMatrix(np.eye(self.n, dtype=complex))

    def zero(self):
        return DenseMatrix(np.zeros((self.n, self.n), dtype=complex))

    def distance(self, other) -> float:
        self._check(other)
        return float(np.max(np.abs(self.array - other.array)))


def is_idempotent(x, tol: float = DEFAULT_TOL) -> bool:
    """True iff x*x is within tol of x."""
    return (x * x).isclose(x, tol)


def _reciprocal(v):
    if isinstance(v, numbers.Rational):  # numpy integers too, so they stay exact
        if v == 0:
            raise NonInvertibleError("zero diagonal entry")
        if isinstance(v, numbers.Integral):
            v = int(v)
            return v if v in (1, -1) else Fraction(1, v)  # a unit of Z stays an int
        return 1 / Fraction(v)
    if abs(v) <= 1e-12:
        raise NonInvertibleError("zero diagonal entry")
    return 1 / v


def invert(x, tol: float = DEFAULT_TOL):
    """Two-sided inverse; raises NonInvertibleError when the residual
    cannot be met.
    """
    if isinstance(x, Scalar):
        return Scalar(_reciprocal(x.value))
    if isinstance(x, DiagonalOperator):
        return DiagonalOperator((_reciprocal(v) for v in x.entries), x.offset)
    if isinstance(x, DenseMatrix):
        try:
            inv = np.linalg.solve(x.array, np.eye(x.n, dtype=complex))
        except np.linalg.LinAlgError as exc:
            raise NonInvertibleError(str(exc)) from exc
        result = DenseMatrix(inv)
        ident = x.unit()
        if not (x * result).isclose(ident, tol) or not (result * x).isclose(ident, tol):
            raise NonInvertibleError("inverse residual exceeds tolerance")
        return result
    raise TypeError(f"invert not defined for {type(x).__name__}")


def operator_norm(x) -> float:
    """Max entry modulus for diagonals; maximum absolute row sum for dense
    matrices (submultiplicative).
    """
    if isinstance(x, Scalar):
        return float(abs(complex(x.value)))
    if isinstance(x, DiagonalOperator):
        return float(np.max(np.abs(x._values)))
    if isinstance(x, DenseMatrix):
        return float(np.max(np.sum(np.abs(x.array), axis=1)))
    raise TypeError(f"operator_norm not defined for {type(x).__name__}")


# entries per text run, so that tolist() never holds more values than this
_CHUNK = 4096


def _pairs_text(values: np.ndarray, bound: int | None = None) -> str:
    """The [re, im] pairs of values as complex128, unbracketed, in json's own
    float text (repr, -0.0, NaN, Infinity), one run per _CHUNK entries.  An
    int64 array whose bound is at most 2**53 is written from int text, as
    each such integer is a float whose repr is its digits and ".0"; any
    other array goes through json.dumps."""
    runs = (values[k:k + _CHUNK] for k in range(0, values.size, _CHUNK))
    if values.dtype == np.int64 and bound is not None and bound <= 2**53:
        return ", ".join("[" + ".0, 0.0], [".join(map(str, run.tolist())) + ".0, 0.0]"
                         for run in runs)
    return ", ".join(json.dumps(run.astype(np.complex128).view(np.float64)
                                .reshape(-1, 2).tolist())[1:-1] for run in runs)


def element_text(x, dense: bool = False) -> str:
    """Serialize an element to JSON text: diagonal entries or row-major
    dense entries as [re, im] pairs, exactly ``json.dumps(...,
    sort_keys=True)`` of that object.  A periodic diagonal's text is its
    first period's, repeated, then that of the first n mod period entries,
    joined into the full text once.
    With ``dense``, a diagonal is written as the dense matrix with that
    diagonal, n zero pairs between each two of its pairs, and no matrix built.
    """
    if isinstance(x, DiagonalOperator) and dense:
        # no float text holds "], [", so it is exactly the gap between two pairs
        runs = [_pairs_text(x._values, x._bound)
                .replace("], [", "], " + "[0.0, 0.0], " * x.n + "[")]
        tail = f'"dense", "n": {x.n}}}'
    elif isinstance(x, DiagonalOperator):
        repeats, rest = divmod(x.n, x._block)
        runs = [_pairs_text(x._values[:x._block], x._bound)] * repeats
        if rest:
            runs.append(_pairs_text(x._values[:rest], x._bound))
        tail = f'"diag", "n": {x.n}, "offset": {x.offset}}}'
    elif isinstance(x, DenseMatrix):
        runs, tail = [_pairs_text(x.array.reshape(-1))], f'"dense", "n": {x.n}}}'
    else:
        raise TypeError(f"no JSON form for {type(x).__name__}")
    runs[0] = '{"entries": [' + runs[0]
    runs[-1] += '], "kind": ' + tail
    return ", ".join(runs)
