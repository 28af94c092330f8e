"""Algebra-valued arithmetic functions and the three convolution products
(Dirichlet, lcm, unitary), with identity, inverse and multiplicativity
testing.

Functions are finite tables over 1..n_max so every product is exact and
brute-force checkable.  In the non-commutative case the order convention
is fixed: (f . g)(n) sums f(k) * g(l) with k the left factor.

Every product runs on one flat index of its terms over 1..N, one held per
product and grown as N grows, while ``arith._hold`` keeps it (the lcm index
to N = 44,099): the 0-based table positions of each term's factors, ordered n
ascending, then left factor, then right, and where each n's terms start.  The
kernel gathers both tables at those positions, multiplies, and sums each n's
terms with ``np.add.reduceat`` along axis 0, about 8k entries at a time.  It
uses int64 only when both tables are integers of int64 size and max|a| max|b|
(most terms at one n) <= 2^63 - 1, so no sum can wrap.  Anything else (floats,
complex, Fractions, big ints, elements) runs on object arrays, adding each n's
terms in index order and then to zero, which gives zero + t_1 + t_2 + ...
bit for bit.  There is no float64 or complex128 reduction: numpy's
pairwise summation would change the bits.

``scalar_dirichlet``, ``scalar_lcm`` and ``scalar_unitary`` take number
tables, or two (N, k) stacks of k tables: one pass for all k columns
under the rule on each stack's largest entry, so ``lehmer_sides`` checks
Lehmer's identity on k pairs in one lcm and one Dirichlet pass.  The
``*_convolve`` products, ``dirichlet_inverse``, ``is_multiplicative`` and
``AlgFunction.distance`` take ``AlgFunction``s, which decide once, when
built, how their values are held: integer Scalars of int64 size, and int64
diagonals of one shape and offset, as one int64 stack whose row n - 1 is
the entries of f(n), then their bound; any other values as elements.  Each
operation has one stack path and one element path.  A product runs on the
stacks when the rule holds on their bound columns, whose sums are the
bounds the per-element sums would carry; a distance (the worst f(n)
against g(n)) is one array difference, in int64 while the bounds' sum fits.
A product's result and an inverse on the stack path hold the stack alone:
``values`` is built on its first read, and f(n) from row n - 1.

Cost on a table of size N: the Dirichlet product has the sum of tau(n)
terms (24,496 at N = 3000), the unitary product those with
gcd(d, n/d) = 1 (16,961), and the lcm product the pairs with lcm <= N
(86,212).  The lcm index takes each unitary split (x, y) of m times each
g <= N/m, since each pair is g = gcd(k, l) times a split of lcm(k, l)/g,
so it never forms the 320,698 divisor pairs of each n.  The lcm product
is not computed by Lehmer's sieve mu * ((1*f)(1*g)): that is the identity
``lehmer_sides`` tests, and a product built from it would make
that check, and the suite row that runs it, test the identity against
itself; its operator form on P_j(n) is checked in ``idempotents``.

``dirichlet_inverse`` runs its recursion one dyadic range of n at a time,
since every proper divisor of an n in [2^k, 2^(k+1)) lies below 2^k.  A
stack whose f(1) entries are all +-1 takes a range in int64 while
max|f| max|g so far| (most terms at one n) <= 2^63 - 1, the bound the
products use, and from the first range past it goes on in Python ints.

``is_multiplicative`` checks the definition: f(nm) = f(n) f(m) for coprime
n, m, in both factor orders, since nm = mn (Cashwell and Everett, 1959).
It reads the pairs (n, m), 2 <= n < m, off the unitary index, each judged
on its own within tol.  A stack compares them in blocks of 64, 128, ...
pairs, each one array product and one comparison, stopping at the first
block that fails; elements form one pair's product at a time.  Only dense
matrices fail to commute, so only they also compare every f(m) f(n).
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import (_INT64_MAX, DEFAULT_TOL, DenseMatrix, DiagonalOperator, Scalar, _store,
                      _Stored, invert, is_idempotent)
from .arith import _hold

__all__ = [
    "AlgFunction",
    "InverseCheckError",
    "dirichlet_convolve",
    "dirichlet_identity",
    "dirichlet_inverse",
    "is_multiplicative",
    "lcm_convolve",
    "lehmer_identity_check",
    "lehmer_sides",
    "scalar_dirichlet",
    "scalar_lcm",
    "scalar_table",
    "scalar_unitary",
    "unitary_convolve",
]

_BLOCK = 8192  # terms per kernel step
_N_BLOCK = 256  # n per index block: about _BLOCK lcm terms at N = 3000
_PAIR_BLOCK = 64  # the first block of pairs is_multiplicative compares; each next one doubles
_BASE = {"unitary": "dirichlet", "lcm": "unitary"}  # the index each product's terms are read off
_NO_TERMS = (np.zeros(0, dtype=np.int32),) * 2 + (np.zeros(1, dtype=np.int32),)  # the index on 1..0
_indexes: dict = {}  # kind -> the one (left, right, starts) held, grown by _index, under _hold


class InverseCheckError(ArithmeticError):
    """The verification of a Dirichlet inverse failed: f*g or g*f is not I."""


def scalar_table(fn: Callable[[int], object], n_max: int) -> list:
    """Tabulate a scalar arithmetic function as a list with table[i] = fn(i+1)."""
    return [fn(n) for n in range(1, n_max + 1)]


def _cofactors(lo: int, hi: int, split_starts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, first, last) for g = 1..hi-1: [first, last) holds the q with
    lo <= g q < hi, or, given the unitary index's starts, the positions of
    the unitary splits of those q."""
    g = np.arange(1, hi)
    first, last = -(-lo // g), (hi - 1) // g + 1
    if split_starts is None:
        return g, first, last
    return g, split_starts[first - 1], split_starts[last - 1]


def _terms(kind: str, lo: int, hi: int, base) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, counts) of the product ``kind`` at n = lo..hi - 1, as ``_index``
    holds them, read off base: the index on 1..hi - 1 or more of the product
    below it (Dirichlet for unitary, unitary for lcm)."""
    if kind == "unitary":  # the Dirichlet terms (d, n/d) with gcd(d, n/d) = 1
        left, right, starts = base
        at = slice(starts[lo - 1], starts[hi - 1])
        keep = np.gcd(left[at] + 1, right[at] + 1) == 1
        n = np.repeat(np.arange(hi - lo), np.diff(starts[lo - 1:hi]))
        return left[at][keep], right[at][keep], np.bincount(n[keep], minlength=hi - lo)
    # Dirichlet: the terms (g, q) at n = g q.  lcm: (g x, g y) at n = g x y
    # for each unitary split (x, y) of each q, so g = gcd of the pair.
    x, y, splits = (None, None, None) if base is None else base
    g, first, last = _cofactors(lo, hi, splits)
    count = last - first
    g = np.repeat(g, count)  # q: the cofactor, or for lcm a split's position
    q = np.arange(g.size) + np.repeat(first - np.cumsum(count) + count, count)
    left, right = (g, q) if splits is None else (g * (x[q] + 1), g * (y[q] + 1))
    n = left * right if splits is None else left * right // g
    order = np.argsort(((n - lo) * hi + left) * hi + right)
    return ((left[order] - 1).astype(np.int32), (right[order] - 1).astype(np.int32),
            np.bincount(n - lo, minlength=hi - lo))


def _index(kind: str, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, starts) of the product ``kind`` on 1..n_max, int32: the
    0-based positions of each term's factors, and where each n's terms start
    (n_max + 1 entries, the last the term count): a prefix of the one index held
    per product, or that index grown by the blocks past it, then kept if ``_hold`` keeps it."""
    left, right, starts = _indexes.get(kind, _NO_TERMS)
    if len(starts) <= n_max or kind not in _indexes:  # _NO_TERMS is held as a read-only copy
        base = None if kind == "dirichlet" else _index(_BASE[kind], n_max)
        blocks = [_terms(kind, lo, min(lo + _N_BLOCK, n_max + 1), base)
                  for lo in range(len(starts), n_max + 1, _N_BLOCK)]
        left, right, counts = map(np.concatenate, zip((left, right, starts[:0]), *blocks))
        starts = np.concatenate([starts, starts[-1] + np.cumsum(counts, dtype=np.int32)])
        for array in (left, right, starts):  # every caller reads these arrays, held or not
            array.flags.writeable = False
        _hold(_indexes, kind, (left, right, starts))
    return left[:starts[n_max]], right[:starts[n_max]], starts[:n_max + 1]


def _blocks(starts: np.ndarray, lo: int, hi: int, size: int = _BLOCK):
    """Consecutive ranges of positions lo..hi - 1 holding at most size
    terms each, or one position's terms when it has more."""
    while lo < hi:
        cut = int(np.searchsorted(starts, starts[lo] + size, "right")) - 1
        cut = min(max(cut, lo + 1), hi)
        yield lo, cut
        lo = cut


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, first) of the loop "for i, for j < counts[i]", flat: i's run starts at first[i]."""
    first = np.cumsum(counts) - counts
    i = np.repeat(np.arange(len(counts)), counts)
    return i, np.arange(i.size) - first[i], first


def _worst_first(residual: np.ndarray, where: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """Per run of residual from each of starts: its largest value and the least
    ``where`` holding it (where ascends within a run)."""
    worst = np.maximum.reduceat(residual, starts)
    held = residual == np.repeat(worst, np.diff([*starts, len(residual)]))
    return worst, np.minimum.reduceat(np.where(held, where, where.max() + 1), starts)


def _fits(index: tuple, bound_a: int, bound_b: int) -> bool:
    """Whether no sum over the terms of an index of factors of modulus
    <= bound_a and <= bound_b can leave int64."""
    return bound_a * bound_b * int(np.diff(index[2]).max(initial=0)) <= _INT64_MAX


def _sums(index: tuple, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Each n's sum of va[k] * vb[l] over the terms (k, l) of the index on
    1..len(va), along axis 0, about _BLOCK entries at a time."""
    left, right, starts = index
    sums = []
    for lo, hi in _blocks(starts, 0, len(va), _BLOCK // math.prod(va.shape[1:])):
        terms = slice(starts[lo], starts[hi])
        sums.append(np.add.reduceat(va[left[terms]] * vb[right[terms]], starts[lo:hi] - starts[lo]))
    return np.concatenate(sums) if sums else va[:0]


def _product(kind: str, a: Sequence | np.ndarray, b: Sequence | np.ndarray, zero):
    """The product ``kind`` of two tables of equal length, as a list; or of
    two (N, k) arrays of k tables each, column j the product of the two j-th
    tables, as an (N, k) array, int64 when the stack meets the int64 rule."""
    if len(a) != len(b):
        raise ValueError(f"table lengths differ: {len(a)} vs {len(b)}")
    sa, sb = _store(a), _store(b)
    if sa.values.shape != sb.values.shape:
        raise ValueError(f"table shapes differ: {sa.values.shape} vs {sb.values.shape}")
    index = _index(kind, len(a))
    if sa.bound is not None and sb.bound is not None and _fits(index, sa.bound, sb.bound):
        sums = _sums(index, sa.values, sb.values)
        return sums if sums.ndim == 2 else sums.tolist()
    sums = _sums(index, sa.values.astype(object), sb.values.astype(object))
    return zero + sums if sums.ndim == 2 else [zero + s for s in sums.tolist()]


def scalar_dirichlet(a: Sequence | np.ndarray, b: Sequence | np.ndarray) -> list | np.ndarray:
    """Dirichlet product of two scalar tables (1-indexed lists), or of two (N, k) stacks."""
    return _product("dirichlet", a, b, 0)


def scalar_lcm(a: Sequence | np.ndarray, b: Sequence | np.ndarray) -> list | np.ndarray:
    """lcm product of two scalar tables, or of two (N, k) stacks."""
    return _product("lcm", a, b, 0)


def scalar_unitary(a: Sequence | np.ndarray, b: Sequence | np.ndarray) -> list | np.ndarray:
    """Unitary product of two scalar tables, or of two (N, k) stacks."""
    return _product("unitary", a, b, 0)


def _held(values: tuple) -> tuple[Optional[np.ndarray], Optional[int], bool]:
    """How an AlgFunction holds its values: (stack, offset, commutes).  Integer
    Scalars of int64 size, and int64 diagonals of one shape and offset, are
    one int64 stack, row i values[i]'s entries and then their bound, with
    the diagonals' offset (None for Scalars), from which ``AlgFunction._rows``
    builds elements of their kind again.  All but dense matrices commute."""
    first = values[0]
    if all(type(v) is Scalar for v in values):
        stored = _store([v.value for v in values])
        if stored.bound is not None:
            return np.column_stack((stored.values, np.abs(stored.values))), None, True
    elif all(type(x) is DiagonalOperator and x._bound is not None and x.n == first.n
             and x.offset == first.offset for x in values):
        return (np.column_stack(([x._values for x in values], [x._bound for x in values])),
                first.offset, True)
    return None, None, not any(type(v) is DenseMatrix for v in values)


class AlgFunction:
    """A tabulated map 1..n_max -> algebra elements of one shared shape,
    held as ``_held`` decides when it is built.  One held only as a stack
    builds its ``values`` when they are first read, and f(n) from row n - 1."""

    __slots__ = ("_values", "_stack", "_offset", "_commutes")

    def __init__(self, values: Sequence):
        values = tuple(values)
        if not values:
            raise ValueError("AlgFunction needs n_max >= 1")
        self._values = values
        self._stack, self._offset, self._commutes = _held(values)

    @classmethod
    def _of(cls, stack: np.ndarray, offset: Optional[int]) -> "AlgFunction":
        """The commuting function of Scalars (offset None) or of diagonals on
        offset held as ``stack`` alone, as ``_held`` would build it from its
        elements: a Scalar's bound is its modulus, a diagonal's the stack's."""
        if offset is None:
            stack[:, -1] = np.abs(stack[:, 0])
        f = cls.__new__(cls)
        f._values, f._stack, f._offset, f._commutes = None, stack, offset, True
        return f

    def _rows(self, stack: np.ndarray):
        """The elements of a stack's rows, of this function's kind (Python ints
        from an object stack whose bounds are None)."""
        if self._offset is None:
            return map(Scalar, stack[:, 0].tolist())
        return (DiagonalOperator(_Stored(row[:-1], bound), self._offset)
                for row, bound in zip(stack, stack[:, -1].tolist()))

    @property
    def values(self) -> tuple:
        if self._values is None:
            self._values = tuple(self._rows(self._stack))
        return self._values

    @property
    def n_max(self) -> int:
        return len(self._values if self._stack is None else self._stack)

    def __call__(self, n: int):
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n={n} outside tabulated range 1..{self.n_max}")
        if self._values is None:  # one element, from row n - 1
            return next(self._rows(self._stack[n - 1:n]))
        return self._values[n - 1]

    @classmethod
    def lift(cls, alpha: Callable[[int], object], unit, n_max: int) -> "AlgFunction":
        """Lift a scalar function to n -> alpha(n) * e."""
        return cls([unit.scale(alpha(n)) for n in range(1, n_max + 1)])

    def _check(self, other: "AlgFunction"):
        if self.n_max != other.n_max:
            raise ValueError(f"n_max mismatch: {self.n_max} vs {other.n_max}")
        self(1)._check(other(1))  # one kind and shape, as the first term f(1) g(1) needs

    def distance(self, other: "AlgFunction") -> float:
        """The worst f(n).distance(g(n)) over n: one array difference of two stacks,
        in int64 while their bounds' sum fits; else one element at a time."""
        self._check(other)
        a, b = self._stack, other._stack
        if a is None or b is None:
            return max(x.distance(y) for x, y in zip(self.values, other.values))
        if int(a[:, -1].max()) + int(b[:, -1].max()) > _INT64_MAX:
            a, b = a.astype(object), b.astype(object)
        return float(abs(a[:, :-1] - b[:, :-1]).max())


def _convolve(kind: str, f: AlgFunction, g: AlgFunction) -> AlgFunction:
    """The product ``kind`` of f and g: on their stacks when both have one
    and the sums fit int64, else element by element."""
    f._check(g)
    a, b = f._stack, g._stack
    if a is not None and b is not None and _fits(index := _index(kind, f.n_max),
                                                 int(a[:, -1].max()), int(b[:, -1].max())):
        return AlgFunction._of(_sums(index, a, b), f._offset)
    return AlgFunction(_product(kind, f.values, g.values, f(1).zero()))


def dirichlet_convolve(f: AlgFunction, g: AlgFunction) -> AlgFunction:
    return _convolve("dirichlet", f, g)


def lcm_convolve(f: AlgFunction, g: AlgFunction) -> AlgFunction:
    return _convolve("lcm", f, g)


def unitary_convolve(f: AlgFunction, g: AlgFunction) -> AlgFunction:
    return _convolve("unitary", f, g)


def dirichlet_identity(unit, n_max: int) -> AlgFunction:
    """I(1) = e, I(n) = 0 otherwise."""
    if n_max < 1:
        raise ValueError(f"dirichlet_identity needs n_max >= 1, got {n_max}")
    zero = unit.zero()
    return AlgFunction([unit] + [zero] * (n_max - 1))


def dirichlet_inverse(f: AlgFunction, tol: float = DEFAULT_TOL) -> AlgFunction:
    """Dirichlet inverse by the right-inverse recursion
    g(n) = -f(1)^-1 sum_{d | n, d > 1} f(d) g(n/d), then verified to be
    two-sided within tol (InverseCheckError otherwise): on a stack with
    f(1) entries +-1 by f*g alone, since (d, n/d) pairs with (n/d, d) and
    g*f sums the same integer products; on elements by both products, as
    the left check is not a free consequence in a non-commutative algebra.

    Each dyadic range of n is one gather-reduce over its terms with d > 1.
    """
    lead_inv = invert(f(1))  # raises NonInvertibleError when f(1) is singular
    left, right, starts = _index("dirichlet", f.n_max)
    stack = f._stack
    stacked = stack is not None and bool((np.abs(stack[0, :-1]) == 1).all())
    exact = stacked  # int64 until a range could leave it
    if stacked:  # f(1) is its own inverse, and I is the column 1, 0, 0, ... under each entry
        fv, lead_inv, zero = stack[:, :-1], stack[0, :-1], 0
        identity = np.eye(f.n_max, 1, dtype=np.int64)
    else:
        fv, zero = np.array(f.values, dtype=object), f(1).zero()
        identity = [f(1).unit()] + [zero] * (f.n_max - 1)
    g = np.empty_like(fv)
    g[0], g_bound = lead_inv, 1
    terms = np.diff(starts) - 1  # the terms with d > 1 at each n
    for j in range(1, f.n_max.bit_length()):  # positions of n = 2^j .. 2^(j+1) - 1
        first, stop = 2**j - 1, min(2 ** (j + 1) - 1, f.n_max)
        if exact and int(stack[:, -1].max()) * g_bound * int(terms[first:stop].max()) > _INT64_MAX:
            exact, fv, g = False, fv.astype(object), g.astype(object)
        for lo, hi in _blocks(starts, first, stop):
            at = slice(starts[lo], starts[hi])
            keep = left[at] > 0
            sums = np.add.reduceat(fv[left[at][keep]] * g[right[at][keep]],
                                   starts[lo:hi] - starts[lo] - np.arange(hi - lo))
            g[lo:hi] = (-lead_inv * sums if stacked
                        else [-(lead_inv * (zero + s)) for s in sums.tolist()])
        if exact:
            g_bound = max(g_bound, int(np.abs(g[first:stop]).max()))
    for name, pair in [("f*g", (fv, g))] if stacked else [("f*g", (fv, g)), ("g*f", (g, fv))]:
        prod = np.array(_product("dirichlet", *pair, zero), dtype=None if stacked else object)
        first = _first_far(prod, identity, tol)
        if first is not None:
            raise InverseCheckError(f"{name} differs from I at n={first + 1}")
    if exact:
        return AlgFunction._of(np.column_stack((g, np.abs(g).max(axis=1))), f._offset)
    if not stacked:
        return AlgFunction(g.tolist())
    return AlgFunction(f._rows(np.column_stack((g, [None] * f.n_max))))


def _first_far(values: np.ndarray, others, tol: float):
    """The first position i at which values[i] is farther than tol from
    others[i], or None.  Rows of a 2-D array compare in one pass, so a NaN
    fails; elements call isclose one at a time, and others may be lazy.
    """
    if values.ndim == 2:
        near = (np.abs((values - others).astype(complex)) <= tol).all(axis=1)
        return None if near.all() else int(np.argmin(near))
    return next((i for i, (x, y) in enumerate(zip(values, others))
                 if not x.isclose(y, tol)), None)


def _first_far_pair(fv: np.ndarray, n: np.ndarray, m: np.ndarray, tol: float):
    """The first i at which f(n[i] m[i]) is farther than tol from
    f(n[i]) f(m[i]), or None, where fv[k - 1] = f(k).  Rows of a 2-D
    array go in blocks of 64, 128, ... pairs, so a table that fails early
    forms few products; elements form one product at a time.
    """
    if fv.ndim == 1:
        return _first_far(fv[n * m - 1], map(operator.mul, fv[n - 1], fv[m - 1]), tol)
    lo, size = 0, _PAIR_BLOCK
    while lo < n.size:
        x, y = n[lo:lo + size], m[lo:lo + size]
        first = _first_far(fv[x * y - 1], fv[x - 1] * fv[y - 1], tol)
        if first is not None:
            return lo + first
        lo, size = lo + size, 2 * size
    return None


def is_multiplicative(
    f: AlgFunction, tol: float = DEFAULT_TOL
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check f(nm) = f(n) f(m) and f(nm) = f(m) f(n) on coprime pairs with
    nm <= n_max, each pair within tol.

    The pairs are the unitary index's terms (n, m) with 2 <= n < m, taken
    n ascending, then m.  A stack compares its entries in int64 when
    2 bound^2 <= 2^63 - 1, else in Python ints.  Dense matrices then
    compare every f(m) f(n), whose failure is reported as (m, n).

    Returns (verdict, first counterexample or None).
    """
    if not is_idempotent(f(1), tol):  # f(1) = f(1)f(1) is the (1, 1) case
        return False, (1, 1)
    stack = f._stack
    fv = np.array(f.values, dtype=object) if stack is None else stack[:, :-1]  # fv[n - 1] = f(n)
    if stack is not None and 2 * int(stack[:, -1].max())**2 > _INT64_MAX:
        fv = fv.astype(object)
    left, right, _ = _index("unitary", f.n_max)
    pairs = (0 < left) & (left < right)
    n, m = left[pairs] + 1, right[pairs] + 1
    order = np.argsort(n, kind="stable")  # the index sorts by n m, so each n's m ascend
    n, m = n[order], m[order]
    for x, y in [(n, m)] if f._commutes else [(n, m), (m, n)]:
        first = _first_far_pair(fv, x, y, tol)
        if first is not None:
            return False, (int(x[first]), int(y[first]))
    return True, None


def lehmer_sides(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Both sides of Lehmer's identity (nu0 * alpha)(nu0 * beta) = nu0 * (alpha [] beta)
    for the k pairs of tables that are the columns of two (N, k) arrays, and each
    pair's worst residual (a NaN if it has one): one lcm product, then one
    Dirichlet product of nu0 with the 3k columns alpha, beta, alpha [] beta.
    The sides stay int64 only while 2 max|nu0 * .|^2 fits, so no side or residual wraps."""
    k = alpha.shape[1]
    sums = scalar_dirichlet(np.ones((len(alpha), 3 * k), dtype=np.int64),
                            np.hstack((alpha, beta, scalar_lcm(alpha, beta))))
    if sums.dtype != object and 2 * int(np.abs(sums).max(initial=0))**2 > _INT64_MAX:
        sums = sums.astype(object)
    with np.errstate(invalid="ignore"):  # inf - inf is the NaN residual reported
        lhs, rhs = sums[:, :k] * sums[:, k:2 * k], sums[:, 2 * k:]
        residuals = abs(lhs - rhs)
    nan = residuals != residuals  # max would skip a NaN, and warn over one
    worst = np.where(nan, 0, residuals).max(axis=0).tolist()
    return lhs, rhs, [math.nan if bad else top for bad, top in zip(nan.any(axis=0).tolist(), worst)]


def lehmer_identity_check(alpha: Sequence, beta: Sequence, tol: float = DEFAULT_TOL) -> dict:
    """Verify (nu0 * alpha)(m) (nu0 * beta)(m) = (nu0 * (alpha [] beta))(m)
    pointwise: ``lehmer_sides`` on the one pair.

    alpha and beta are scalar tables of equal length; returns a report dict
    whose "max_residual" is the worst residual, within tol or not, and a NaN
    when any residual is one.
    """
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must share n_max")
    n_max = len(alpha)
    if n_max < 1:
        raise ValueError("lehmer_identity_check needs tables of length >= 1")
    lhs, rhs, worst = lehmer_sides(*(_store(t).values[:, None] for t in (alpha, beta)))
    failures = [] if worst[0] <= tol else [  # the worst within tol: none fails
        {"m": m, "lhs": x, "rhs": y}
        for m, (x, y) in enumerate(zip(lhs[:, 0].tolist(), rhs[:, 0].tolist()), 1)
        if not abs(x - y) <= tol  # a NaN residual or tolerance fails
    ]
    return {
        "identity": "(nu0*alpha)(nu0*beta) = nu0*(alpha lcm-prod beta)",
        "n_max": n_max,
        "scalar_failures": failures,
        "max_residual": worst[0],
        "pass": not failures,
    }
