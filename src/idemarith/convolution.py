"""Algebra-valued arithmetic functions and the three convolution products
(Dirichlet, lcm, unitary), with identity, inverse and multiplicativity
testing.

Functions are finite tables over 1..n_max so every product is exact and
brute-force checkable.  In the non-commutative case the order convention
is fixed: (f . g)(n) sums f(k) * g(l) with k the left factor.

Every product runs on one flat index of its terms over 1..N, cached for
at most three (product, N) pairs: the 0-based table positions of each
term's factors, ordered n ascending, then left factor, then right, and
where each n's terms start.  The kernel gathers both tables at those
positions, multiplies, and sums each n's terms with ``np.add.reduceat``
along axis 0, about 8k entries at a time.  It uses int64 only when both
tables are integers of int64 size and max|a| max|b| (most terms at one n)
<= 2^63 - 1, so no sum can wrap.  The scalar products also take two
(N, k) stacks of k tables, one pass for all k columns under the rule on
each stack's largest entry; ``lehmer_sides`` so checks Lehmer's identity
on k pairs in one lcm and one Dirichlet pass.  Functions whose values are
all int64 diagonals of one shape and offset meet that rule on the bounds
of their values and run as one (N, dim + 1) stack of entries and bound;
the bound column sums to the bound the per-element sum would carry.
Anything else (floats, complex, Fractions, big ints, other elements)
runs on object arrays, adding each n's terms in index order and then to
zero, which gives zero + t_1 + t_2 + ... bit for bit.  There is no
float64 or complex128 reduction: numpy's pairwise summation would change
the bits.

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
since every proper divisor of an n in [2^k, 2^(k+1)) lies below 2^k.  An
integer table with f(1) = +-1 takes a range in int64 while
max|f| max|g so far| (most terms at one n) <= 2^63 - 1, the bound the
products use; from the first range past it, it goes on to the end on
object arrays of Python ints.  Any other table runs on object arrays
throughout.

``is_multiplicative`` reads its coprime pairs (n, m), 2 <= n < m, off the
unitary index, and rebuilds each f(n) from its prime powers read off
``arith.prime_power_split``, a sieve of 1..N cached for at most three N,
multiplying f(p1^a1) ... f(pk^ak) left to right, primes ascending, as a
per-n loop over ``factorize`` would.  On Scalar tables and int64 diagonal
stacks the pairs are compared in blocks of 64, 128, ... pairs, each one
array product and one |x - y| <= tol comparison, stopping at the first
block that fails; the rebuild is one ``prime_power_product`` and one
comparison.  Other elements form one pair's product, or one rebuilt
f(n), at a time and call ``isclose``.  Either way the verdict and the
first counterexample are the loop's.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import (_INT64_MAX, DEFAULT_TOL, DiagonalOperator, Scalar, _stack, _store, _Stored,
                      invert, is_idempotent)
from .arith import prime_power_product, prime_power_split

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


class InverseCheckError(ArithmeticError):
    """The two-sided verification of a Dirichlet inverse failed."""


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


@lru_cache(maxsize=3)
def _index(kind: str, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, starts) of the product ``kind`` on 1..n_max: the
    0-based positions of each term's factors, and where each n's terms
    start (n_max + 1 entries, the last one the term count).
    """
    counts = np.zeros(n_max + 1, dtype=np.int32)  # counts[n]: the terms at n
    if kind == "unitary":  # the Dirichlet terms (d, n/d) with gcd(d, n/d) = 1
        left, right, starts = _index("dirichlet", n_max)
        keep = np.gcd(left + 1, right + 1) == 1
        counts[1:] = np.bincount(np.repeat(np.arange(n_max), np.diff(starts))[keep],
                                 minlength=n_max)
        return left[keep], right[keep], np.cumsum(counts, dtype=np.int32)
    # Dirichlet: the terms (g, q) at n = g q.  lcm: (g x, g y) at n = g x y
    # for each unitary split (x, y) of each q, so g = gcd of the pair.
    x, y, splits = _index("unitary", n_max) if kind == "lcm" else (None, None, None)
    _, first, last = _cofactors(1, n_max + 1, splits)
    terms = np.empty((2, int((last - first).sum())), dtype=np.int32)
    for lo in range(1, n_max + 1, _N_BLOCK):
        hi = min(lo + _N_BLOCK, n_max + 1)
        g, first, last = _cofactors(lo, hi, splits)
        count = last - first
        g = np.repeat(g, count)  # q: the cofactor, or for lcm a split's position
        q = np.arange(g.size) + np.repeat(first - np.cumsum(count) + count, count)
        left, right = (g, q) if splits is None else (g * (x[q] + 1), g * (y[q] + 1))
        n = left * right if splits is None else left * right // g
        order = np.argsort(((n - lo) * (n_max + 1) + left) * (n_max + 1) + right)
        at = counts.sum()
        terms[:, at:at + g.size] = left[order] - 1, right[order] - 1
        counts[lo:hi] = np.bincount(n - lo, minlength=hi - lo)
    return terms[0], terms[1], np.cumsum(counts, dtype=np.int32)


def _blocks(starts: np.ndarray, lo: int, hi: int, size: int = _BLOCK):
    """Consecutive ranges of positions lo..hi - 1 holding at most size
    terms each, or one position's terms when it has more."""
    while lo < hi:
        cut = int(np.searchsorted(starts, starts[lo] + size, "right")) - 1
        cut = min(max(cut, lo + 1), hi)
        yield lo, cut
        lo = cut


def _objects(table, stored) -> np.ndarray:
    """The table as an object array: Python ints for int input, else its own values."""
    if stored.bound is not None:
        return stored.values.astype(object)
    return np.array(list(table), dtype=object)


def _fits(kind: str, n_max: int, bound_a: int, bound_b: int) -> bool:
    """Whether no sum of the product ``kind`` on 1..n_max of factors of
    modulus <= bound_a and <= bound_b can leave int64."""
    starts = _index(kind, n_max)[2]
    return bound_a * bound_b * int(np.diff(starts).max(initial=0)) <= _INT64_MAX


def _sums(kind: str, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Each n's sum of va[k] * vb[l] over the terms (k, l) of the product
    ``kind``, along axis 0, about _BLOCK entries at a time."""
    left, right, starts = _index(kind, len(va))
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
    if sa.bound is not None and sb.bound is not None and _fits(kind, len(a), sa.bound, sb.bound):
        sums = _sums(kind, sa.values, sb.values)
        return sums if sums.ndim == 2 else sums.tolist()
    sums = _sums(kind, _objects(a, sa), _objects(b, sb))
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


class AlgFunction:
    """A tabulated map 1..n_max -> algebra elements of one shared shape."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence):
        values = tuple(values)
        if not values:
            raise ValueError("AlgFunction needs n_max >= 1")
        self.values = values

    @property
    def n_max(self) -> int:
        return len(self.values)

    def __call__(self, n: int):
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n={n} outside tabulated range 1..{self.n_max}")
        return self.values[n - 1]

    @classmethod
    def lift(cls, alpha: Callable[[int], object], unit, n_max: int) -> "AlgFunction":
        """Lift a scalar function to n -> alpha(n) * e."""
        return cls([unit.scale(alpha(n)) for n in range(1, n_max + 1)])

    def _check(self, other: "AlgFunction"):
        if self.n_max != other.n_max:
            raise ValueError(f"n_max mismatch: {self.n_max} vs {other.n_max}")


def _convolve(kind: str, f: AlgFunction, g: AlgFunction) -> AlgFunction:
    """The product ``kind`` of f and g: all-Scalar functions on their values,
    int64 diagonals that fit on one ``_stack``, anything else element by element."""
    f._check(g)
    values, n = f.values + g.values, f.n_max
    if all(type(v) is Scalar for v in values):
        values = _product(kind, [v.value for v in f.values], [v.value for v in g.values], 0)
        return AlgFunction(map(Scalar, values))
    stack = _stack(values)
    if stack is not None and _fits(kind, n, int(stack[:n, -1].max()), int(stack[n:, -1].max())):
        sums = _sums(kind, stack[:n], stack[n:])
        return AlgFunction(DiagonalOperator(_Stored(row[:-1], bound), values[0].offset)
                           for row, bound in zip(sums, sums[:, -1].tolist()))
    return AlgFunction(_product(kind, f.values, g.values, f.values[0].zero()))


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
    two-sided within tol (InverseCheckError otherwise; the left check is
    not a free consequence in a non-commutative algebra).

    Every proper divisor of an n in [2^k, 2^(k+1)) is below 2^k, so each
    such range of n is one gather-reduce over its Dirichlet terms with
    d > 1 (the first term of each n).  An int table with f(1) = +-1 runs
    a range in int64 while max|f| max|g so far| (most terms at one n)
    <= 2^63 - 1, and from the first range that fails the bound on to the
    end on object arrays.  On Scalar tables each side of the check is one
    product of the value tables and one array comparison.
    """
    lead_inv = invert(f(1))  # raises NonInvertibleError when f(1) is singular
    scalar = all(type(v) is Scalar for v in f.values)
    if scalar:
        values, lead_inv, zero = [v.value for v in f.values], lead_inv.value, 0
    else:
        values, zero = f.values, f(1).zero()
    left, right, starts = _index("dirichlet", f.n_max)
    stored = _store(values)
    exact = stored.bound is not None and type(lead_inv) is int  # so lead_inv = +-1
    fv = stored.values if exact else _objects(values, stored)
    g = np.empty(f.n_max, dtype=np.int64 if exact else object)
    g[0], g_bound = lead_inv, 1
    terms = np.diff(starts) - 1  # the terms with d > 1 at each n
    for j in range(1, f.n_max.bit_length()):  # positions of n = 2^j .. 2^(j+1) - 1
        first, stop = 2**j - 1, min(2 ** (j + 1) - 1, f.n_max)
        if exact and stored.bound * g_bound * int(terms[first:stop].max()) > _INT64_MAX:
            exact, fv, g = False, fv.astype(object), g.astype(object)
        for lo, hi in _blocks(starts, first, stop):
            at = slice(starts[lo], starts[hi])
            keep = left[at] > 0
            sums = np.add.reduceat(fv[left[at][keep]] * g[right[at][keep]],
                                   starts[lo:hi] - starts[lo] - np.arange(hi - lo))
            g[lo:hi] = (-lead_inv * sums if exact
                        else [-(lead_inv * (zero + s)) for s in sums.tolist()])
        if exact:
            g_bound = max(g_bound, int(np.abs(g[first:stop]).max()))
    identity = [1 if scalar else f(1).unit()] + [zero] * (f.n_max - 1)
    table = stored.values if stored.bound is not None else values  # int64: _store copies it fast
    for name, pair in (("f*g", (table, g)), ("g*f", (g, table))):
        prod = np.array(_product("dirichlet", *pair, zero), dtype=None if scalar else object)
        first = _first_far(prod, np.arange(f.n_max), identity, scalar, tol)
        if first is not None:
            raise InverseCheckError(f"{name} differs from I at n={first + 1}")
    return AlgFunction(map(Scalar, g.tolist()) if scalar else g.tolist())


def _first_far(fv: np.ndarray, at: np.ndarray, others, arrays: bool, tol: float):
    """The first position i at which fv[at[i]] is farther than tol from
    others[i], or None.  Arrays of values or rows compare in one pass, so a
    NaN fails; elements call isclose one at a time, and others may be lazy.
    """
    if arrays:
        near = (np.abs((fv[at] - others).astype(complex)) <= tol).all(axis=tuple(range(1, fv.ndim)))
        return None if near.all() else int(np.argmin(near))
    return next((i for i, (x, y) in enumerate(zip(fv[at], others))
                 if not x.isclose(y, tol)), None)


def _first_far_pair(fv: np.ndarray, n: np.ndarray, m: np.ndarray, arrays: bool, tol: float):
    """The first i at which f(n[i] m[i]) is farther than tol from
    f(n[i]) f(m[i]), or None.  Arrays go in blocks of 64, 128, ... pairs,
    so a table that fails early forms few products; elements form one
    product at a time.
    """
    if not arrays:
        return _first_far(fv, n * m, map(operator.mul, fv[n], fv[m]), False, tol)
    lo, size = 0, _PAIR_BLOCK
    while lo < n.size:
        part = slice(lo, lo + size)
        first = _first_far(fv, n[part] * m[part], fv[n[part]] * fv[m[part]], True, tol)
        if first is not None:
            return lo + first
        lo, size = lo + size, 2 * size
    return None


def _prime_powers(n: int, power: np.ndarray, rest: np.ndarray) -> list[int]:
    """The prime powers p^a || n, primes ascending, read off the split."""
    powers = []
    while n > 1:
        powers.append(int(power[n]))
        n = int(rest[n])
    return powers[::-1]


def is_multiplicative(
    f: AlgFunction, tol: float = DEFAULT_TOL
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check f(nm) = f(n) f(m) on coprime pairs with nm <= n_max, plus the
    prime-power reconstruction f(n) = f(p1^a1) ... f(pk^ak).

    The pairs are the unitary index's terms (n, m) with 2 <= n < m, taken
    n ascending, then m.  The reconstruction multiplies
    unit * f(p1^a1) * ... * f(pk^ak), primes ascending, left to right,
    with the prime powers read off ``arith.prime_power_split``.
    All-Scalar functions, and int64 diagonals on one ``_stack`` when
    2 bound^max(2, bit_length(n_max)) <= 2^63 - 1 (a rebuild multiplies
    omega(n) < bit_length(n) factors), compare the pairs in doubling blocks
    and rebuild every n in one ``prime_power_product``; other elements form
    one pair's product, or one n's rebuilt value, at a time.

    Returns (verdict, first counterexample (n, m) or None).
    """
    if not is_idempotent(f(1), tol):  # f(1) = f(1)f(1) is the (1, 1) case
        return False, (1, 1)
    n_max = f.n_max
    arrays = all(type(v) is Scalar for v in f.values)
    fv = np.array([None, *(v.value for v in f.values)] if arrays else [None, *f.values],
                  dtype=object)  # fv[n] = f(n)
    stack = None if arrays else _stack(f.values)
    if stack is not None and 2 * int(stack[:, -1].max())**max(2, n_max.bit_length()) <= _INT64_MAX:
        fv, arrays = np.vstack((np.zeros_like(stack[:1, :-1]), stack[:, :-1])), True  # fv[n] = f(n)
    left, right, _ = _index("unitary", n_max)
    pairs = (0 < left) & (left < right)
    n, m = left[pairs] + 1, right[pairs] + 1
    order = np.argsort(n, kind="stable")  # the index sorts by n m, so each n's m ascend
    n, m = n[order], m[order]
    first = _first_far_pair(fv, n, m, arrays, tol)
    if first is not None:
        return False, (int(n[first]), int(m[first]))
    _, power, rest = prime_power_split(n_max)
    composite = np.flatnonzero(rest > 1)
    if arrays:
        rebuilt = prime_power_product(fv[power], 1)[composite]
    else:
        rebuilt = (reduce(operator.mul, fv[_prime_powers(k, power, rest)], f(1).unit())
                   for k in composite.tolist())
    first = _first_far(fv, composite, rebuilt, arrays, tol)
    if first is None:
        return True, None
    whole = int(composite[first])
    low = _prime_powers(whole, power, rest)[0]
    return False, (low, whole // low)


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
