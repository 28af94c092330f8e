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
positions, multiplies, and sums each n's terms with ``np.add.reduceat``,
about 8k terms at a time.  It uses int64 only when both tables are
integers of int64 size and max|a| max|b| (most terms at one n) <= 2^63 - 1,
so no sum can wrap.  Anything else (floats, complex, Fractions, big ints,
algebra elements) runs on object arrays, adding each n's terms in index
order and then to zero, which gives zero + t_1 + t_2 + ... bit for bit.
There is no float64 or complex128 reduction: numpy's pairwise summation
would change the bits.

Cost on a table of size N: the Dirichlet product has the sum of tau(n)
terms (24,496 at N = 3000), the unitary product those with
gcd(d, n/d) = 1 (16,961), and the lcm product the pairs with lcm <= N
(86,212).  The lcm index takes each unitary split (x, y) of m times each
g <= N/m, since each pair is g = gcd(k, l) times a split of lcm(k, l)/g,
so it never forms the 320,698 divisor pairs of each n.  The lcm product
is not computed by Lehmer's sieve mu * ((1*f)(1*g)): that is the identity
``lehmer_identity_check`` tests, and a product built from it would make
that check, and the suite row that runs it, test the identity against
itself; its operator form on P_j(n) is checked in ``idempotents``.

``is_multiplicative`` reads its coprime pairs (n, m), 2 <= n < m, off the
unitary index, and rebuilds each f(n) from its prime powers read off
``arith.prime_power_split``, a sieve of 1..N cached for at most three N,
multiplying f(p1^a1) ... f(pk^ak) left to right, primes ascending, as a
per-n loop over ``factorize`` would.  On Scalar tables each of the two
tests is one array product (``prime_power_product`` for the rebuild) and
one |x - y| <= tol comparison; other elements form one pair's product,
or one rebuilt f(n), at a time and call ``isclose``.  Either way the
verdict and the first counterexample are the loop's.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import _INT64_MAX, DEFAULT_TOL, Scalar, _store, invert, is_idempotent
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
    "scalar_dirichlet",
    "scalar_lcm",
    "scalar_table",
    "scalar_unitary",
    "unitary_convolve",
]

_BLOCK = 8192  # terms per kernel step
_N_BLOCK = 256  # n per index block: about _BLOCK lcm terms at N = 3000


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


def _blocks(starts: np.ndarray, lo: int, hi: int):
    """Consecutive ranges of positions lo..hi - 1 holding at most _BLOCK
    terms each, or one position's terms when it has more."""
    while lo < hi:
        cut = int(np.searchsorted(starts, starts[lo] + _BLOCK, "right")) - 1
        cut = min(max(cut, lo + 1), hi)
        yield lo, cut
        lo = cut


def _objects(table, stored) -> np.ndarray:
    """The table as an object array: Python ints for int input, else its own values."""
    if stored.bound is not None:
        return stored.values.astype(object)
    return np.array(list(table), dtype=object)


def _product(kind: str, a: Sequence, b: Sequence, zero) -> list:
    """The product ``kind`` of two tables of equal length, as a list."""
    if len(a) != len(b):
        raise ValueError(f"table lengths differ: {len(a)} vs {len(b)}")
    left, right, starts = _index(kind, len(a))
    sa, sb = _store(a), _store(b)
    exact = (sa.bound is not None and sb.bound is not None
             and sa.bound * sb.bound * int(np.diff(starts).max(initial=0)) <= _INT64_MAX)
    va, vb = (sa.values, sb.values) if exact else (_objects(a, sa), _objects(b, sb))
    sums = []
    for lo, hi in _blocks(starts, 0, len(a)):
        terms = slice(starts[lo], starts[hi])
        sums.append(np.add.reduceat(va[left[terms]] * vb[right[terms]], starts[lo:hi] - starts[lo]))
    out = np.concatenate(sums or [[]]).tolist()
    return out if exact else [zero + s for s in out]


def scalar_dirichlet(a: Sequence, b: Sequence) -> list:
    """Dirichlet product of two scalar tables (1-indexed lists)."""
    return _product("dirichlet", a, b, 0)


def scalar_lcm(a: Sequence, b: Sequence) -> list:
    """lcm product of two scalar tables."""
    return _product("lcm", a, b, 0)


def scalar_unitary(a: Sequence, b: Sequence) -> list:
    """Unitary product of two scalar tables."""
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
    """The product ``kind`` of f and g; all-Scalar functions run on their
    values, whose + and * are the Scalars' own."""
    f._check(g)
    if all(type(v) is Scalar for v in f.values + g.values):
        values = _product(kind, [v.value for v in f.values], [v.value for v in g.values], 0)
        return AlgFunction(map(Scalar, values))
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
    d > 1 (the first term of each n).  On Scalar tables each side of the
    check is one product of the value lists and one array comparison.
    """
    lead_inv = invert(f(1))  # raises NonInvertibleError when f(1) is singular
    scalar = all(type(v) is Scalar for v in f.values)
    if scalar:
        values, lead_inv, zero = [v.value for v in f.values], lead_inv.value, 0
    else:
        values, zero = f.values, f(1).zero()
    left, right, starts = _index("dirichlet", f.n_max)
    fv = _objects(values, _store(values))
    g = np.empty(f.n_max, dtype=object)
    g[0] = lead_inv
    for j in range(1, f.n_max.bit_length()):  # positions of n = 2^j .. 2^(j+1) - 1
        for lo, hi in _blocks(starts, 2**j - 1, min(2 ** (j + 1) - 1, f.n_max)):
            terms = slice(starts[lo], starts[hi])
            keep = left[terms] > 0
            sums = np.add.reduceat(fv[left[terms][keep]] * g[right[terms][keep]],
                                   starts[lo:hi] - starts[lo] - np.arange(hi - lo))
            g[lo:hi] = [-(lead_inv * (zero + s)) for s in sums.tolist()]
    g = g.tolist()
    unit = f(1).unit()
    for name, pair in (("f*g", (values, g)), ("g*f", (g, values))):
        prod = _product("dirichlet", *pair, zero)
        if scalar:  # |x - e| <= tol in one pass, so a NaN fails
            ok = np.abs(np.array([prod[0] - 1, *prod[1:]], dtype=complex)) <= tol
        else:
            ok = [x.isclose(unit if n == 1 else zero, tol) for n, x in enumerate(prod, 1)]
        if not np.all(ok):
            raise InverseCheckError(f"{name} differs from I at n={int(np.argmin(ok)) + 1}")
    return AlgFunction(map(Scalar, g) if scalar else g)


def _first_far(fv: np.ndarray, at: np.ndarray, others, scalar: bool, tol: float):
    """The first position i at which fv[at[i]] is farther than tol from
    others[i], or None.  Scalar values compare in one array pass, so a NaN
    fails; elements call isclose one at a time, and others may be lazy.
    """
    if scalar:
        near = np.abs((fv[at] - others).astype(complex)) <= tol
        return None if near.all() else int(np.argmin(near))
    return next((i for i, (x, y) in enumerate(zip(fv[at], others))
                 if not x.isclose(y, tol)), None)


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
    All-Scalar functions run on their values, rebuilding every n in one
    ``prime_power_product``; other elements form one pair's product, or
    one n's rebuilt value, at a time.

    Returns (verdict, first counterexample (n, m) or None).
    """
    if not is_idempotent(f(1), tol):  # f(1) = f(1)f(1) is the (1, 1) case
        return False, (1, 1)
    n_max = f.n_max
    scalar = all(type(v) is Scalar for v in f.values)
    fv = np.array([None, *(v.value for v in f.values)] if scalar else [None, *f.values],
                  dtype=object)  # fv[n] = f(n)
    left, right, _ = _index("unitary", n_max)
    pairs = (0 < left) & (left < right)
    n, m = left[pairs] + 1, right[pairs] + 1
    order = np.argsort(n, kind="stable")  # the index sorts by n m, so each n's m ascend
    n, m = n[order], m[order]
    products = fv[n] * fv[m] if scalar else map(operator.mul, fv[n], fv[m])
    first = _first_far(fv, n * m, products, scalar, tol)
    if first is not None:
        return False, (int(n[first]), int(m[first]))
    _, power, rest = prime_power_split(n_max)
    composite = np.flatnonzero(rest > 1)
    unit = f(1).unit()
    if scalar:
        rebuilt = prime_power_product(fv[power], unit.value)[composite]
    else:
        rebuilt = (reduce(operator.mul, fv[_prime_powers(k, power, rest)], unit)
                   for k in composite.tolist())
    first = _first_far(fv, composite, rebuilt, scalar, tol)
    if first is None:
        return True, None
    whole = int(composite[first])
    low = _prime_powers(whole, power, rest)[0]
    return False, (low, whole // low)


def lehmer_identity_check(
    alpha: Sequence,
    beta: Sequence,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Verify (nu0 * alpha)(m) (nu0 * beta)(m) = (nu0 * (alpha [] beta))(m)
    pointwise.

    alpha and beta are scalar tables of equal length; returns a report dict
    whose "max_residual" is the worst residual, within tol or not.
    """
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must share n_max")
    n_max = len(alpha)
    if n_max < 1:
        raise ValueError("lehmer_identity_check needs tables of length >= 1")
    ones = [1] * n_max
    lhs = [a * b for a, b in zip(scalar_dirichlet(ones, alpha), scalar_dirichlet(ones, beta))]
    rhs = scalar_dirichlet(ones, scalar_lcm(alpha, beta))
    residuals = [abs(x - y) for x, y in zip(lhs, rhs)]
    failures = [
        {"m": m, "lhs": lhs[m - 1], "rhs": rhs[m - 1]}
        for m in range(1, n_max + 1)
        if not residuals[m - 1] <= tol  # a NaN residual or tolerance fails
    ]
    return {
        "identity": "(nu0*alpha)(nu0*beta) = nu0*(alpha lcm-prod beta)",
        "n_max": n_max,
        "scalar_failures": failures,
        "max_residual": max(residuals, default=0),
        "pass": not failures,
    }
