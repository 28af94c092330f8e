"""Algebra-valued arithmetic functions and the three convolution products
(Dirichlet, lcm, unitary), with identity, inverse and multiplicativity
testing.

Functions are finite tables over 1..n_max so every product is exact and
brute-force checkable.  In the non-commutative case the order convention
is fixed: (f . g)(n) sums f(k) * g(l) with k the left factor.

Cost on a table of size N: the Dirichlet and unitary products visit the
sum of tau(n) divisors (24,496 at N = 3000).  The lcm product visits the
divisor pairs (k, l) of each n and keeps those with lcm(k, l) = n, the sum
of tau(n)^2 pairs (320,698 at N = 3000, against N^2 = 9 M for all pairs).
It is not computed by Lehmer's sieve mu * ((1*f)(1*g)): that is the
identity ``lehmer_identity_check`` tests, and a product built from it
would make that check, and the suite row that runs it, test the identity
against itself; its operator form on P_j(n) is checked in ``idempotents``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .algebra import DEFAULT_TOL, invert, is_idempotent
from .arith import divisors, factorize

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


class InverseCheckError(ArithmeticError):
    """The two-sided verification of a Dirichlet inverse failed."""


def scalar_table(fn: Callable[[int], object], n_max: int) -> list:
    """Tabulate a scalar arithmetic function as a list with table[i] = fn(i+1)."""
    return [fn(n) for n in range(1, n_max + 1)]


def _dirichlet(a: Sequence, b: Sequence, zero):
    n_max = len(a)
    out = []
    for n in range(1, n_max + 1):
        acc = zero
        for d in divisors(n):
            acc = acc + a[d - 1] * b[n // d - 1]
        out.append(acc)
    return out


def _lcm(a: Sequence, b: Sequence, zero):
    # For k, l | n, lcm(k, l) = n iff gcd(n/k, n/l) = 1.  Terms are added
    # k ascending, then l ascending, as in the sum over all pairs (k, l),
    # so float and matrix results equal that sum bit for bit.
    n_max = len(a)
    out = []
    for n in range(1, n_max + 1):
        acc = zero
        divs = divisors(n)
        for k in divs:
            for l in divs:
                if math.gcd(n // k, n // l) == 1:
                    acc = acc + a[k - 1] * b[l - 1]
        out.append(acc)
    return out


def _unitary(a: Sequence, b: Sequence, zero):
    n_max = len(a)
    out = []
    for n in range(1, n_max + 1):
        acc = zero
        for d in divisors(n):
            if math.gcd(d, n // d) == 1:
                acc = acc + a[d - 1] * b[n // d - 1]
        out.append(acc)
    return out


def scalar_dirichlet(a: Sequence, b: Sequence) -> list:
    """Dirichlet product of two scalar tables (1-indexed lists)."""
    return _dirichlet(a, b, 0)


def scalar_lcm(a: Sequence, b: Sequence) -> list:
    """lcm product of two scalar tables."""
    return _lcm(a, b, 0)


def scalar_unitary(a: Sequence, b: Sequence) -> list:
    """Unitary product of two scalar tables."""
    return _unitary(a, b, 0)


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


def dirichlet_convolve(f: AlgFunction, g: AlgFunction) -> AlgFunction:
    f._check(g)
    return AlgFunction(_dirichlet(f.values, g.values, f.values[0].zero()))


def lcm_convolve(f: AlgFunction, g: AlgFunction) -> AlgFunction:
    f._check(g)
    return AlgFunction(_lcm(f.values, g.values, f.values[0].zero()))


def unitary_convolve(f: AlgFunction, g: AlgFunction) -> AlgFunction:
    f._check(g)
    return AlgFunction(_unitary(f.values, g.values, f.values[0].zero()))


def dirichlet_identity(unit, n_max: int) -> AlgFunction:
    """I(1) = e, I(n) = 0 otherwise."""
    zero = unit.zero()
    return AlgFunction([unit] + [zero] * (n_max - 1))


def dirichlet_inverse(f: AlgFunction, tol: float = DEFAULT_TOL) -> AlgFunction:
    """Dirichlet inverse by the right-inverse recursion, then verified to
    be two-sided within tol (InverseCheckError otherwise; the left check
    is not a free consequence in a non-commutative algebra).
    """
    lead_inv = invert(f(1))  # raises NonInvertibleError when f(1) is singular
    g = [lead_inv]
    for n in range(2, f.n_max + 1):
        acc = f(1).zero()
        for d in divisors(n):
            if d > 1:
                acc = acc + f(d) * g[n // d - 1]
        g.append(-(lead_inv * acc))
    result = AlgFunction(g)
    ident = dirichlet_identity(f(1).unit(), f.n_max)
    for name, prod in (("f*g", dirichlet_convolve(f, result)),
                       ("g*f", dirichlet_convolve(result, f))):
        for n in range(1, f.n_max + 1):
            if not prod(n).isclose(ident(n), tol):
                raise InverseCheckError(f"{name} differs from I at n={n}")
    return result


def is_multiplicative(
    f: AlgFunction, tol: float = DEFAULT_TOL
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check f(nm) = f(n) f(m) on coprime pairs with nm <= n_max, plus the
    prime-power reconstruction f(n) = f(p1^a1) ... f(pk^ak).

    Returns (verdict, first counterexample (n, m) or None).
    """
    n_max = f.n_max
    if not is_idempotent(f(1), tol):  # f(1) = f(1)f(1) is the (1, 1) case
        return False, (1, 1)
    for n in range(2, n_max + 1):
        for m in range(n, n_max // n + 1):
            if math.gcd(n, m) == 1 and not f(n * m).isclose(f(n) * f(m), tol):
                return False, (n, m)
    for n in range(2, n_max + 1):
        fac = factorize(n)
        if len(fac) > 1:
            acc = f(1).unit()
            for p, a in fac:
                acc = acc * f(p**a)
            if not f(n).isclose(acc, tol):
                return False, (fac[0][0] ** fac[0][1], n // fac[0][0] ** fac[0][1])
    return True, None


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
