"""Operator-valued Ramanujan sums C_j(n), the divisor-partition idempotents
T_{r,j}(n), and the identities connecting them, decided for all levels at once.

For r | n, the entry at e_m of T_{r,j}(n), P_j(r) and C_j(r) depends only
on the class g = gcd(m - j, n): it is [g = n/r], [r | g] and c_r(g), the
same map for every window and every j, so each identity of level n is
decided on its classes, in exact integers.  ``level_table(L)`` lists the
classes g | n of every level n <= L from the Dirichlet term index of
``convolution``, with mu(n/g) and Hoelder's c_n(g) = mu(n/g) phi(n)/phi(n/g),
and ``class_table(levels)`` with the divisor formula's c_n(g): mu, phi, tau and
the prime powers of each n come off ``arith.number_table``.  A level identity
is one array pass of segmented sums over a prefix of one, giving its residual
at every level n <= n_max: ``scalar_residuals``,
``operator_residuals``, ``transform_residuals`` and ``orthogonality_residuals``;
``family_residuals`` takes the class pairs of every coprime split nm <= n_max, and
``rf_residuals`` and ``even_residuals`` even functions, one matrix per modulus.
Sums of powers of eps_n are taken in F_q, through the ring map eps_n -> omega of
order n (``_roots_mod``): ``root_sums`` sums every level's units in one gather
for two passes, and ``root_sum_residual`` one level's over a window.  The tests
keep each pass's per-level, per-split or per-sample form as its oracle.
``OperatorFamily(dim, offset)`` builds S(n) (in floats), C_j(n) and
T_{r,j}(n) on an ``IdempotentSystem`` window.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from typing import NamedTuple

import numpy as np

from .algebra import DiagonalOperator
from .arith import divisors, factorize, number_table, ramanujan_sum
from .convolution import _blocks, _index, _spread, _worst_first
from .idempotents import IdempotentSystem

__all__ = ["LevelTable", "OperatorFamily", "class_table", "even_residuals", "family_residuals",
           "level_table", "operator_residuals", "orthogonality_residuals", "rf_residuals",
           "root_sum_residual", "root_sums", "scalar_residuals", "transform_residuals"]


class LevelTable(NamedTuple):
    """The classes g | n of every level n <= L, by n, then g: level n's are
    starts[n - 1]:starts[n], each with its n, g, mu(n/g) and c_n(g)."""

    starts: np.ndarray
    n: np.ndarray
    g: np.ndarray
    mu: np.ndarray
    c: np.ndarray

    def at(self, n, g) -> np.ndarray:
        """The entries of the classes g | n."""
        stride = len(self.starts)  # L + 1, above every class
        return np.searchsorted(self.n * stride + self.g, n * stride + g)

    def classes(self, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, k, e), e the entry of the class gcd(k, n), for each k = 1..n of
        each level n <= n_max; level n's run starts at (n - 1) n / 2."""
        n, k, _ = _spread(np.arange(1, n_max + 1))
        return n + 1, k + 1, self.at(n + 1, np.gcd(k + 1, n + 1))


def level_table(n_max: int) -> LevelTable:
    """The ``LevelTable`` of the levels 1..n_max: the Dirichlet terms (g, n/g)
    of n are its classes, and c_n(g) = mu(n/g) phi(n)/phi(n/g) (Hoelder)."""
    if n_max < 1:
        raise ValueError("level n must be positive")
    left, right, starts = _index("dirichlet", n_max)
    numbers = number_table(n_max)
    mu, phi = numbers.mu, numbers.phi
    n, cofactor = np.repeat(np.arange(1, n_max + 1), np.diff(starts)), right + 1
    return LevelTable(starts.astype(np.int64), n, left.astype(np.int64) + 1, mu[cofactor],
                      mu[cofactor] * phi[n] // phi[cofactor])


def class_table(levels: LevelTable) -> LevelTable:
    """``levels`` with c_n(g) by the divisor formula sum_{e|g} e mu(n/e), one term
    per divisor e of g: the classes of level g, mu off the number table."""
    starts, mu = levels.starts, number_table(len(levels.starts) - 1).mu
    entry, k, first = _spread(np.diff(starts)[levels.g - 1])
    e = levels.g[starts[levels.g[entry] - 1] + k]
    return levels._replace(c=np.add.reduceat(e * mu[levels.n[entry] // e], first))


@lru_cache(maxsize=64)
def _roots_mod(n: int) -> tuple[int, np.ndarray]:
    """(q, w): q the least prime above 2n with q = 1 (mod n), and the read-only
    int64 w[e] = omega^e mod q, e < n, omega of order exactly n in F_q."""
    if n < 1:
        raise ValueError("level n must be positive")
    q = 2 * n + 1
    while factorize(q) != ((q, 1),):
        q += n
    omega = next(w for w in (pow(g, (q - 1) // n, q) for g in range(2, q))
                 if all(pow(w, n // p, q) != 1 for p, _ in factorize(n)))
    size, powers = min(n, 64), np.empty(n, dtype=np.int64)
    powers[:size] = list(accumulate(repeat(omega, size - 1), lambda x, w: x * w % q, initial=1))
    while size < n:  # the powers below size, times omega^size; q^2 < 2^63
        powers[size:2 * size] = powers[:min(size, n - size)] * pow(omega, size, q) % q
        size *= 2
    powers.flags.writeable = False
    return q, powers


def _fq(sums: np.ndarray, q, values) -> np.ndarray:
    """|sums - values| as symmetric residues mod q."""
    diff = (sums - values) % q
    return np.minimum(diff, q - diff)


def root_sum_residual(ks, x: np.ndarray, n: int, value) -> int:
    """max over x of |sum over k in ks of omega^{kx} - value| as a symmetric
    residue mod q, (q, omega) from ``_roots_mod(n)``.  Over an orbit of units
    mod n, or all k < n, the sum of eps_n^{kx} is an integer of size <= n < q/2,
    so against an integer value of size <= n the residual is 0 iff they agree."""
    q, powers = _roots_mod(n)
    return int(_fq(powers[np.array(ks, dtype=np.int64)[:, None] * x % n].sum(axis=0), q,
                   value).max())


def root_sums(levels: LevelTable) -> tuple[np.ndarray, np.ndarray]:
    """(s, q) at each entry (n, g): s = sum over the units k mod n of omega^{kg} in
    F_q, (q, omega) from ``_roots_mod(n)``, one gather per 2^16 terms k < n.  x -> ux,
    u a unit, permutes the units, so x = g decides every x of class g."""
    roots = [_roots_mod(n) for n in range(1, len(levels.starts))]
    level, k, first = _spread(np.arange(1, len(levels.starts)))  # k < n, level n from first
    unit, powers = np.gcd(k, level + 1) == 1, np.concatenate([w for _, w in roots])
    sums = np.empty(len(levels.n), dtype=np.int64)
    for lo, hi in _blocks(np.concatenate(([0], np.cumsum(levels.n))), 0, len(levels.n), 2**16):
        entry, k, runs = _spread(levels.n[lo:hi])
        n, g = levels.n[lo + entry], levels.g[lo + entry]
        at = first[n - 1]
        sums[lo:hi] = np.add.reduceat(np.where(unit[at + k], powers[at + k * g % n], 0), runs)
    q = np.array([q for q, _ in roots])[levels.n - 1]
    return sums % q, q


def scalar_residuals(levels: LevelTable, sums: tuple, table: LevelTable, n_max: int) -> np.ndarray:
    """Per level n <= n_max, the worst disagreement at its classes g of c_n(g)
    three ways, pairwise: the levels' (Hoelder's; mu(n) at g = 1, phi(n) at
    g = n), the divisor formula's (``table``, a ``class_table``) and the ``root_sums``."""
    top = levels.starts[n_max]
    s, q, c, divisor = sums[0][:top], sums[1][:top], levels.c[:top], table.c[:top]
    return np.maximum.reduceat(np.maximum.reduce([_fq(s, q, divisor), abs(c - divisor),
                                                  _fq(s, q, c)]), levels.starts[:n_max])


# The pairs (class (n, g), r | n), n <= n_max, in table order, then r: entry i's run
# from first[i] to last[i] (r = n).  At g: t = [g = n/r] of T_{r,j}(n), p = [r | g] of
# P_j(r) and cr = c_r(g) of C_j(r); and r, w = c_n(n/r), mu_r = mu(r), mu_nr = mu(n/r).
_Pairs = namedtuple("_Pairs", "first last r w mu_r mu_nr t p cr")


def _class_pairs(levels: LevelTable, n_max: int) -> _Pairs:
    entry, j, first = _spread(np.diff(levels.starts)[levels.n[:levels.starts[n_max]] - 1])
    n, g = levels.n[entry], levels.g[entry]
    at, mirror = levels.starts[n - 1] + j, levels.starts[n] - 1 - j  # (n, r) and (n, n/r)
    r = levels.g[at]
    return _Pairs(first, np.append(first[1:], len(entry)) - 1, r, levels.c[mirror],
                  levels.mu[mirror], levels.mu[at], (r * g == n).astype(np.int64),
                  (g % r == 0).astype(np.int64), levels.c[levels.at(r, np.gcd(r, g))])


def _prime_products(n: np.ndarray, g: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """At each class (n, g): n/rad(n) prod_{p^a||n} (p [p^a | g] - [p^(a-1) | g]) and
    prod_{p|n} (1 - [p | g]), one factor per p^a || n, walked off the number table."""
    numbers, m = number_table(n_max), n
    c, t, rad = np.ones((3, len(n)), dtype=np.int64)
    while (m > 1).any():
        p, hi = numbers.prime[m], numbers.power[m]  # 1 and 1 once m is 1
        c *= np.where(m > 1, p * (g % hi == 0) - (g % (hi // p) == 0), 1)
        t *= np.where(m > 1, 1 - (g % p == 0), 1)
        rad, m = rad * p, numbers.rest[m]
    return c * (n // rad), t


def operator_residuals(levels: LevelTable, sums: tuple, n_max: int) -> np.ndarray:
    """Per level n <= n_max, the worst residual at its classes of three
    constructions of C_j(n), any j, against c_n(g): sum over gcd(k, n) = 1 of
    eps_n^{-jk} S^k(n) (in F_q), (mu * nu1 P_j)(n) = sum_{r|n} r mu(n/r) P_j(r)
    and n/rad(n) prod_{p^a||n} (p P_j(p^a) - P_j(p^{a-1})); of
    T_{n,j}(n) = sum_{r|n} mu(r) P_j(r) = prod_{p|n} (e - P_j(p)); and of the
    T_{r,j}(n) being tau(n) orthogonal idempotents summing to e: 0/1 entries,
    one 1 per class, and the member count's difference from tau(n)."""
    pairs, top = _class_pairs(levels, n_max), levels.starts[n_max]
    c, t_top, runs = levels.c[:top], pairs.t[pairs.last], pairs.first
    prime_c, prime_t = _prime_products(levels.n[:top], levels.g[:top], n_max)
    residual = np.maximum.reduce([
        _fq(sums[0][:top], sums[1][:top], c), abs(prime_c - c), abs(prime_t - t_top),
        abs(np.add.reduceat(pairs.r * pairs.mu_nr * pairs.p, runs) - c),
        abs(np.add.reduceat(pairs.mu_r * pairs.p, runs) - t_top),
        abs(np.add.reduceat(pairs.t, runs) - 1),
        np.maximum.reduceat(abs(pairs.t**2 - pairs.t), runs)])
    members = np.diff(levels.starts[:n_max + 1]) - number_table(n_max).tau[1:]
    return np.maximum(np.maximum.reduceat(residual, levels.starts[:n_max]), abs(members))


def transform_residuals(levels: LevelTable, n_max: int) -> np.ndarray:
    """Per level n <= n_max, the worst residual at its classes of
    C_j(n) = sum_{r|n} c_n(n/r) T_{r,j}(n) and n T_{n,j}(n) = sum_{r|n} c_n(n/r) C_j(r)."""
    pairs, top = _class_pairs(levels, n_max), levels.starts[n_max]
    forward, backward = (np.add.reduceat(pairs.w * x, pairs.first) for x in (pairs.t, pairs.cr))
    residual = np.maximum(abs(forward - levels.c[:top]),
                          abs(backward - levels.n[:top] * pairs.t[pairs.last]))
    return np.maximum.reduceat(residual, levels.starts[:n_max])


def orthogonality_residuals(levels: LevelTable, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per level n <= n_max, the worst |sum_{r|n} c_n(n/r) c_r(l) - n [gcd(l, n) = 1]|
    over l = 1..n, and its first l.  For r | n, c_r(l) = c_r(g) with g = gcd(l, n),
    so the sum is taken once per class g, whose first l is g."""
    pairs, top = _class_pairs(levels, n_max), levels.starts[n_max]
    n, g = levels.n[:top], levels.g[:top]
    return _worst_first(abs(np.add.reduceat(pairs.w * pairs.cr, pairs.first) - n * (g == 1)), g,
                        levels.starts[:n_max])


def family_residuals(classes: LevelTable, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, m, residuals) per split nm <= n_max of the unitary index, 2 <= n < m, and
    1 = 1 * 1: rows P, C, T of residuals hold the worst |f_nm(G) - f_n(gcd(G, n)) f_m(gcd(G, m))|
    over the classes G | nm of f_n(g) = [g = n], c_n(g) off ``classes`` and [g = 1], the
    entries of P_j(n), C_j(n) and T_{n,j}(n) at their class g.  Every basis index meets
    one class G, so a family is multiplicative for every j and window iff its row is 0."""
    left, right, _ = _index("unitary", n_max)
    keep = (0 < left) & (left < right) | (left + right == 0)
    n, m = left[keep] + 1, right[keep] + 1
    split, k, first = _spread(np.diff(classes.starts)[n * m - 1])
    x, y = n[split], m[split]
    g = classes.g[classes.starts[x * y - 1] + k]

    def entries(level, g):
        return np.array([g == level, classes.c[classes.at(level, g)], g == 1], dtype=np.int64)

    residual = abs(entries(x * y, g) - entries(x, np.gcd(g, x)) * entries(y, np.gcd(g, y)))
    return n, m, np.maximum.reduceat(residual, first, axis=1)


def _by_modulus(classes: LevelTable, alphas: list):
    """(samples, d, a, c, phi) per modulus d of alphas: row s of a is alpha(g), g | d
    ascending, of its s-th sample, c[r, g] = c_r(gcd(r, g)) off classes, phi(r), r | d."""
    for d in dict.fromkeys(alpha.modulus for alpha in alphas):
        at = [s for s, alpha in enumerate(alphas) if alpha.modulus == d]
        divs = classes.g[classes.starts[d - 1]:classes.starts[d]]
        c = classes.c[classes.at(divs[:, None], np.gcd(divs[:, None], divs))]
        a = np.array([[alphas[s].values[g] for g in divs.tolist()] for s in at], dtype=np.int64)
        yield at, d, a, c, number_table(d).phi[divs].tolist()


def _transforms(a: np.ndarray, c: np.ndarray, phi: list) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a: R(alpha)(r) = sum_{delta|d} alpha(d/delta) c_delta(d/r), r | d, and
    the orthogonal numerators sum_{g|d} phi(d/g) alpha(g) c_r(g) = d phi(r) a(r)."""
    return (a[:, ::-1] @ c)[:, ::-1], (a * phi[::-1]) @ c.T


def _worst_quotients(x: np.ndarray, phi: list) -> list:
    """Per row of |x|, its largest |x| / phi as a Fraction, or 0 when the row is 0."""
    return [max(map(Fraction, row, phi)) if any(row) else 0 for row in abs(x).tolist()]


def rf_residuals(classes: LevelTable, alphas: list) -> list:
    """Per integer-valued even function in alphas, moduli within classes, the worst
    |R(alpha)(r) - d a(r)|, r | d, and |sum_{r|d} R(alpha)(r) c_r(g) - d alpha(g)|, g | d:
    R(alpha), the numerators and the reconstruction are one matrix product each."""
    residuals = [0] * len(alphas)
    for at, d, a, c, phi in _by_modulus(classes, alphas):
        coeffs, numerators = _transforms(a, c, phi)
        rebuilt = abs(coeffs @ c - d * a).max(axis=1).tolist()
        for s, off, miss in zip(at, _worst_quotients(coeffs * phi - numerators, phi), rebuilt):
            residuals[s] = max(off, miss)
    return residuals


def even_residuals(classes: LevelTable, alphas: list) -> list:
    """Per even function in alphas, as ``rf_residuals`` takes them, the worst residual of
    sum_{r|d} alpha(d/r) C_j(r) = sum_{r|d} R(alpha)(r) T_{r,j}(d) at the classes g | d,
    R(alpha)(d/g) taken as d a(d/g): the double sum is the left side again, term by term."""
    residuals = [0] * len(alphas)
    for at, _, a, c, phi in _by_modulus(classes, alphas):
        left, right = a[:, ::-1] @ c, _transforms(a, c, phi)[1][:, ::-1]  # d phi(d/g) a(d/g)
        for s, off in zip(at, _worst_quotients(left * phi[::-1] - right, phi[::-1])):
            residuals[s] = off
    return residuals


def _ramanujan_classes(n: int, g: np.ndarray) -> np.ndarray:
    """The int64 c_n(g) at each class g | n in g: one ``ramanujan_sum`` per divisor of n."""
    divs = divisors(n)
    return np.array([ramanujan_sum(n, d) for d in divs], dtype=np.int64)[np.searchsorted(divs, g)]


class OperatorFamily(IdempotentSystem):
    """S(n), C_j(n) and T_{r,j}(n) on an idempotent system's window, with its P_j(n)."""

    def s_operator(self, n: int) -> DiagonalOperator:
        """Root-of-unity diagonal S(n) e_m = eps_n^m e_m; S(n)^n = e.  The phase
        is a real float64 before it meets 1j, as in ``cmath.exp(2j * math.pi * x / n)``;
        dividing the complex 2j * pi * x by n in numpy rounds differently."""
        return DiagonalOperator.periodic(lambda r: np.exp(1j * (2 * np.pi * r / n)),
                                         n, 0, self.dim, self.offset)

    def c_operator(self, j: int, n: int) -> DiagonalOperator:
        """C_j(n) on the exact path: entry at basis index m is c_n(m - j)."""
        return DiagonalOperator.periodic(lambda k: _ramanujan_classes(n, np.gcd(k, n)),
                                         n, j, self.dim, self.offset)

    def t_operator(self, r: int, j: int, n: int) -> DiagonalOperator:
        """T_{r,j}(n): the 0/1 diagonal selecting basis indices m with
        gcd(m - j, n) = n/r; requires n >= 1 and a divisor r >= 1 of n.
        """
        if n < 1 or r < 1:
            raise ValueError(f"t_operator requires r, n >= 1, got r={r}, n={n}")
        if n % r != 0:
            raise ValueError(f"t_operator requires r | n, got r={r}, n={n}")
        target = n // r
        return DiagonalOperator.periodic(lambda k: np.gcd(k, n) == target,
                                         n, j, self.dim, self.offset)
