"""Reference forms the tests compare the package against, kept out of the
package because nothing in it calls them:

- ``element_to_json`` and ``element_from_json`` parse the text of
  ``algebra.element_text`` back into an element, rejecting malformed input;
- ``crt_solve`` is the CRT by extended Euclid, one (k, l) at a time, the
  oracle of ``idempotents._crt_grid``;
- ``product_law`` is the per-case CRT law, P_k(n) P_l(m) built as
  diagonals, the oracle of ``idempotents.product_law_residuals``;
- ``convolve_elements`` is the per-element path of the three products,
  the oracle of their stack path on int64 diagonals;
- ``is_multiplicative_loop`` is the definition of multiplicativity, one
  coprime pair and factor order at a time, the oracle of
  ``convolution.is_multiplicative``;
- ``ramanujan_orthogonality`` is sum_{r|n} c_n(n/r) c_r(l) at one l, the
  oracle of ``ramanujan_ops.orthogonality_residual``, which sums per class;
- ``dirichlet_inverse_objects`` is ``convolution.dirichlet_inverse`` with
  its whole recursion on object arrays, the oracle of the int64 ranges;
- ``shift_operators`` builds the dense shift, backward-shift, integration
  and Euler matrices, the oracle of the dense theta and IU* exports;
- ``iu_star_fractions`` builds P(mu * nu_k) from tables of Fractions and
  compares it with ``iu_star``, the oracle of
  ``analytic.iu_star_representation``, which decides it in int64;
- ``s_power_sum`` is sum over k in ks of eps_n^{-jk} S(n)^k from powers of
  ``s_operator(n)`` in complex floats, the oracle of the exact F_q sums of
  ``ramanujan_ops.root_sum_residual``.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from idemarith.algebra import (DEFAULT_TOL, DenseMatrix, DiagonalOperator, Scalar, _store,
                               element_text, invert, is_idempotent)
from idemarith.analytic import iu_star, p_operator
from idemarith.arith import divisors, mobius, nu, ramanujan_sum
from idemarith.convolution import (AlgFunction, InverseCheckError, _blocks, _index,
                                   _product, scalar_dirichlet, scalar_table)
from idemarith.idempotents import IdempotentSystem


def element_to_json(x) -> dict:
    """The JSON object of ``element_text(x)``."""
    return json.loads(element_text(x))


def _json_int(data: dict, key: str, low: int, high: float = float("inf")) -> int:
    value = data.get(key)
    if type(value) is not int or not low <= value <= high:  # type() rejects bool and float
        raise ValueError(f"{key} must be an integer in [{low}, {high}], got {value!r}")
    return value


def _json_entries(data: dict, count: int) -> list[complex]:
    entries = data.get("entries")
    if not isinstance(entries, list) or len(entries) != count:
        raise ValueError(f"entries must be a list of {count} [re, im] pairs")
    for pair in entries:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(type(v) in (int, float) for v in pair)):
            raise ValueError(f"entry {pair!r} is not an [re, im] pair of numbers")
    return [complex(re, im) for re, im in entries]


def element_from_json(data: dict):
    """Inverse of element_to_json; raises ValueError on malformed input."""
    if not isinstance(data, dict):
        raise ValueError(f"element must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in ("diag", "dense"):
        raise ValueError(f"unknown element kind {kind!r}")
    n = _json_int(data, "n", 1)
    if kind == "diag":
        return DiagonalOperator(_json_entries(data, n), _json_int(data, "offset", 0, 1))
    return DenseMatrix(np.array(_json_entries(data, n * n)).reshape(n, n))


def convolve_elements(kind: str, f: AlgFunction, g: AlgFunction) -> AlgFunction:
    """The product ``kind`` ("dirichlet", "lcm" or "unitary") of f and g element
    by element: each term one element product, each n's terms added in index
    order, then to zero, so each int64 diagonal's bound is the sum of its
    terms' bounds."""
    return AlgFunction(_product(kind, f.values, g.values, f.values[0].zero()))


def ramanujan_orthogonality(n: int, l: int) -> int:
    """sum_{r|n} c_n(n/r) c_r(l): equals n when gcd(l, n) = 1, else 0."""
    return sum(ramanujan_sum(n, n // r) * ramanujan_sum(r, l) for r in divisors(n))


def is_multiplicative_loop(f, tol: float = DEFAULT_TOL):
    """Check the definition f(nm) = f(n) f(m) = f(m) f(n) on coprime pairs
    with nm <= n_max: every pair 2 <= n < m in order, then the reversed
    products, each failure reported as (left factor, right factor).

    Returns (verdict, first counterexample (n, m) or None).
    """
    n_max = f.n_max
    if not is_idempotent(f(1), tol):  # f(1) = f(1)f(1) is the (1, 1) case
        return False, (1, 1)
    pairs = [(n, m) for n in range(2, n_max + 1) for m in range(n + 1, n_max // n + 1)
             if math.gcd(n, m) == 1]
    for n, m in pairs + [(m, n) for n, m in pairs]:
        if not f(n * m).isclose(f(n) * f(m), tol):
            return False, (n, m)
    return True, None


def dirichlet_inverse_objects(f: AlgFunction, tol: float = DEFAULT_TOL) -> AlgFunction:
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
    fv = _store(values).values.astype(object)
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


def crt_solve(k: int, n: int, l: int, m: int) -> int | None:
    """The unique j in [0, lcm(n, m)) with j = k (mod n) and j = l (mod m),
    or None when gcd(n, m) does not divide l - k.
    """
    if n < 1 or m < 1:
        raise ValueError("crt_solve requires positive moduli")
    g = math.gcd(n, m)
    if (l - k) % g != 0:
        return None
    lcm = n * m // g
    t = ((l - k) // g) * pow(n // g, -1, m // g) % (m // g)
    return (k + n * t) % lcm


def product_law(system: IdempotentSystem, k: int, n: int, l: int,
                m: int) -> tuple[DiagonalOperator, dict]:
    """P_k(n) P_l(m): returns the multiplied diagonal together with the
    symbolic verdict (zero, or P_j(lcm(n, m)) with j from the CRT) and its
    residual against the product, 0 when the law holds.
    """
    product = system.projection(k, n) * system.projection(l, m)
    j = crt_solve(k, n, l, m)
    lcm = math.lcm(n, m)
    if j is None:
        verdict = {"kind": "zero"}
        predicted = product.zero()
    else:
        verdict = {"kind": "projection", "j": j, "level": lcm}
        predicted = system.projection(j, lcm)
    verdict["residual"] = product.distance(predicted)
    return product, verdict


def shift_operators(space: IdempotentSystem) -> dict[str, DenseMatrix]:
    """Matrix actions on the monomial window: the shift U (e_m -> e_{m+1},
    top dropped), backward shift U* (e_m -> e_{m-1}, bottom killed),
    integration (e_m -> e_{m+1}/(m+1), top dropped), and the Euler
    diagonal theta (e_m -> m e_m).
    """
    n = space.dim
    u = np.zeros((n, n), dtype=complex)
    u_star = np.zeros((n, n), dtype=complex)
    integ = np.zeros((n, n), dtype=complex)
    theta = np.zeros((n, n), dtype=complex)
    for i, m in enumerate(range(space.offset, space.offset + n)):
        theta[i, i] = m
        if i + 1 < n:
            u[i + 1, i] = 1
            integ[i + 1, i] = 1 / (m + 1)
        if i - 1 >= 0:
            u_star[i - 1, i] = 1
    return {
        "U": DenseMatrix(u),
        "U_star": DenseMatrix(u_star),
        "integration": DenseMatrix(integ),
        "theta": DenseMatrix(theta),
    }


def iu_star_fractions(n_dim: int) -> dict:
    """Whether P(mu * nu_{-1}) and P(mu * nu_1) equal ``iu_star`` on e_2..e_N,
    each P built from the Dirichlet product of the tables of mu and nu_k."""
    target = iu_star(n_dim).entries[1:]
    mu_t = scalar_table(mobius, n_dim)
    return {
        name: p_operator(scalar_dirichlet(mu_t, scalar_table(lambda n: nu(k, n), n_dim))
                         ).entries[1:] == target
        for name, k in (("mu*nu_minus1", -1), ("mu*nu_1", 1))
    }


def s_power_sum(fam, j: int, n: int, ks) -> DiagonalOperator:
    """sum over k in ks of eps_n^{-jk} S(n)^k on fam's window, S(n) =
    ``fam.s_operator(n)`` raised to each k by repeated products."""
    s = fam.s_operator(n)
    total, power = s.zero(), fam.unit()
    for k in range(max(ks, default=-1) + 1):
        if k in ks:
            total = total + power.scale(cmath.exp(-2j * math.pi * j * k / n))
        power = power * s
    return total
