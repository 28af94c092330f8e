"""Reference forms the tests compare the package against, kept out of the
package because nothing in it calls them:

- ``element_to_json`` and ``element_from_json`` parse the text of
  ``algebra.element_text`` back into an element, rejecting malformed input;
- ``product_law`` is the per-case CRT law, P_k(n) P_l(m) built as
  diagonals, the oracle of ``idempotents.product_law_residual``;
- ``is_multiplicative_loop`` is the per-pair, per-``factorize`` form of
  ``convolution.is_multiplicative``, its oracle;
- ``dirichlet_inverse_objects`` is ``convolution.dirichlet_inverse`` with
  its whole recursion on object arrays, the oracle of the int64 ranges;
- ``shift_operators`` builds the dense shift, backward-shift, integration
  and Euler matrices, the oracle of the dense theta and IU* exports;
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
from idemarith.arith import crt_solve, factorize
from idemarith.convolution import (AlgFunction, InverseCheckError, _blocks, _index, _objects,
                                   _product)
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


def is_multiplicative_loop(f, tol: float = DEFAULT_TOL):
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
