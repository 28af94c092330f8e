"""idemarith: algebra-valued arithmetic functions, idempotent systems,
operator-valued Ramanujan sums, and a truncated diagonal-operator model of
the Euler operator, verified at desk scale against brute-force oracles.
"""

from .algebra import (
    DenseMatrix,
    DiagonalOperator,
    NonInvertibleError,
    Scalar,
    ShapeMismatchError,
    invert,
    is_idempotent,
    operator_norm,
)
from .arith import (
    EvenFunction,
    RFCoefficients,
    divisors,
    factorize,
    jordan_totient,
    lcm_tuple_count,
    mobius,
    ramanujan_sum,
    rf_transform,
    totient,
)
from .convolution import (
    AlgFunction,
    dirichlet_convolve,
    dirichlet_identity,
    dirichlet_inverse,
    is_multiplicative,
    lcm_convolve,
    unitary_convolve,
)
from .idempotents import IdempotentSystem, verify_axioms
from .ramanujan_ops import OperatorFamily
from .suites import SUITES, run_suite

__version__ = "0.1.0"
