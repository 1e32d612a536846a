"""Reference polynomials and the scalar product, for tests only.

The library never needs them: combine weights every share in one product
and no code builds a zero or a monomial. The tests use them to state
expected values plainly.
"""

import numpy as np

from chipmunkring.params import N, Q
from chipmunkring.polyring import Polynomial


def zero() -> Polynomial:
    """The zero polynomial."""
    return Polynomial(coeffs=np.zeros(N, dtype=np.int64))


def monomial(coeff: int, degree: int) -> Polynomial:
    """c * X^degree."""
    if not 0 <= degree < N:
        raise ValueError(f"degree {degree} out of range")
    c = np.zeros(N, dtype=np.int64)
    c[degree] = coeff % Q
    return Polynomial(coeffs=c)


def scalar_mul(c: int, p: Polynomial) -> Polynomial:
    """Scalar-by-polynomial product mod q."""
    return Polynomial(coeffs=(p.coeffs * (c % Q)) % Q)
