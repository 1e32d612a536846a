"""Reference polynomials, the scalar product and Horner sharing, for
tests only.

The library never needs them: combine weights every share in one product,
no code builds a zero or a monomial, and threshold.share_scalar evaluates
the sharing polynomials as one matrix product. The tests use them to
state expected values plainly.
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


def horner_share(secret, rand_coeffs, xs, q: int = Q):
    """share_scalar by Horner's rule, in int64.

    f(x) = secret + sum_k rand_coeffs[k] * x^(k+1) mod q at each x, for
    ints or int64 arrays of one shape S; the result has shape
    S + (len(xs),). Each step stays below 2q * max(xs).
    """
    x = np.asarray(xs, dtype=np.int64)
    acc = np.zeros(np.shape(secret) + x.shape, dtype=np.int64)
    for c in reversed(rand_coeffs):
        acc += np.expand_dims(c, -1)
        acc *= x
        acc %= q
    acc += np.expand_dims(secret, -1)
    acc %= q
    return acc
