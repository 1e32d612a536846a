"""Reference polynomials, the scalar product, Horner sharing and the
attempt-by-attempt hash-to-polynomial loop, for tests only.

The library never needs them: combine weights every share in one product,
no code builds a zero or a monomial, threshold.share_scalar evaluates
a block of sharing polynomials as one matrix product, and
polyring.hash_to_poly decodes a read's indices in one numpy step. The
tests use them to state expected values plainly.
"""

import numpy as np

from chipmunkring import polyring
from chipmunkring.params import CHALLENGE_WEIGHT, DOMAIN_HASH_TO_POLY, N, Q
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


def hash_to_poly(message: bytes) -> Polynomial:
    """polyring.hash_to_poly one attempt at a time, reading polyring._xof."""
    if len(message) == 0:
        raise ValueError("message must be nonempty")
    data = DOMAIN_HASH_TO_POLY + message
    length = 3 * 2 * CHALLENGE_WEIGHT
    buf = polyring._xof(data, length)
    coeffs = [0] * N
    placed = 0
    pos = 0
    while placed < CHALLENGE_WEIGHT:
        if pos + 3 > len(buf):
            length *= 2
            buf = polyring._xof(data, length)
        idx = int.from_bytes(buf[pos:pos + 2], "little") % N
        sign = buf[pos + 2] & 1
        pos += 3
        if coeffs[idx] != 0:
            continue
        coeffs[idx] = Q - 1 if sign else 1
        placed += 1
    return Polynomial(coeffs=coeffs)
