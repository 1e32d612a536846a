"""Arithmetic in R_q = Z_q[X]/(X^n + 1) for n = 512, q = 3,168,257.

Negacyclic multiplication runs through a length-512 NTT; sampling and
hash-to-polynomial are deterministic SHAKE256 expansions. Every function
here is pure and Polynomial values are immutable, so unrestricted
concurrent use is safe.
"""

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import (
    CHALLENGE_WEIGHT,
    DOMAIN_HASH_TO_POLY,
    DOMAIN_MATRIX,
    N,
    Q,
    SECRET_BOUND,
)


@dataclass(frozen=True)
class Polynomial:
    """Element of R_q: exactly n coefficients, each reduced mod q."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != N:
            raise ValueError(f"polynomial needs {N} coefficients, got {len(self.coeffs)}")
        if min(self.coeffs) < 0 or max(self.coeffs) >= Q:
            bad = next(c for c in self.coeffs if not 0 <= c < Q)
            raise ValueError(f"coefficient {bad} out of range [0, {Q})")


@dataclass(frozen=True)
class PublicMatrix:
    """Public ring element A expanded deterministically from a 32-byte seed."""

    a: Polynomial


def zero() -> Polynomial:
    """The zero polynomial."""
    return Polynomial(coeffs=(0,) * N)


def monomial(coeff: int, degree: int) -> Polynomial:
    """c * X^degree."""
    if not 0 <= degree < N:
        raise ValueError(f"degree {degree} out of range")
    c = [0] * N
    c[degree] = coeff % Q
    return Polynomial(coeffs=tuple(c))


def from_centered(values) -> Polynomial:
    """Build a polynomial from centered integer coefficients."""
    return Polynomial(coeffs=tuple(v % Q for v in values))


def infinity_norm(p: Polynomial) -> int:
    """Centered infinity norm max |c_i|."""
    half = Q // 2
    return max((Q - c if c > half else c) for c in p.coeffs)


#   NTT tables. psi is a primitive 2n-th root of unity mod q, found by a
#   deterministic search over generator candidates 3, 5, 7, ... so that the
#   tables (and every test vector) are stable across builds.

def _find_psi() -> int:
    e = (Q - 1) // (2 * N)
    g = 3
    while True:
        y = pow(g, e, Q)
        if pow(y, N, Q) == Q - 1:
            return y
        g += 2


def _bitrev(x: int, bits: int) -> int:
    y = 0
    for i in range(bits):
        y |= ((x >> i) & 1) << (bits - 1 - i)
    return y


_LOGN = N.bit_length() - 1
PSI = _find_psi()
_W = np.array([pow(PSI, _bitrev(i, _LOGN), Q) for i in range(N)], dtype=np.int64)
_W.flags.writeable = False
_N_INV = pow(N, Q - 2, Q)


def ntt_forward(p: Polynomial) -> np.ndarray:
    """Forward negacyclic NTT; returns a fresh int64 array of length n."""
    f = np.array(p.coeffs, dtype=np.int64)
    l = N // 2
    wi = 1
    while l > 0:
        nb = N // (2 * l)
        z = _W[wi:wi + nb]
        wi += nb
        fv = f.reshape(nb, 2, l)
        x = fv[:, 0, :].copy()
        y = (fv[:, 1, :] * z[:, None]) % Q
        fv[:, 0, :] = (x + y) % Q
        fv[:, 1, :] = (x - y) % Q
        l >>= 1
    return f


def ntt_inverse(f: np.ndarray) -> Polynomial:
    """Inverse negacyclic NTT of a length-n int64 array."""
    g = np.array(f, dtype=np.int64)
    l = 1
    wi = N
    while l < N:
        nb = N // (2 * l)
        z = _W[wi - nb:wi][::-1]
        wi -= nb
        gv = g.reshape(nb, 2, l)
        x = gv[:, 0, :].copy()
        y = gv[:, 1, :].copy()
        gv[:, 0, :] = (x + y) % Q
        gv[:, 1, :] = (z[:, None] * (y - x)) % Q
        l <<= 1
    g = (g * _N_INV) % Q
    return Polynomial(coeffs=tuple(int(v) for v in g))


@lru_cache(maxsize=4096)
def ntt_cached(p: Polynomial) -> np.ndarray:
    """Memoized forward NTT; the returned array is read-only."""
    f = ntt_forward(p)
    f.flags.writeable = False
    return f


def add(p: Polynomial, r: Polynomial) -> Polynomial:
    """Coefficient-wise sum mod q."""
    a = np.array(p.coeffs, dtype=np.int64)
    b = np.array(r.coeffs, dtype=np.int64)
    s = (a + b) % Q
    return Polynomial(coeffs=tuple(int(v) for v in s))


def scalar_mul(c: int, p: Polynomial) -> Polynomial:
    """Scalar-by-polynomial product mod q."""
    a = np.array(p.coeffs, dtype=np.int64)
    s = (a * (c % Q)) % Q
    return Polynomial(coeffs=tuple(int(v) for v in s))


def mul(p: Polynomial, r: Polynomial) -> Polynomial:
    """Negacyclic product in Z_q[X]/(X^n + 1)."""
    ft = ntt_forward(p)
    gt = ntt_forward(r)
    return ntt_inverse((ft * gt) % Q)


#   Deterministic SHAKE256 expansions.

def _xof(data: bytes, length: int) -> bytes:
    return hashlib.shake_256(data).digest(length)


@lru_cache(maxsize=512)
def expand_matrix(seed: bytes) -> PublicMatrix:
    """Expand the public element A from a 32-byte seed.

    Coefficients come from 4-byte little-endian words of the XOF stream,
    rejection-sampled against the largest multiple of q below 2^32.
    """
    if len(seed) != 32:
        raise ValueError("matrix seed must be 32 bytes")
    limit = (1 << 32) // Q * Q
    data = DOMAIN_MATRIX + seed
    length = 4 * N + 256
    coeffs = []
    pos = 0
    buf = _xof(data, length)
    while len(coeffs) < N:
        if pos + 4 > len(buf):
            length *= 2
            buf = _xof(data, length)
        word = int.from_bytes(buf[pos:pos + 4], "little")
        pos += 4
        if word < limit:
            coeffs.append(word % Q)
    return PublicMatrix(a=Polynomial(coeffs=tuple(coeffs)))


#   Inverse-CDF table for the centered discrete Gaussian with parameter
#   sigma = 2/sqrt(2*pi), tail-cut at |x| <= 4. Thresholds are CDF values
#   scaled to 2^64 and frozen as integers so sampling is bit-identical on
#   every platform. Support is x = -4..4; discrete variance 0.636508.
_GAUSS_SUPPORT = tuple(range(-SECRET_BOUND, SECRET_BOUND + 1))
_GAUSS_THRESHOLDS = (
    32164831727160,
    7885242684442114,
    406460509248310393,
    4611718169563505816,
    13835025904146045800,
    18040283564461241223,
    18438858831025109502,
    18446711908877824456,
    18446744073709551616,
)


def sample_secret(seed: bytes, context: bytes) -> Polynomial:
    """Sample a small-coefficient secret polynomial, deterministic per (seed, context)."""
    if len(seed) != 32:
        raise ValueError("secret seed must be 32 bytes")
    buf = _xof(context + seed, 8 * N)
    coeffs = []
    for i in range(N):
        u = int.from_bytes(buf[8 * i:8 * i + 8], "little")
        k = 0
        while u >= _GAUSS_THRESHOLDS[k]:
            k += 1
        coeffs.append(_GAUSS_SUPPORT[k] % Q)
    return Polynomial(coeffs=tuple(coeffs))


@lru_cache(maxsize=512)
def hash_to_poly(message: bytes) -> Polynomial:
    """Hash a message to a ternary polynomial with exactly 64 nonzero +-1 terms.

    Each placement attempt consumes three XOF bytes: two for the index
    (65536 is a multiple of n, so the reduction is unbiased) and one for the
    sign. Attempts landing on an occupied index are rejected.
    """
    if len(message) == 0:
        raise ValueError("message must be nonempty")
    data = DOMAIN_HASH_TO_POLY + message
    length = 3 * 2 * CHALLENGE_WEIGHT
    buf = _xof(data, length)
    coeffs = [0] * N
    placed = 0
    pos = 0
    while placed < CHALLENGE_WEIGHT:
        if pos + 3 > len(buf):
            length *= 2
            buf = _xof(data, length)
        idx = int.from_bytes(buf[pos:pos + 2], "little") % N
        sign = buf[pos + 2] & 1
        pos += 3
        if coeffs[idx] != 0:
            continue
        coeffs[idx] = Q - 1 if sign else 1
        placed += 1
    return Polynomial(coeffs=tuple(coeffs))
