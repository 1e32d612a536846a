"""Arithmetic in R_q = Z_q[X]/(X^n + 1) for n = 512, q = 3,168,257.

A Polynomial's coefficients are one read-only int64 numpy array of shape
(512,), each in [0, q); there is no other representation. The constructor
copies its input (any integer sequence or array), writing to p.coeffs
raises ValueError, and equality and hashing go by value, as the memoized
functions here and key lookups in rings need.

Negacyclic multiplication runs through a length-512 NTT. ntt_forward and
ntt_inverse each take an int64 array of shape (..., 512) with values in
[0, q) and transform every row at once, so a caller with several
polynomials stacks them and pays the nine stages' per-call overhead once;
a lone polynomial is the (512,) case. Reduction is lazy (Longa and
Naehrig, CANS 2016): a stage reduces only its twiddle product, forward
values stay below 10q < 2^26 and products below 2^48, and one final % q
restores [0, q); each kernel states its own bounds. eval_at_psi gives
one transform coefficient, the value at the root psi of X^n + 1, as a
single dot product. Sampling and hash-to-polynomial are deterministic
SHAKE256 expansions. Every function here is pure, so unrestricted
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

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.int64)  # always a fresh copy
        if c.ndim != 1 or len(c) != N:
            raise ValueError(f"polynomial needs {N} coefficients, got {len(self.coeffs)}")
        # as uint64 a negative coefficient is above q too, so one max() checks both ends
        if c.view(np.uint64).max() >= Q:
            bad = c[np.argmax((c < 0) | (c >= Q))]
            raise ValueError(f"coefficient {bad} out of range [0, {Q})")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __reduce__(self):  # pickle and deepcopy rebuild through the checks
        return Polynomial, (self.coeffs,)


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


def infinity_norm(p: Polynomial) -> int:
    """Centered infinity norm max |c_i|."""
    return int(np.minimum(p.coeffs, Q - p.coeffs).max())


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
_PSI_POWERS = np.array([pow(PSI, i, Q) for i in range(N)], dtype=np.int64)
_PSI_POWERS.flags.writeable = False
_W = _PSI_POWERS[[_bitrev(i, _LOGN) for i in range(N)]]  # psi^bitrev(i)
_W.flags.writeable = False
_N_INV = pow(N, Q - 2, Q)


def ntt_forward(a) -> np.ndarray:
    """Forward negacyclic NTT of every length-n row of a (..., n) array.

    a is an int64 array, or a nested sequence of them that np.array stacks
    in the one copy the kernel makes anyway. Coefficients must lie in
    [0, q). Returns a fresh int64 array of shape (..., n), each value in
    [0, q); a lone polynomial is the (n,) case. The input is not modified.
    """
    f = np.array(a, dtype=np.int64)
    lead = f.shape[:-1]
    # one buffer for every stage's y: a fresh one would coexist with the last
    half = np.empty(f.size // 2, dtype=np.int64)
    # Lazy reduction: only the twiddle product is reduced. A stage maps
    # values below b to x + y and x + (q - y), below b + q, so the nine
    # stages keep every value below 10q < 2^26 and every product t * z
    # below 9q * q < 2^48; int64 never overflows. One % q ends it.
    l = N // 2
    wi = 1
    while l > 0:
        nb = N // (2 * l)
        z = _W[wi:wi + nb, None]
        wi += nb
        v = f.reshape(*lead, nb, 2, l)
        x, t = v[..., 0, :], v[..., 1, :]
        y = np.multiply(t, z, out=half.reshape(*lead, nb, l))
        y %= Q
        np.subtract(x, y, out=t)
        t += Q
        x += y
        l >>= 1
    f %= Q
    return f


def ntt_inverse(a) -> np.ndarray:
    """Inverse of ntt_forward on every length-n row of a (..., n) array.

    a is taken as by ntt_forward; values must lie in [0, q). Returns a
    fresh int64 array of shape (..., n), each coefficient in [0, q). The
    input is not modified.
    """
    g = np.array(a, dtype=np.int64)
    lead = g.shape[:-1]
    half = np.empty(g.size // 2, dtype=np.int64)  # every stage's y - x, as above
    # Lazy reduction: only the twiddle product is reduced. A stage maps
    # values below b to x + y, below 2b, and to ((y - x) * z) % q, below q,
    # where |y - x| < b; so after s stages every value is below 2^s q. The
    # largest product, in the ninth stage, is below 2^8 q * q < 2^52; the
    # values end below 2^9 q, so times n^-1 < q they stay below 2^53.
    l = 1
    wi = N
    while l < N:
        nb = N // (2 * l)
        z = _W[wi - nb:wi][::-1, None]
        wi -= nb
        v = g.reshape(*lead, nb, 2, l)
        x, y = v[..., 0, :], v[..., 1, :]
        d = np.subtract(y, x, out=half.reshape(*lead, nb, l))
        x += y
        np.multiply(d, z, out=y)
        y %= Q
        l <<= 1
    g *= _N_INV
    g %= Q
    return g


def eval_at_psi(a) -> np.ndarray:
    """Value at x = psi of every length-n row of a (..., n) array.

    a is taken as by ntt_forward; the result, of shape (...), equals
    ntt_forward(a)[..., 0] with values in [0, q). Each product of a
    coefficient and a power of psi is below q^2 < 2^44 and each sum of n
    of them below n * q^2 < 2^53, so int64 never overflows.
    """
    return np.asarray(a, dtype=np.int64) @ _PSI_POWERS % Q


@lru_cache(maxsize=4096)
def ntt_cached(p: Polynomial) -> np.ndarray:
    """Memoized ntt_forward of one polynomial: a read-only (n,) int64 array.

    Verification does not use it: hots.identity_holds tests every ring key
    at the one root psi (eval_at_psi) and transforms only the keys that
    pass, together with sigma and H(c), in one ntt_forward call.
    """
    f = ntt_forward(p.coeffs)
    f.flags.writeable = False
    return f


def add(p: Polynomial, r: Polynomial) -> Polynomial:
    """Coefficient-wise sum mod q."""
    return Polynomial(coeffs=(p.coeffs + r.coeffs) % Q)


def scalar_mul(c: int, p: Polynomial) -> Polynomial:
    """Scalar-by-polynomial product mod q."""
    return Polynomial(coeffs=(p.coeffs * (c % Q)) % Q)


def mul(p: Polynomial, r: Polynomial) -> Polynomial:
    """Negacyclic product in Z_q[X]/(X^n + 1)."""
    f = ntt_forward((p.coeffs, r.coeffs))
    return Polynomial(coeffs=ntt_inverse(f[0] * f[1] % Q))


#   Deterministic SHAKE256 expansions.

def _xof(data: bytes, length: int) -> bytes:
    return hashlib.shake_256(data).digest(length)


def expand_matrix(seed: bytes) -> Polynomial:
    """Expand the public element A from a 32-byte seed.

    Coefficients come from 4-byte little-endian words of the XOF stream,
    rejection-sampled against the largest multiple of q below 2^32. Short
    of n, the XOF is read at twice the length, which extends the stream.
    """
    if len(seed) != 32:
        raise ValueError("matrix seed must be 32 bytes")
    limit = (1 << 32) // Q * Q
    data = DOMAIN_MATRIX + seed
    length = 4 * N + 256
    while True:
        words = np.frombuffer(_xof(data, length), dtype="<u4")
        kept = words[words < limit]
        if len(kept) >= N:
            return Polynomial(coeffs=kept[:N] % Q)
        length *= 2


#   Inverse-CDF table for the centered discrete Gaussian with parameter
#   sigma = 2/sqrt(2*pi), tail-cut at |x| <= 4. Thresholds are CDF values
#   scaled to 2^64 and frozen as integers so sampling is bit-identical on
#   every platform. Support is x = -4..4; discrete variance 0.636508. A
#   word u maps to x = k - 4, k the number of thresholds <= u; the ninth
#   threshold, 2^64, is above every word and left implicit.
_GAUSS_THRESHOLDS = np.array([
    32164831727160,
    7885242684442114,
    406460509248310393,
    4611718169563505816,
    13835025904146045800,
    18040283564461241223,
    18438858831025109502,
    18446711908877824456,
], dtype=np.uint64)


def sample_secret(seed: bytes, context: bytes) -> Polynomial:
    """Sample a small-coefficient secret polynomial, deterministic per (seed, context)."""
    if len(seed) != 32:
        raise ValueError("secret seed must be 32 bytes")
    u = np.frombuffer(_xof(context + seed, 8 * N), dtype="<u8")
    k = np.searchsorted(_GAUSS_THRESHOLDS, u, side="right")
    return Polynomial(coeffs=(k - SECRET_BOUND) % Q)


def hash_to_poly(message: bytes) -> Polynomial:
    """Hash a message to a ternary polynomial with exactly 64 nonzero +-1 terms.

    Each placement attempt consumes three XOF bytes: two for the index
    (65536 is a multiple of n, so the reduction is unbiased) and one for the
    sign. Attempts landing on an occupied index are rejected.

    Not memoized: a call costs 60-90 us, and a sign or a verify hashes its
    challenge once (README, "Caches").
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
    return Polynomial(coeffs=coeffs)
