"""Arithmetic in R_q = Z_q[X]/(X^n + 1) for n = 512, q = 3,168,257.

A Polynomial's coefficients are one read-only int64 numpy array of shape
(512,), each in [0, q); there is no other representation. The constructor
copies its input (any integer sequence or array), writing to p.coeffs
raises ValueError, and equality and hashing go by value, as the memoized
functions here and key lookups in rings need.

Negacyclic multiplication runs through a length-512 NTT. ntt_forward and
ntt_inverse each take an int64 array of shape (..., 512) with values in
[0, q) and transform every row at once, so a caller with several
polynomials stacks them and pays the per-call overhead once; a lone
polynomial is the (512,) case. Each is a four-step transform (Bailey,
1990): a row viewed as a 32 x 16 grid goes through one float64 matrix
product from the left, an elementwise twiddle multiply and one matrix
product from the right, each step reduced mod q. Values below q keep
every product below 2^44 and every sum below 2^49 < 2^53, so float64
holds each intermediate exactly and the result is bit-identical on any
BLAS. Output i is the row's value at psi^(2 bitrev9(i) + 1). eval_at_psi
gives one transform coefficient, the value at the root psi of X^n + 1,
as a single dot product. Sampling and hash-to-polynomial are
deterministic SHAKE256 expansions. Every function here is pure, so
unrestricted concurrent use is safe.
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


def infinity_norm(p: Polynomial) -> int:
    """Centered infinity norm max |c_i|."""
    return int(np.minimum(p.coeffs, Q - p.coeffs).max())


#   NTT tables. psi is a primitive 2n-th root of unity mod q, found by a
#   deterministic search over generator candidates 3, 5, 7, ... so that the
#   tables (and every test vector) are stable across builds. Every table
#   below indexes one array of the powers psi^e, e < 2n.

def _find_psi() -> int:
    e = (Q - 1) // (2 * N)
    g = 3
    while True:
        y = pow(g, e, Q)
        if pow(y, N, Q) == Q - 1:
            return y
        g += 2


def _bit_reversed(count: int) -> np.ndarray:
    """0 .. count - 1, each with its log2(count) bits in reverse order."""
    bits = count.bit_length() - 1
    return np.array([int(f"{i:0{bits}b}"[::-1], 2) for i in range(count)])


PSI = _find_psi()
_PSI_ALL = np.ones(1, dtype=np.int64)  # psi^e for 0 <= e < 2n, doubling the run
while len(_PSI_ALL) < 2 * N:
    _PSI_ALL = np.concatenate((_PSI_ALL, _PSI_ALL * pow(PSI, len(_PSI_ALL), Q) % Q))
_PSI_POWERS = _PSI_ALL[:N]
_PSI_POWERS.flags.writeable = False
_N_INV = pow(N, Q - 2, Q)

#   The four-step layout (Bailey 1990). A row's coefficient j = j1 + 16 j2
#   sits at (j2, j1) of its (32, 16) view; transform output i = 16 r + c
#   is the value at psi^(2k + 1), k = bitrev9(i) = k2 + 32 k1 with
#   k2 = bitrev5(r), k1 = bitrev4(c). Since psi^(2n) = 1, the exponent
#   j (2k + 1) splits into the three factors below, and folding the bit
#   reversals into the tables' rows and columns leaves no output gather.
_ROWS, _COLS = 32, 16
_ODD = 2 * _bit_reversed(_ROWS)[:, None] + 1  # 2 k2 + 1 of each output row
_J1 = np.arange(_COLS)
_J2 = np.arange(_ROWS)
_K1 = _bit_reversed(_COLS)


def _table(exponents, scale: int = 1) -> np.ndarray:
    """Read-only float64 array of scale * psi^e mod q for an integer array e."""
    t = (_PSI_ALL[exponents % (2 * N)] * scale % Q).astype(np.float64)
    t.flags.writeable = False
    return t


_FORWARD = (
    _table(_COLS * _ODD * _J2),                 # (32, 32), left: sums over j2
    _table(_ODD * _J1),                         # (32, 16) twiddles
    _table(2 * _ROWS * _J1[:, None] * _K1),     # (16, 16), right: sums over j1
)
_INVERSE = (
    _table(-2 * _ROWS * _K1[:, None] * _J1),    # (16, 16), right: sums over k1
    _table(-_ODD * _J1, _N_INV),                # (32, 16) twiddles times n^-1
    _table(-_COLS * _J2[:, None] * _ODD.T),     # (32, 32), left: sums over k2
)


def _reduce(x: np.ndarray, scratch: np.ndarray) -> None:
    """x %= q in place, for float64 integers 0 <= x < 2^49.

    x / q < 2^28 is correctly rounded, so its error is at most 2^-26,
    while a quotient that is not an integer is at least 1/q > 2^-22 from
    one: the floor is exact, and so are its product with q and the
    difference. scratch is a float64 buffer of x's shape.
    """
    np.divide(x, Q, out=scratch)
    np.floor(scratch, out=scratch)
    scratch *= Q
    x -= scratch


def ntt_forward(a) -> np.ndarray:
    """Forward negacyclic NTT of every length-n row of a (..., n) array.

    a is an int64 array, or a nested sequence of them that np.array stacks
    in the one copy the kernel makes anyway. Coefficients must lie in
    [0, q). Returns a fresh int64 array of shape (..., n), each value in
    [0, q); a lone polynomial is the (n,) case. The input is not modified.

    Each row, as a (32, 16) grid, is multiplied on the left by a (32, 32)
    table, by a (32, 16) twiddle table elementwise, and on the right by a
    (16, 16) table, with a reduction after each step, in float64. Every
    product of two values below q is below 2^44 and every sum of at most
    32 of them below 2^49, so each intermediate is an exactly represented
    integer: the result is the same on any IEEE-754 BLAS, in any order
    of summation.
    """
    x = np.array(a, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.int64)
    w = out.view(np.float64)  # out's memory is the work buffer until the end
    grid = x.shape[:-1] + (_ROWS, _COLS)
    xg, wg = x.reshape(grid), w.reshape(grid)
    left, twiddle, right = _FORWARD
    np.matmul(left, xg, out=wg)
    _reduce(w, x)
    wg *= twiddle
    _reduce(w, x)
    np.matmul(wg, right, out=xg)
    _reduce(x, w)
    np.copyto(out, x, casting="unsafe")
    return out


def ntt_inverse(a) -> np.ndarray:
    """Inverse of ntt_forward on every length-n row of a (..., n) array.

    a is taken as by ntt_forward; values must lie in [0, q). Returns a
    fresh int64 array of shape (..., n), each coefficient in [0, q). The
    input is not modified. The steps mirror ntt_forward's, right product
    first, with n^-1 folded into the twiddles; the same bounds hold.
    """
    x = np.array(a, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.int64)
    w = out.view(np.float64)
    grid = x.shape[:-1] + (_ROWS, _COLS)
    xg, wg = x.reshape(grid), w.reshape(grid)
    right, twiddle, left = _INVERSE
    np.matmul(xg, right, out=wg)
    _reduce(w, x)
    wg *= twiddle
    _reduce(w, x)
    np.matmul(left, wg, out=xg)
    _reduce(x, w)
    np.copyto(out, x, casting="unsafe")
    return out


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
