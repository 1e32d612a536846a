"""Arithmetic in R_q = Z_q[X]/(X^n + 1) for n = 512, q = 3,168,257.

A Polynomial's coefficients are one read-only int64 numpy array of shape
(512,), each in [0, q); there is no other representation. The constructor
copies its input (any integer sequence or array), writing to p.coeffs
raises ValueError, and equality and hashing go by value.

Negacyclic multiplication runs through a length-512 NTT. ntt_forward and
ntt_inverse each take an int64 array of shape (..., 512) with values in
[0, q) and transform every row at once, so a caller with several
polynomials stacks them and pays the per-call overhead once; a lone
polynomial is the (512,) case. Both run one four-step kernel,
_four_step (Bailey, 1990): a row viewed as a 32 x 16 grid goes through
one float64 matrix product from the left, an elementwise twiddle
multiply and one matrix product from the right (the inverse mirrors
the order), each step reduced mod q. Values below q keep
every product below 2^44 and every sum below 2^49 < 2^53, so float64
holds each intermediate exactly and the result is bit-identical on any
BLAS. Output i is the row's value at psi^(2 bitrev9(i) + 1). eval_at_psi
gives one transform coefficient, the value at the root psi of X^n + 1,
as a single dot product. Sampling and hash-to-polynomial are
deterministic SHAKE256 expansions; uniform_rows is the one rejection
sampler of uniform Z_q values, behind both the public element A
(expand_matrix) and the dealer's sharing polynomials
(threshold._sharing_matrix). Nothing here is memoized: ntt_cached is a
plain ntt_forward of one polynomial, kept only for the traced benchmark's
lookup by name. Every function here is pure, so unrestricted concurrent
use is safe.
"""

import hashlib
from dataclasses import dataclass

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


#   NTT tables. psi = 3^((q - 1) / 2n) = 1271614 is a primitive 2n-th root
#   of unity mod q (psi^n = -1), fixed so that the tables and every test
#   vector are stable across builds. Every table below indexes one array of
#   the powers psi^e, e < 2n.

def _bit_reversed(count: int) -> np.ndarray:
    """0 .. count - 1, each with its log2(count) bits in reverse order."""
    bits = count.bit_length() - 1
    return np.array([int(f"{i:0{bits}b}"[::-1], 2) for i in range(count)])


PSI = pow(3, (Q - 1) // (2 * N), Q)
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


def _four_step(a, tables, left_first: bool) -> np.ndarray:
    """The one kernel behind ntt_forward and ntt_inverse.

    tables is (first, twiddle, last). Each row of a, as a (32, 16) grid,
    is multiplied by first, by the twiddles elementwise and by last, with
    a reduction after each step, in float64. first multiplies from the
    left and last from the right when left_first is set, and the other
    way round when not. Every product of two values below q is below
    2^44 and every sum of at most 32 of them below 2^49, so each
    intermediate is an exactly represented integer: the result is the
    same on any IEEE-754 BLAS, in any order of summation.
    """
    x = np.array(a, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.int64)
    w = out.view(np.float64)  # out's memory is the work buffer until the end
    grid = x.shape[:-1] + (_ROWS, _COLS)
    xg, wg = x.reshape(grid), w.reshape(grid)
    first, twiddle, last = tables
    np.matmul(*((first, xg) if left_first else (xg, first)), out=wg)
    _reduce(w, x)
    wg *= twiddle
    _reduce(w, x)
    np.matmul(*((wg, last) if left_first else (last, wg)), out=xg)
    _reduce(x, w)
    np.copyto(out, x, casting="unsafe")
    return out


def ntt_forward(a) -> np.ndarray:
    """Forward negacyclic NTT of every length-n row of a (..., n) array.

    a is an int64 array, or a nested sequence of them that np.array stacks
    in the one copy the kernel makes anyway. Coefficients must lie in
    [0, q). Returns a fresh int64 array of shape (..., n), each value in
    [0, q); a lone polynomial is the (n,) case. The input is not modified.

    Each row, as a (32, 16) grid, is multiplied on the left by a (32, 32)
    table, by a (32, 16) twiddle table elementwise, and on the right by a
    (16, 16) table (_four_step).
    """
    return _four_step(a, _FORWARD, True)


def ntt_inverse(a) -> np.ndarray:
    """Inverse of ntt_forward on every length-n row of a (..., n) array.

    a is taken as by ntt_forward; values must lie in [0, q). Returns a
    fresh int64 array of shape (..., n), each coefficient in [0, q). The
    input is not modified. The steps mirror ntt_forward's, right product
    first, with n^-1 folded into the twiddles; the same bounds hold.
    """
    return _four_step(a, _INVERSE, False)


def eval_at_psi(a) -> np.ndarray:
    """Value at x = psi of every length-n row of a (..., n) array.

    a is taken as by ntt_forward; the result, of shape (...), equals
    ntt_forward(a)[..., 0] with values in [0, q). Each product of a
    coefficient and a power of psi is below q^2 < 2^44 and each sum of n
    of them below n * q^2 < 2^53, so int64 never overflows.
    """
    return np.asarray(a, dtype=np.int64) @ _PSI_POWERS % Q


def ntt_cached(p: Polynomial) -> np.ndarray:
    """ntt_forward of one polynomial, as a read-only (n,) int64 array.

    Nothing in the package calls it, and it is not memoized; it stays
    only because the traced benchmark looks the name up. Verification
    tests every ring key at the one root psi (eval_at_psi) and transforms
    only the keys that pass, together with sigma and H(c), in one
    ntt_forward call (hots.identity_holds).
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


_UNIFORM_LIMIT = (1 << 32) // Q * Q  # largest multiple of q below 2^32


def uniform_rows(prefixes, count: int) -> np.ndarray:
    """(len(prefixes), count) int64 array of uniform values in [0, q).

    Row j holds the first count little-endian 4-byte words of
    SHAKE256(prefixes[j]) that are below the largest multiple of q under
    2^32, each reduced mod q. Every stream is read at count + 16 words, and
    all are read again at twice the length while any row is short of count
    (at least 17 words rejected, each with probability about 2^-11). A
    longer read extends a shorter one, so the schedule never changes which
    words are kept.

    A row is its first count words unless one of them is rejected; such a
    row (about 21% of single rows at count = n, 0.7% of rows at count = 15)
    is filtered on its own. The mask that finds those rows is computed on
    every call, so a rejected word adds only one row's filter, in a fresh
    process too.
    """
    length = 4 * count + 64
    while True:
        data = b"".join(_xof(p, length) for p in prefixes)
        words = np.frombuffer(data, dtype="<u4").reshape(len(prefixes), length // 4)
        kept = words < _UNIFORM_LIMIT
        out = (words[:, :count] % Q).astype(np.int64)
        for j, clean in enumerate(kept[:, :count].all(axis=1).tolist()):
            if not clean:
                row = words[j][kept[j]]
                if len(row) < count:
                    break  # read every stream again at twice the length
                out[j] = row[:count] % Q
        else:
            return out
        length *= 2


def expand_matrix(seed: bytes) -> Polynomial:
    """Expand the public element A from a 32-byte seed: one uniform_rows
    row, read from DOMAIN_MATRIX + seed."""
    if len(seed) != 32:
        raise ValueError("matrix seed must be 32 bytes")
    return Polynomial(coeffs=uniform_rows((DOMAIN_MATRIX + seed,), N)[0])


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

    The XOF stream is read as 3-byte attempts: two little-endian bytes for
    the index (65536 is a multiple of n, so the reduction is unbiased) and
    one for the sign. The first 64 distinct indices in stream order are
    placed with their attempts' signs. The first read is 384 bytes, doubled
    while it holds fewer than 64 distinct indices (a shorter SHAKE output
    is a prefix of a longer one).

    One numpy step decodes a read's indices and a dict keeps each one's
    first position; np.unique is faster but maps ~0.7 MB more of numpy
    into each process. Not memoized: a call costs ~30 us, once per sign,
    verify or partial signature.
    """
    if len(message) == 0:
        raise ValueError("message must be nonempty")
    data = DOMAIN_HASH_TO_POLY + message
    length = 3 * 2 * CHALLENGE_WEIGHT
    while True:
        buf = _xof(data, length)
        # attempt j's index bytes are the little-endian u16 at offset 3j
        idx = (np.ndarray(length // 3, "<u2", buf, strides=3) % N).tolist()
        # zip runs backwards, so each index keeps its smallest position
        first = dict(zip(reversed(idx), range(len(idx) - 1, -1, -1)))
        if len(first) >= CHALLENGE_WEIGHT:
            break
        length *= 2
    coeffs = np.zeros(N, dtype=np.int64)
    for j in sorted(first.values())[:CHALLENGE_WEIGHT]:
        coeffs[idx[j]] = Q - 1 if buf[3 * j + 2] & 1 else 1
    return Polynomial(coeffs=coeffs)
