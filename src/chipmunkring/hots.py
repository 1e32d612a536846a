"""Homomorphic one-time signature core.

Keys are pk = (rho_seed, v0, v1) with v0 = A*s0 and v1 = A*s1 for the public
element A expanded from rho_seed; a signature on message M is the single
polynomial sigma = s0*H(M) + s1. Verification checks the forced linear
identity A*sigma == v0*H(M) + v1 together with a norm bound on sigma
(without the bound, the identity alone is satisfiable by linear algebra).

A PublicKey carries its canonical wire bytes (`encoded`), computed once when
the key is built from its fields, or taken from the bytes it was decoded
from. Equality and hashing go by those bytes; Python caches a bytes
object's hash, so a key hashes once however often it is looked up.

The check is split in two so that a verifier holding many candidate keys,
as a ring verifier does, can test the norm once per signature
(norm_within_bound) and then the identity for all keys at once
(identity_holds); verify_detail runs both in that order for a single key.
The per-key half of that work, the transforms NTT(A), NTT(v0) and NTT(v1),
is computed on a key's first core check, in one batched transform for all
the keys of that check that lack it, and each key keeps its own copy.
The one cache of per-key work is codec.decode_public_key's LRU of 256
decoded keys (four rings of 64), so a verifier that sees the same key
bytes again gets back the same key, rows included. Keys from keygen
compute their rows only if a core check needs them; signing never does.

A is a single ring element, so whenever NTT(A) has no zero coefficient the
public key alone gives s0 = A^-1 * v0 and s1 = A^-1 * v1; README "Security
notes" and tests/test_known_breaks.py pin this break.

Signatures add coordinate-wise across additive key shares, which is what
the threshold layer builds on. Key reuse leaks information about (s0, s1);
tracking one-time use is the caller's responsibility. In the ring protocol
keys only ever sign 32-byte challenge digests.
"""

import hashlib
from dataclasses import InitVar, dataclass

import numpy as np

from . import codec
from .params import NORM_BOUND, Q, RingParams
from .polyring import (
    Polynomial,
    add,
    expand_matrix,
    hash_to_poly,
    infinity_norm,
    mul,
    ntt_forward,
    ntt_inverse,
    sample_secret,
)


@dataclass(frozen=True, eq=False)
class PublicKey:
    """A core public key; compares and hashes by its canonical bytes.

    `encoded` is computed from the fields, unless the codec passes
    decoded_from: the canonical bytes it has just decoded the fields from.
    decoded_from is not stored under its own name, so dataclasses.replace
    re-encodes from the new fields.

    The transform rows a core check stores on a key (see transform_rows)
    are not a field: they take no part in equality, hashing or repr, and
    pickling (also deepcopy) rebuilds the key from its fields and bytes
    without them.
    """

    rho_seed: bytes
    v0: Polynomial
    v1: Polynomial
    decoded_from: InitVar[bytes | None] = None

    def __post_init__(self, decoded_from):
        encoded = decoded_from
        if encoded is None:
            encoded = codec.public_key_bytes(self.rho_seed, self.v0, self.v1)
        object.__setattr__(self, "encoded", encoded)

    def __eq__(self, other):
        if not isinstance(other, PublicKey):
            return NotImplemented
        return self.encoded == other.encoded

    def __hash__(self):
        return hash(self.encoded)

    def __reduce__(self):
        return PublicKey, (self.rho_seed, self.v0, self.v1, self.encoded)


@dataclass(frozen=True)
class PrivateKey:
    seed: bytes
    tr: bytes  # SHA3-384 of the encoded public key
    s0: Polynomial
    s1: Polynomial
    pk: PublicKey


@dataclass(frozen=True)
class ChipmunkSignature:
    sigma: Polynomial


def keypair_from_secrets(rho_seed: bytes, s0: Polynomial, s1: Polynomial,
                         seed: bytes = b"\x00" * 32):
    """Build a key pair from explicit secrets (deterministic low-level path)."""
    if len(rho_seed) != 32:
        raise ValueError("rho_seed must be 32 bytes")
    f = ntt_forward((expand_matrix(rho_seed).coeffs, s0.coeffs, s1.coeffs))
    v0, v1 = ntt_inverse(f[0] * f[1:] % Q)  # A*s0 and A*s1 in one inverse
    pk = PublicKey(rho_seed=rho_seed, v0=Polynomial(coeffs=v0), v1=Polynomial(coeffs=v1))
    tr = hashlib.sha3_384(pk.encoded).digest()
    sk = PrivateKey(seed=seed, tr=tr, s0=s0, s1=s1, pk=pk)
    return sk, pk


def keygen(entropy: bytes, params: RingParams):
    """Generate a key pair, deterministic in the 32-byte entropy input.

    Keys are the same in both parameter modes; params does not affect them.
    """
    if len(entropy) != 32:
        raise ValueError("entropy must be 32 bytes")
    rho_seed = hashlib.shake_256(entropy).digest(32)
    s0 = sample_secret(entropy, b"s0")
    s1 = sample_secret(entropy, b"s1")
    return keypair_from_secrets(rho_seed, s0, s1, seed=entropy)


def sign(sk: PrivateKey, message: bytes, params: RingParams) -> ChipmunkSignature:
    """sigma = s0 * H(M) + s1; the same in both parameter modes."""
    if len(message) == 0:
        raise ValueError("message must be nonempty")
    sigma = add(mul(sk.s0, hash_to_poly(message)), sk.s1)
    return ChipmunkSignature(sigma=sigma)


def norm_within_bound(sig: ChipmunkSignature) -> bool:
    """The key-independent half of verification: ||sigma||_inf <= NORM_BOUND."""
    return infinity_norm(sig.sigma) <= NORM_BOUND


def _give_rows(pks) -> None:
    """Store transform rows on every key in pks that has none yet.

    All such keys are transformed in one ntt_forward call over a (k, 3, n)
    array. Each key then gets its own read-only int32 copy of its rows,
    never a view, which would keep the whole batch alive for as long as
    any one key lives in the decode memo. Equal keys share one copy.
    """
    todo = {}
    for pk in pks:
        if "_transform_rows" not in pk.__dict__:
            todo.setdefault(pk, []).append(pk)
    if not todo:
        return
    f = ntt_forward([(expand_matrix(pk.rho_seed).coeffs, pk.v0.coeffs, pk.v1.coeffs)
                     for pk in todo])
    for batch_rows, same in zip(f, todo.values()):
        rows = batch_rows.astype(np.int32)  # a copy
        rows.flags.writeable = False
        for pk in same:
            object.__setattr__(pk, "_transform_rows", rows)


def transform_rows(pk: PublicKey) -> np.ndarray:
    """Read-only (3, n) array: NTT(A), NTT(v0) and NTT(v1) of one key.

    Computed on first use and stored on the key object, so it lives exactly
    as long as the key. Stored as int32 (every value is below q < 2^22),
    which halves the per-key memory and the per-check stack; products with
    int64 arrays are int64.
    """
    _give_rows((pk,))
    return pk._transform_rows


def identity_holds(pks, message: bytes, sig: ChipmunkSignature) -> np.ndarray:
    """The per-key half of verification, A*sigma == v0*H(M) + v1, for each
    key in pks at once: a boolean array of len(pks).

    Compared pointwise in the transform domain: the NTT is a bijection, so
    this is the same predicate without the inverse transforms. Keys without
    rows are transformed together in one batch; sigma and H(M) together in
    one (2, n) call. Every key costs the same work.
    """
    _give_rows(pks)
    rows = np.stack([pk._transform_rows for pk in pks])  # (k, 3, n)
    f = ntt_forward((sig.sigma.coeffs, hash_to_poly(message).coeffs))
    lhs = rows[:, 0] * f[0]
    lhs %= Q
    rhs = rows[:, 1] * f[1]
    rhs += rows[:, 2]
    rhs %= Q
    return (lhs == rhs).all(axis=1)


def verify_detail(pk: PublicKey, message: bytes, sig: ChipmunkSignature,
                  params: RingParams) -> str:
    """Check a signature; returns 'ok', 'norm', or 'identity'.

    The check is the same in both parameter modes; params does not affect it.
    """
    if not norm_within_bound(sig):
        return "norm"
    return "ok" if identity_holds((pk,), message, sig)[0] else "identity"


def verify(pk: PublicKey, message: bytes, sig: ChipmunkSignature,
           params: RingParams) -> bool:
    """Accept iff the signing identity holds and sigma is within the norm bound.

    The same check in both parameter modes, as for verify_detail.
    """
    return verify_detail(pk, message, sig, params) == "ok"
