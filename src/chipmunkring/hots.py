"""Homomorphic one-time signature core.

Keys are pk = (rho_seed, v0, v1) with v0 = A*s0 and v1 = A*s1 for the public
element A expanded from rho_seed; a signature on message M is the single
polynomial sigma = s0*H(M) + s1. Verification checks the forced linear
identity A*sigma == v0*H(M) + v1 together with a norm bound on sigma
(without the bound, the identity alone is satisfiable by linear algebra).

The check is split in two so that a verifier holding many candidate keys,
as a ring verifier does, can test the norm once per signature
(norm_within_bound) and then the identity for all keys at once
(identity_holds); verify runs both in that order for a single key.
identity_holds first tests every key at one root psi of X^n + 1, where
each key contributes three numbers, A(psi), v0(psi) and v1(psi)
(PublicKey.root_values). An identity that holds in the ring holds at every
root, so only the keys that pass there can meet it, and only those get the
full check over all n roots, in one batched transform. The work is k root
tests plus a full check of the distinct candidates, the same whichever key
signed.
A PublicKey is its canonical wire bytes and nothing else, plus its root
values once its first core check has computed them; codec.decode_public_key
hands back the same key for the same bytes. Signing never computes them.

A is a single ring element, so whenever NTT(A) has no zero coefficient the
public key alone gives s0 = A^-1 * v0 and s1 = A^-1 * v1; README "Security
notes" and tests/test_known_breaks.py pin this break.

Signatures add coordinate-wise across additive key shares, which is what
the threshold layer builds on. Key reuse leaks information about (s0, s1);
tracking one-time use is the caller's responsibility. In the ring protocol
keys only ever sign 32-byte challenge digests.
"""

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import codec
from .params import N, NORM_BOUND, Q, RingParams
from .polyring import (
    Polynomial,
    add,
    eval_at_psi,
    expand_matrix,
    hash_to_poly,
    infinity_norm,
    mul,
    ntt_forward,
    ntt_inverse,
    sample_secret,
)


@dataclass(frozen=True)
class PublicKey:
    """A core public key: its canonical wire bytes, and nothing else.

    The constructor refuses, with codec.decode_public_key's error, any bytes
    that decoder refuses, and mode-2 bytes, which only the decoder rewrites
    to mode 1. rho_seed, v0 and v1 are read from the bytes on each access.
    """

    encoded: bytes

    def __post_init__(self):
        if type(self.encoded) is not bytes:
            raise TypeError("a PublicKey holds bytes; decode_public_key takes any bytes-like")
        codec.check_public_key(self.encoded)

    def __reduce__(self):  # pickles and copies leave root_values behind
        return PublicKey, (self.encoded,)

    rho_seed = property(lambda self: self.encoded[codec.PUBLIC_KEY_SEED])
    v0 = property(lambda self: Polynomial(coeffs=codec.public_key_rows(self.encoded)[0]))
    v1 = property(lambda self: Polynomial(coeffs=codec.public_key_rows(self.encoded)[1]))

    @cached_property
    def root_values(self) -> tuple:
        """(A(psi), v0(psi), v1(psi)) as ints in [0, q): the values at
        transform index 0, computed on first use for this key alone."""
        return tuple(eval_at_psi((expand_matrix(self.rho_seed).coeffs,
                                  *codec.public_key_rows(self.encoded))).tolist())


@dataclass(frozen=True)
class PrivateKey:
    seed: bytes = field(repr=False)
    tr: bytes = field(init=False)  # SHA3-384 of pk.encoded, derived from pk
    s0: Polynomial = field(repr=False)
    s1: Polynomial = field(repr=False)
    pk: PublicKey

    def __post_init__(self):
        object.__setattr__(self, "tr", hashlib.sha3_384(self.pk.encoded).digest())


@dataclass(frozen=True)
class ChipmunkSignature:
    sigma: Polynomial


def keypair_from_secrets(rho_seed: bytes, s0: Polynomial, s1: Polynomial,
                         seed: bytes = b"\x00" * 32):
    """Build a key pair from explicit secrets (deterministic low-level path)."""
    if len(rho_seed) != 32:
        raise ValueError("rho_seed must be 32 bytes")
    f = ntt_forward((expand_matrix(rho_seed).coeffs, s0.coeffs, s1.coeffs))
    # A*s0 and A*s1 in one inverse transform
    pk = PublicKey(codec.public_key_bytes(rho_seed, *ntt_inverse(f[0] * f[1:] % Q)))
    return PrivateKey(seed=seed, s0=s0, s1=s1, pk=pk), pk


def keygen(entropy: bytes, params: RingParams):
    """Generate a key pair, deterministic in the 32-byte entropy input.

    Keys are the same in both modes. params is not read; perfbench passes
    it, and it goes with the next change to the benchmark.
    """
    if len(entropy) != 32:
        raise ValueError("entropy must be 32 bytes")
    rho_seed = hashlib.shake_256(entropy).digest(32)
    s0 = sample_secret(entropy, b"s0")
    s1 = sample_secret(entropy, b"s1")
    return keypair_from_secrets(rho_seed, s0, s1, seed=entropy)


def sign(sk: PrivateKey, message: bytes) -> ChipmunkSignature:
    """sigma = s0 * H(M) + s1; hash_to_poly rejects an empty message."""
    sigma = add(mul(sk.s0, hash_to_poly(message)), sk.s1)
    return ChipmunkSignature(sigma=sigma)


def norm_within_bound(sig: ChipmunkSignature) -> bool:
    """The key-independent half of verification: ||sigma||_inf <= NORM_BOUND."""
    return infinity_norm(sig.sigma) <= NORM_BOUND


def _meets(a, v0, v1, s, h) -> np.ndarray:
    """a*s == v0*h + v1 mod q, elementwise over broadcast int64 inputs in [0, q)."""
    lhs = a * s
    lhs %= Q
    rhs = v0 * h
    rhs += v1
    rhs %= Q
    return lhs == rhs


def identity_holds(pks, message: bytes, sig: ChipmunkSignature) -> np.ndarray:
    """The per-key half of verification, A*sigma == v0*H(M) + v1, for each
    key in pks at once: a boolean array of len(pks).

    Every key is first tested at the root psi as one (k,) comparison of
    root values. The distinct keys that pass, and only those, are then
    compared at every root in the transform domain, where the NTT is a
    bijection, so that is the same predicate without the inverse
    transforms: their A, v0 and v1, sigma and H(M) go through one
    ntt_forward call, and every index holding a key gets its result. No
    key that fails at psi can meet the identity, so the result is exact.
    """
    sigma, h = sig.sigma.coeffs, hash_to_poly(message).coeffs
    s_psi, h_psi = eval_at_psi((sigma, h)).tolist()
    at = np.array([pk.root_values for pk in pks], dtype=np.int64)  # (k, 3)
    held = _meets(at[:, 0], at[:, 1], at[:, 2], s_psi, h_psi)
    candidates = np.flatnonzero(held).tolist()
    if candidates:
        distinct = dict.fromkeys(pks[j] for j in candidates)  # equal bytes: one key
        f = ntt_forward([sigma, h] + [row for pk in distinct for row in (
            expand_matrix(pk.rho_seed).coeffs, *codec.public_key_rows(pk.encoded))])
        keys = f[2:].reshape(-1, 3, N)
        met = dict(zip(distinct, _meets(keys[:, 0], keys[:, 1], keys[:, 2],
                                        f[0], f[1]).all(axis=1).tolist()))
        held[candidates] = [met[pks[j]] for j in candidates]
    return held


def verify(pk: PublicKey, message: bytes, sig: ChipmunkSignature) -> bool:
    """Accept iff the signing identity holds and sigma is within the norm bound."""
    return norm_within_bound(sig) and bool(identity_holds((pk,), message, sig)[0])
