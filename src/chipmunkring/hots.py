"""Homomorphic one-time signature core.

Keys are pk = (rho_seed, v0, v1) with v0 = A*s0 and v1 = A*s1 for the public
element A expanded from rho_seed; a signature on message M is the single
polynomial sigma = s0*H(M) + s1. Verification checks the forced linear
identity A*sigma == v0*H(M) + v1 together with a norm bound on sigma
(without the bound, the identity alone is satisfiable by linear algebra).

The check is split in two so that a verifier holding many candidate keys,
as a ring verifier does, can test the norm once per signature
(norm_within_bound) and then only the identity per key (identity_holds);
verify_detail runs both in that order for a single key.

Signatures add coordinate-wise across additive key shares, which is what
the threshold layer builds on. Key reuse leaks information about (s0, s1);
tracking one-time use is the caller's responsibility. In the ring protocol
keys only ever sign 32-byte challenge digests.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from . import codec
from .params import Q, RingParams, require_supported
from .polyring import (
    Polynomial,
    add,
    expand_matrix,
    hash_to_poly,
    infinity_norm,
    mul,
    ntt_cached,
    sample_secret,
)


@dataclass(frozen=True)
class PublicKey:
    rho_seed: bytes
    v0: Polynomial
    v1: Polynomial


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
    a = expand_matrix(rho_seed).a
    pk = PublicKey(rho_seed=rho_seed, v0=mul(a, s0), v1=mul(a, s1))
    tr = hashlib.sha3_384(codec.encode_public_key(pk)).digest()
    sk = PrivateKey(seed=seed, tr=tr, s0=s0, s1=s1, pk=pk)
    return sk, pk


def keygen(entropy: bytes, params: RingParams):
    """Generate a key pair, deterministic in the 32-byte entropy input."""
    require_supported(params)
    if len(entropy) != 32:
        raise ValueError("entropy must be 32 bytes")
    rho_seed = hashlib.shake_256(entropy).digest(32)
    s0 = sample_secret(entropy, b"s0")
    s1 = sample_secret(entropy, b"s1")
    return keypair_from_secrets(rho_seed, s0, s1, seed=entropy)


def sign(sk: PrivateKey, message: bytes, params: RingParams) -> ChipmunkSignature:
    """sigma = s0 * H(M) + s1."""
    require_supported(params)
    if len(message) == 0:
        raise ValueError("message must be nonempty")
    sigma = add(mul(sk.s0, hash_to_poly(message)), sk.s1)
    return ChipmunkSignature(sigma=sigma)


def norm_within_bound(sig: ChipmunkSignature, params: RingParams) -> bool:
    """The key-independent half of verification: ||sigma||_inf <= norm_bound."""
    require_supported(params)
    return infinity_norm(sig.sigma) <= params.norm_bound


def identity_holds(pk: PublicKey, message: bytes, sig: ChipmunkSignature) -> bool:
    """The per-key half of verification: A*sigma == v0*H(M) + v1.

    Compared pointwise in the transform domain: the NTT is a bijection, so
    this is the same predicate without the inverse transforms.
    """
    a_hat = ntt_cached(expand_matrix(pk.rho_seed).a)
    lhs = (a_hat * ntt_cached(sig.sigma)) % Q
    rhs = (ntt_cached(pk.v0) * ntt_cached(hash_to_poly(message))
           + ntt_cached(pk.v1)) % Q
    return np.array_equal(lhs, rhs)


def verify_detail(pk: PublicKey, message: bytes, sig: ChipmunkSignature,
                  params: RingParams) -> str:
    """Check a signature; returns 'ok', 'norm', or 'identity'."""
    if not norm_within_bound(sig, params):
        return "norm"
    return "ok" if identity_holds(pk, message, sig) else "identity"


def verify(pk: PublicKey, message: bytes, sig: ChipmunkSignature,
           params: RingParams) -> bool:
    """Accept iff the signing identity holds and sigma is within the norm bound."""
    return verify_detail(pk, message, sig, params) == "ok"
