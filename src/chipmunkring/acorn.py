"""Iterated-hash commitment layer and linkability tags.

A proof for participant i is the truncated end of a SHAKE256 chain seeded
with a domain tag, the serialized participant input, and the participant's
encoded public key:

    B_0 = "ACORN_COMMITMENT_V1" | input(randomness, message, i) | pk bytes
    B_j = SHAKE256(B_{j-1})          (chain width max(proof_size, 32))
    proof = B_iterations[0:proof_size]

The serialized input layout is bit-exact:

    u32 randomness_size | randomness | u32 message_size | message
    | u32 participant_context

Proofs are recomputable from public data; they bind a participant context
to the signed message, while soundness of the overall signature rests on
the core signature over the challenge. Verification recomputes the chain
and compares with a full-scan constant-time comparison.
"""

import hashlib
import struct

from .params import (
    DIGEST_SIZE,
    DOMAIN_ACORN_COMMITMENT,
    DOMAIN_ACORN_LINKABILITY,
    DOMAIN_ACORN_RANDOMNESS,
    RingParams,
)
from . import codec


def constant_time_eq(a, b) -> bool:
    """Compare byte sequences, visiting every index on all paths."""
    if len(a) != len(b):
        return False
    acc = 0
    for i in range(len(a)):
        acc |= a[i] ^ b[i]
    return acc == 0


def derive_randomness(seed: bytes, participant_index: int) -> bytes:
    """32 bytes of per-participant randomness, deterministic in (seed, index)."""
    if len(seed) != 32:
        raise ValueError("randomness seed must be 32 bytes")
    if participant_index < 0:
        raise ValueError("participant index must be nonnegative")
    data = DOMAIN_ACORN_RANDOMNESS + seed + struct.pack("<I", participant_index)
    return hashlib.shake_256(data).digest(32)


def serialize_input(randomness: bytes, message: bytes, participant_index: int) -> bytes:
    """Length-prefixed participant input; unambiguous by construction."""
    return (
        struct.pack("<I", len(randomness))
        + randomness
        + struct.pack("<I", len(message))
        + message
        + struct.pack("<I", participant_index)
    )


def create_proof(pk, message: bytes, randomness: bytes, participant_index: int,
                 params: RingParams) -> bytes:
    """Run the commitment chain for one participant."""
    if len(message) == 0:
        raise ValueError("message must be nonempty")
    if len(randomness) != DIGEST_SIZE:
        raise ValueError(f"randomness must be {DIGEST_SIZE} bytes")
    state = (
        DOMAIN_ACORN_COMMITMENT
        + serialize_input(randomness, message, participant_index)
        + codec.encode_public_key(pk)
    )
    width = max(params.proof_size, 32)
    for _ in range(params.iterations):
        state = hashlib.shake_256(state).digest(width)
    return state[:params.proof_size]


def verify_proof(proof: bytes, pk, message: bytes, randomness: bytes,
                 participant_index: int, params: RingParams) -> bool:
    """Recompute the expected proof and compare in constant time."""
    if len(proof) != params.proof_size:
        return False
    expected = create_proof(pk, message, randomness, participant_index, params)
    return constant_time_eq(proof, expected)


def linkability_tag(ring_hash: bytes, message: bytes, challenge: bytes) -> bytes:
    """32-byte tag over (ring hash, message, challenge).

    The tag contains no secret-key material, so it cannot link two
    signatures by the same signer across different messages; it binds this
    signature to its ring and challenge.
    """
    if len(ring_hash) != 32 or len(challenge) != 32:
        raise ValueError("ring_hash and challenge must be 32 bytes")
    data = (
        DOMAIN_ACORN_LINKABILITY
        + ring_hash
        + struct.pack("<I", len(message))
        + message
        + challenge
    )
    return hashlib.sha3_256(data).digest()
