"""Iterated-hash commitment layer and linkability tags.

A proof for participant i is the truncated end of a SHAKE256 chain seeded
with a domain tag, the serialized participant input, and the participant's
encoded public key:

    B_0 = "ACORN_COMMITMENT_V1" | input(randomness, message, i) | pk bytes
    B_j = SHAKE256(B_{j-1}), proof_size bytes       (j = 1..iterations)
    proof = B_iterations

The serialized input layout is bit-exact:

    u32 randomness_size | randomness | u32 message_size | message
    | u32 participant_context

Proofs are recomputable from public data; they bind a participant context
to the signed message, while soundness of the overall signature rests on
the core signature over the challenge. Verification recomputes the chain
and compares with hmac.compare_digest, which takes the same time wherever
the two proofs differ.

Threshold participant x proves on the challenge, with randomness from a
seed bound to the master key and x (share_proof).
"""

import hashlib
import hmac
import struct
from functools import lru_cache

from .params import (
    DIGEST_SIZE,
    DOMAIN_ACORN_COMMITMENT,
    DOMAIN_ACORN_LINKABILITY,
    DOMAIN_ACORN_RANDOMNESS,
    DOMAIN_COORDINATION,
    MAX_PARTICIPANTS,
    RingParams,
)


# The proof comparison, in C; perfbench/tracing.py times it under this name.
constant_time_eq = hmac.compare_digest


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
        + pk.encoded
    )
    for _ in range(params.iterations):
        state = hashlib.shake_256(state).digest(params.proof_size)
    return state


def share_randomness_seed(pk, participant_x: int) -> bytes:
    """Deterministic share-bound seed for a participant's commitment."""
    data = DOMAIN_COORDINATION + pk.encoded + struct.pack("<I", participant_x)
    return hashlib.shake_256(data).digest(32)


@lru_cache(maxsize=MAX_PARTICIPANTS)
def share_proof(pk, challenge: bytes, participant_x: int, params: RingParams) -> bytes:
    """The commitment proof participant x must carry on a challenge under
    master key pk; the cache holds one session's MAX_PARTICIPANTS proofs."""
    randomness = derive_randomness(share_randomness_seed(pk, participant_x),
                                   participant_x)
    return create_proof(pk, challenge, randomness, participant_x, params)


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
