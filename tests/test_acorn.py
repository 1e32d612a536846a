import dataclasses
import hashlib
import hmac
import struct

import pytest

from chipmunkring import codec
from chipmunkring.acorn import (
    constant_time_eq,
    create_proof,
    derive_randomness,
    linkability_tag,
    verify_proof,
)


def independent_proof_oracle(pk, message, randomness, index, proof_size):
    """One chain step computed from scratch: layout rebuilt here, plain hashlib."""
    payload = (
        b"ACORN_COMMITMENT_V1"
        + struct.pack("<I", len(randomness)) + randomness
        + struct.pack("<I", len(message)) + message
        + struct.pack("<I", index)
        + codec.encode_public_key(pk)
    )
    return hashlib.shake_256(payload).digest(max(proof_size, 32))[:proof_size]


def test_single_iteration_matches_xof_oracle(key_pool, single_params):
    _, pk = key_pool[0]
    p1 = dataclasses.replace(single_params, iterations=1)
    randomness = derive_randomness(b"\x10" * 32, 3)
    got = create_proof(pk, b"oracle message", randomness, 3, p1)
    want = independent_proof_oracle(pk, b"oracle message", randomness, 3, 64)
    assert got == want


def test_single_iteration_matches_xof_oracle_multi(key_pool, multi_params):
    _, pk = key_pool[1]
    p1 = dataclasses.replace(multi_params, iterations=1)
    randomness = derive_randomness(b"\x11" * 32, 0)
    got = create_proof(pk, b"oracle message 96", randomness, 0, p1)
    want = independent_proof_oracle(pk, b"oracle message 96", randomness, 0, 96)
    assert got == want


def test_create_proof_deterministic(key_pool, single_params):
    _, pk = key_pool[2]
    r = derive_randomness(b"\x12" * 32, 1)
    a = create_proof(pk, b"same inputs", r, 1, single_params)
    b = create_proof(pk, b"same inputs", r, 1, single_params)
    assert a == b


def test_proof_sizes_by_mode(key_pool, single_params, multi_params):
    _, pk = key_pool[3]
    r = derive_randomness(b"\x13" * 32, 0)
    assert len(create_proof(pk, b"m", r, 0, single_params)) == 64
    assert len(create_proof(pk, b"m", r, 0, multi_params)) == 96


def test_derive_randomness():
    a = derive_randomness(b"\x14" * 32, 0)
    b = derive_randomness(b"\x14" * 32, 0)
    c = derive_randomness(b"\x14" * 32, 1)
    assert a == b
    assert a != c
    assert len(a) == 32


def test_derive_randomness_bad_seed():
    with pytest.raises(ValueError):
        derive_randomness(b"\x14" * 31, 0)


def test_derive_randomness_negative_index():
    with pytest.raises(ValueError, match="participant index must be nonnegative"):
        derive_randomness(b"\x14" * 32, -1)


@pytest.mark.parametrize("message, randomness, error", [
    (b"", b"\x00" * 32, "message must be nonempty"),
    (b"m", b"\x00" * 31, "randomness must be 32 bytes"),
    (b"m", b"\x00" * 33, "randomness must be 32 bytes"),
])
def test_create_proof_rejects_bad_inputs(key_pool, single_params, message, randomness,
                                         error):
    _, pk = key_pool[3]
    with pytest.raises(ValueError, match=error):
        create_proof(pk, message, randomness, 0, single_params)


def test_verify_proof_roundtrip(key_pool, single_params):
    _, pk = key_pool[4]
    r = derive_randomness(b"\x15" * 32, 2)
    proof = create_proof(pk, b"verify me", r, 2, single_params)
    assert verify_proof(proof, pk, b"verify me", r, 2, single_params)


def test_verify_proof_bitflip(key_pool, single_params):
    _, pk = key_pool[5]
    r = derive_randomness(b"\x16" * 32, 0)
    proof = bytearray(create_proof(pk, b"flip", r, 0, single_params))
    proof[0] ^= 0x01
    assert not verify_proof(bytes(proof), pk, b"flip", r, 0, single_params)


def test_verify_proof_randomness_flip(key_pool, single_params):
    _, pk = key_pool[6]
    r = bytearray(derive_randomness(b"\x17" * 32, 0))
    proof = create_proof(pk, b"flip r", bytes(r), 0, single_params)
    r[31] ^= 0x01
    assert not verify_proof(proof, pk, b"flip r", bytes(r), 0, single_params)


def test_verify_proof_length_mismatch(key_pool, single_params):
    _, pk = key_pool[7]
    r = derive_randomness(b"\x18" * 32, 0)
    proof = create_proof(pk, b"short", r, 0, single_params)
    assert not verify_proof(proof[:-1], pk, b"short", r, 0, single_params)


def test_participant_context_separates(key_pool, single_params):
    _, pk = key_pool[8]
    r = derive_randomness(b"\x19" * 32, 0)
    assert create_proof(pk, b"ctx", r, 0, single_params) != \
        create_proof(pk, b"ctx", r, 1, single_params)


def test_domain_isolation():
    import random

    rng = random.Random(0xD0)
    for _ in range(100):
        payload = rng.randbytes(rng.randrange(1, 200))
        assert hashlib.sha3_256(b"ACORN_COMMITMENT_V1" + payload).digest() != \
            hashlib.sha3_256(b"ACORN_LINKABILITY_V1" + payload).digest()
        assert hashlib.shake_256(b"ACORN_COMMITMENT_V1" + payload).digest(32) != \
            hashlib.shake_256(b"ACORN_LINKABILITY_V1" + payload).digest(32)


@pytest.mark.parametrize("k", [1, 99, 999])
def test_iteration_monotonicity(key_pool, single_params, k):
    _, pk = key_pool[9]
    r = derive_randomness(b"\x1a" * 32, 0)
    pk_k = dataclasses.replace(single_params, iterations=k)
    pk_k1 = dataclasses.replace(single_params, iterations=k + 1)
    assert create_proof(pk, b"iter", r, 0, pk_k) != create_proof(pk, b"iter", r, 0, pk_k1)


def test_comparator_is_compare_digest():
    # the stdlib's C comparison, whose time does not depend on where inputs differ
    assert constant_time_eq is hmac.compare_digest
    assert constant_time_eq(b"\xaa" * 64, b"\xaa" * 64)
    assert not constant_time_eq(b"\x00" + b"\xaa" * 63, b"\xaa" * 64)  # first byte
    assert not constant_time_eq(b"\xaa" * 63 + b"\x00", b"\xaa" * 64)  # last byte
    assert not constant_time_eq(b"\xaa" * 64, b"\xaa" * 96)


def test_comparator_length_mismatch():
    assert not constant_time_eq(b"\x00" * 63, b"\x00" * 64)


def test_linkability_tag():
    rh = b"\x1b" * 32
    ch1 = b"\x1c" * 32
    ch2 = b"\x1d" * 32
    a = linkability_tag(rh, b"msg", ch1)
    assert a == linkability_tag(rh, b"msg", ch1)
    assert a != linkability_tag(rh, b"msg", ch2)
    assert len(a) == 32


def test_linkability_tag_bad_lengths():
    with pytest.raises(ValueError):
        linkability_tag(b"\x00" * 31, b"m", b"\x00" * 32)
    with pytest.raises(ValueError):
        linkability_tag(b"\x00" * 32, b"m", b"\x00" * 31)
