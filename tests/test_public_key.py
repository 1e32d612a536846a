"""Public keys carry their canonical bytes.

decode_public_key unpacks v0 and v1 in one pass and keeps the bytes it
read as the key's encoding. The reference below is the two-step decoder it
replaced: it reads and checks v0, then v1, and rebuilds the encoding from
the fields. On every input both must return an equal key or raise the same
exception type with the same message.
"""

import copy
import dataclasses
import pickle
import random

import pytest

from chipmunkring import codec, hots
from chipmunkring.codec import (
    HEADER_BYTES,
    KIND_PUBLIC_KEY,
    MODE_MULTI,
    POLYNOMIAL_BYTES,
    decode_public_key,
    encode_public_key,
)
from chipmunkring.errors import CodecError, FieldError, TruncatedDataError
from chipmunkring.hots import PublicKey
from chipmunkring.params import N, Q
from chipmunkring.polyring import Polynomial
from chipmunkring.ringsig import Ring, ring_hash

rng = random.Random(0x9B1C)

V0 = HEADER_BYTES + 32  # offset of v0
V1 = V0 + POLYNOMIAL_BYTES  # offset of v1
END = V1 + POLYNOMIAL_BYTES


def reference_decode_public_key(data):
    r = codec._Reader(data)
    codec._read_header(r, KIND_PUBLIC_KEY)
    rho_seed = r.take(32)
    v0 = codec.decode_polynomial(r.take(POLYNOMIAL_BYTES))
    v1 = codec.decode_polynomial(r.take(POLYNOMIAL_BYTES))
    r.expect_end()
    return PublicKey(rho_seed=rho_seed, v0=v0, v1=v1)


def outcome(decode, data):
    try:
        return decode(data)
    except CodecError as e:
        return type(e), str(e)


def assert_same(data):
    got = outcome(decode_public_key, data)
    want = outcome(reference_decode_public_key, data)
    assert type(got) is type(want)
    if isinstance(want, PublicKey):
        assert got == want
        assert (got.rho_seed, got.v0, got.v1) == (want.rho_seed, want.v0, want.v1)
        assert got.encoded == want.encoded == codec.public_key_bytes(
            want.rho_seed, want.v0, want.v1)
    else:
        assert got == want
    return got


def set_coefficient(data, offset, slot, value):
    """data with 22-bit slot `slot` of the polynomial at `offset` set to value."""
    out = bytearray(data)
    start = offset * 8 + 22 * slot
    bits = int.from_bytes(out, "little")
    bits &= ~(((1 << 22) - 1) << start)
    bits |= value << start
    return bits.to_bytes(len(out), "little")


def with_mode(data, mode):
    return data[:HEADER_BYTES - 1] + bytes([mode]) + data[HEADER_BYTES:]


def test_decoder_matches_reference_on_valid_keys(key_pool):
    for _, pk in key_pool[:16]:
        assert assert_same(pk.encoded) == pk


def test_decoder_matches_reference_on_random_blobs(key_pool):
    data = key_pool[0][1].encoded
    for _ in range(300):
        body = rng.randbytes(END - HEADER_BYTES)
        if rng.random() < 0.5:  # mostly in-range coefficients
            body = bytes(b & rng.choice((0x7F, 0xFF)) for b in body)
        blob = data[:HEADER_BYTES] + body
        assert_same(blob[:rng.randrange(len(blob) + 8)])
        assert_same(rng.randbytes(rng.randrange(END + 4)))
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        assert_same(bytes(flipped))


def test_decoder_matches_reference_at_every_field_boundary(key_pool):
    data = key_pool[1][1].encoded
    for boundary in (0, 4, 6, 7, HEADER_BYTES, V0, V1, END):
        for cut in (boundary - 1, boundary, boundary + 1):
            if 0 <= cut <= END:
                assert_same(data[:cut])
    assert_same(data + b"\x00")
    assert_same(data + rng.randbytes(POLYNOMIAL_BYTES))
    for blob in (b"XHRS" + data[4:], data[:4] + b"\x02\x00" + data[6:],
                 data[:6] + b"\x03" + data[7:], with_mode(data, 3)):
        assert isinstance(assert_same(blob), tuple)


@pytest.mark.parametrize("slot", [0, 257, N - 1])
def test_bad_v0_coefficient_beats_truncated_v1(key_pool, slot):
    data = set_coefficient(key_pool[2][1].encoded, V0, slot, Q)
    for cut in (V1, V1 + 1, END - 1):
        got = assert_same(data[:cut])
        assert got == (FieldError, f"coefficient {Q} out of range [0, {Q})")
    assert assert_same(data[:V1 - 1])[0] is TruncatedDataError


@pytest.mark.parametrize("slot", [0, 300, N - 1])
def test_bad_v1_coefficient(key_pool, slot):
    data = key_pool[3][1].encoded
    bad = set_coefficient(data, V1, slot, (1 << 22) - 1)
    assert assert_same(bad) == (FieldError, f"coefficient {(1 << 22) - 1} out of range [0, {Q})")
    assert assert_same(bad + b"\x00")[0] is FieldError
    assert assert_same(bad[:-1])[0] is TruncatedDataError
    # the first bad coefficient in reading order is the one named
    both = set_coefficient(bad, V0, N - 1, Q + 1)
    assert assert_same(both) == (FieldError, f"coefficient {Q + 1} out of range [0, {Q})")


def test_mode_2_header_decodes_to_the_mode_1_key(key_pool):
    data = key_pool[4][1].encoded
    pk = assert_same(with_mode(data, MODE_MULTI))
    assert pk == key_pool[4][1]
    assert encode_public_key(pk) == data
    members = tuple(p for _, p in key_pool[5:8])
    assert ring_hash(Ring(members=members + (pk,))) == \
        ring_hash(Ring(members=members + (decode_public_key(data),)))


def test_keys_compare_and_hash_by_bytes(key_pool, single_params):
    sk, from_keygen = hots.keygen(b"\x5a" * 32, single_params)
    from_bytes = decode_public_key(bytearray(from_keygen.encoded))
    from_fields = PublicKey(rho_seed=from_keygen.rho_seed, v0=from_keygen.v0,
                            v1=from_keygen.v1)
    keys = [from_keygen, from_bytes, from_fields, sk.pk]
    keys += [pickle.loads(pickle.dumps(k)) for k in keys]
    keys += [copy.deepcopy(k) for k in keys]
    for k in keys:
        assert type(k.encoded) is bytes
        assert k.encoded == from_keygen.encoded
        assert k == from_keygen and hash(k) == hash(from_keygen)
    assert len(set(keys)) == 1

    coeffs = from_keygen.v1.coeffs.copy()
    coeffs[100] = (coeffs[100] + 1) % Q
    changed = PublicKey(rho_seed=from_keygen.rho_seed, v0=from_keygen.v0,
                        v1=Polynomial(coeffs=coeffs))
    assert changed != from_keygen and changed.encoded != from_keygen.encoded
    assert decode_public_key(changed.encoded) == changed
    # replace() rebuilds the bytes from the new fields
    assert dataclasses.replace(from_keygen, v1=changed.v1) == changed
    assert from_keygen != key_pool[0][1]
    assert from_keygen != from_keygen.encoded
