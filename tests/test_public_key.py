"""A public key is its canonical bytes.

decode_public_key rewrites a mode byte 2 to 1, reads rho_seed, v0 and v1
in wire order and keeps the bytes it read as the key's encoding. The
reference below does the same rewrite and reads the same fields the same
way, but rebuilds the encoding from them. On every input both must return
an equal key or raise the same exception type with the same message, and
the PublicKey constructor must refuse every input they refuse, alike.

decode_public_key is memoised on its input bytes (an LRU of 256 keys), and a
key keeps its root values once computed, and nothing else besides its
bytes; the tests at the end pin these.
"""

import copy
import dataclasses
import pickle
import random
import tracemalloc

import pytest

from chipmunkring import codec, hots
from chipmunkring.codec import (
    HEADER_BYTES,
    KIND_PUBLIC_KEY,
    MODE_MULTI,
    MODE_SINGLE,
    POLYNOMIAL_BYTES,
    decode_public_key,
    encode_public_key,
)
from chipmunkring.errors import CodecError, FieldError, TruncatedDataError
from chipmunkring.hots import PublicKey
from chipmunkring.params import N, Q
from chipmunkring.polyring import Polynomial, ntt_forward
from chipmunkring.ringsig import Ring, core_matches, ring_hash, ring_sign
from chipmunkring.threshold import deal_shares

rng = random.Random(0x9B1C)

V0 = HEADER_BYTES + 32  # offset of v0
V1 = V0 + POLYNOMIAL_BYTES  # offset of v1
END = V1 + POLYNOMIAL_BYTES


def reference_decode_public_key(data):
    data = bytes(data)
    if data[7:8] == bytes([MODE_MULTI]):  # the alias: mode 2 reads as mode 1
        data = data[:7] + bytes([MODE_SINGLE]) + data[8:]
    r = codec._Reader(data)
    codec._read_header(r, KIND_PUBLIC_KEY)
    rho_seed = r.take(32)
    v0 = codec.decode_polynomial(r.take(POLYNOMIAL_BYTES))
    v1 = codec.decode_polynomial(r.take(POLYNOMIAL_BYTES))
    r.expect_end()
    return PublicKey(codec.public_key_bytes(rho_seed, v0.coeffs, v1.coeffs))


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
            want.rho_seed, want.v0.coeffs, want.v1.coeffs)
    else:
        assert got == want == outcome(PublicKey, data)  # the constructor refuses alike
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
    with pytest.raises(FieldError, match="kind 1 is never written in mode 2"):
        PublicKey(with_mode(data, MODE_MULTI))  # only the decoder rewrites mode 2
    members = tuple(p for _, p in key_pool[5:8])
    assert ring_hash(Ring(members=members + (pk,))) == \
        ring_hash(Ring(members=members + (decode_public_key(data),)))


def test_keys_compare_and_hash_by_bytes(key_pool, single_params):
    sk, from_keygen = hots.keygen(b"\x5a" * 32, single_params)
    from_bytes = decode_public_key(bytearray(from_keygen.encoded))
    from_fields = PublicKey(codec.public_key_bytes(
        from_keygen.rho_seed, from_keygen.v0.coeffs, from_keygen.v1.coeffs))
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
    changed = PublicKey(codec.public_key_bytes(from_keygen.rho_seed,
                                               from_keygen.v0.coeffs, coeffs))
    assert changed != from_keygen and changed.encoded != from_keygen.encoded
    assert decode_public_key(changed.encoded) == changed
    assert changed.v1 == Polynomial(coeffs=coeffs) and changed.v0 == from_keygen.v0
    assert dataclasses.replace(from_keygen, encoded=changed.encoded) == changed
    assert from_keygen != key_pool[0][1]
    assert from_keygen != from_keygen.encoded


#   The decode memo: one LRU of 256 keys, keyed on the input bytes.

@pytest.fixture
def empty_memo():
    codec._decode_public_key.cache_clear()
    yield codec._decode_public_key.cache_info
    codec._decode_public_key.cache_clear()


def with_rho_seed(data, i):
    """data with another rho_seed: a distinct, valid key encoding."""
    return data[:HEADER_BYTES] + i.to_bytes(32, "little") + data[V0:]


def test_same_bytes_decode_to_the_same_key(key_pool, empty_memo):
    data = key_pool[11][1].encoded
    pk = decode_public_key(data)
    assert pk.encoded is data  # the cache and the key share one copy of the bytes
    assert decode_public_key(data) is pk
    assert decode_public_key(bytearray(data)) is pk
    assert decode_public_key(memoryview(data)) is pk
    assert decode_public_key(memoryview(bytearray(data))) is pk
    assert type(pk.rho_seed) is bytes and type(pk.encoded) is bytes
    with pytest.raises(TypeError):
        PublicKey(bytearray(data))  # a key's bytes cannot change under it
    assert empty_memo().currsize == 1 and empty_memo().hits == 4
    # a later change to the caller's buffer does not reach the cached key
    buf = bytearray(key_pool[12][1].encoded)
    other = decode_public_key(buf)
    buf[V0] ^= 1
    assert other == key_pool[12][1] and decode_public_key(buf) != other


def test_hostile_bytes_raise_the_same_error_every_time(key_pool, empty_memo):
    data = key_pool[13][1].encoded
    hostile = [data[:V1 + 5], data[:3], b"XHRS" + data[4:],
               set_coefficient(data, V0, 7, Q), set_coefficient(data, V1, 511, Q + 9)]
    for blob in hostile:
        for source in (blob, bytearray(blob), memoryview(blob)):
            first = outcome(decode_public_key, source)
            assert isinstance(first, tuple)
            assert outcome(decode_public_key, source) == first
            assert first == outcome(reference_decode_public_key, blob)
    assert empty_memo().currsize == 0


def test_memo_holds_the_256_most_recent_keys(key_pool, empty_memo):
    data = key_pool[14][1].encoded
    blobs = [with_rho_seed(data, i) for i in range(257)]
    keys = [decode_public_key(b) for b in blobs]
    assert len(set(keys)) == 257
    assert empty_memo().currsize == 256 and empty_memo().misses == 257
    assert decode_public_key(blobs[-1]) is keys[-1]
    again = decode_public_key(blobs[0])  # evicted: decoded anew
    assert again is not keys[0] and again == keys[0]
    assert empty_memo().misses == 258 and empty_memo().currsize == 256


@pytest.mark.usefixtures("empty_memo")
def test_mode_2_header_shares_the_mode_1_entry(key_pool):
    data = key_pool[15][1].encoded
    multi = decode_public_key(with_mode(data, MODE_MULTI))
    assert decode_public_key(with_mode(data, MODE_MULTI)) is multi
    assert decode_public_key(data) is multi
    assert multi == key_pool[15][1] and multi.encoded == data


@pytest.mark.usefixtures("empty_memo")
def test_embedded_keys_go_through_the_memo(key_pool):
    sk, pk = key_pool[16]
    decoded = codec.decode_private_key(codec.encode_private_key(sk))
    assert decoded.pk is decode_public_key(pk.encoded)
    share = deal_shares(sk, 2, 3, b"\x31" * 32)[1]
    assert codec.decode_share(codec.encode_share(share)).pk is decoded.pk


#   Root values live on the key object, outside its fields.

def test_root_values_are_computed_once(key_pool, monkeypatch):
    pk = decode_public_key(key_pool[17][1].encoded)
    expanded = []
    real = hots.expand_matrix

    def counted(seed):
        expanded.append(seed)
        return real(seed)

    monkeypatch.setattr(hots, "expand_matrix", counted)
    values = pk.root_values
    assert pk.root_values is values
    assert expanded == [pk.rho_seed]  # one key at a time, once
    assert type(values) is tuple and len(values) == 3
    assert all(type(v) is int and 0 <= v < Q for v in values)
    want = ntt_forward((real(pk.rho_seed).coeffs, pk.v0.coeffs, pk.v1.coeffs))[:, 0]
    assert list(values) == want.tolist()


def test_root_values_are_not_part_of_the_key(key_pool):
    src = key_pool[18][1]
    pk = PublicKey(src.encoded)
    assert [f.name for f in dataclasses.fields(pk)] == ["encoded"]
    before = (repr(pk), hash(pk), pickle.dumps(pk))
    values = pk.root_values
    assert (repr(pk), hash(pk), pickle.dumps(pk)) == before
    assert pk == src
    for copied in (pickle.loads(pickle.dumps(pk)), copy.deepcopy(pk),
                   dataclasses.replace(pk)):
        assert copied is not pk
        assert copied == pk and hash(copied) == hash(pk)
        assert "root_values" not in vars(copied)
        assert copied.root_values == values


def test_keygen_keys_compute_root_values_only_for_a_core_check(key_pool, single_params):
    sk, pk = hots.keygen(b"\x5b" * 32, single_params)
    ring = Ring(members=(pk,) + tuple(p for _, p in key_pool[:3]))
    sig = ring_sign(sk, 0, b"m", ring, b"\x01" * 32, single_params)
    assert "root_values" not in vars(pk)
    assert core_matches(sig, ring) == [0]
    assert "root_values" in vars(pk)


def test_a_key_holds_only_its_bytes(key_pool, single_params):
    _, from_keygen = hots.keygen(b"\x5c" * 32, single_params)
    for pk in (from_keygen, decode_public_key(key_pool[19][1].encoded)):
        assert list(vars(pk)) == ["encoded"]
        pk.rho_seed, pk.v0, pk.v1  # views: read, not kept
        assert list(vars(pk)) == ["encoded"]
        pk.root_values
        assert list(vars(pk)) == ["encoded", "root_values"]


def test_a_decoded_key_retains_little_beyond_its_bytes(key_pool, empty_memo):
    """256 keys with root values, as a full memo holds them, keep at most
    1 KB each besides their input bytes (two int64 polynomials are 8 KB)."""
    data = key_pool[20][1].encoded
    blobs = [with_rho_seed(data, i) for i in range(256)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keys = [decode_public_key(b) for b in blobs]
        for pk in keys:
            pk.root_values
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(pk.encoded is b for pk, b in zip(keys, blobs))
    assert empty_memo().currsize == 256
    assert retained <= 1024 * len(keys)
