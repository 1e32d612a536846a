import dataclasses
import random
import struct

import numpy as np
import pytest

from chipmunkring import hots, threshold
from chipmunkring.codec import (
    HEADER_BYTES,
    MODE_MULTI,
    MODE_PARAMS,
    MODE_SINGLE,
    POLYNOMIAL_BYTES,
    decode_partial,
    decode_polynomial,
    decode_private_key,
    decode_public_key,
    decode_share,
    decode_signature,
    encode_partial,
    encode_polynomial,
    encode_private_key,
    encode_public_key,
    encode_share,
    encode_signature,
    public_key_bytes,
    signature_mode,
)
from chipmunkring.errors import (
    BadKindError,
    BadMagicError,
    BadVersionError,
    CodecError,
    FieldError,
    TruncatedDataError,
)
from chipmunkring.hots import ChipmunkSignature, PrivateKey
from chipmunkring.params import MAX_PARTICIPANTS, N, Q, RingParams, preset
from chipmunkring.polyring import Polynomial
from chipmunkring.ringsig import (
    MemberEntry,
    Ring,
    RingSignature,
    check_structure,
    ring_sign,
    ring_verify_report,
)
from chipmunkring.threshold import KeyShare, PartialSignature
from polyref import zero

rng = random.Random(0x0DEC)


def random_poly():
    return Polynomial(coeffs=tuple(rng.randrange(Q) for _ in range(N)))


def synthetic_signature(k, t=1, proof_size=64):
    """Structurally valid signature with arbitrary byte content."""
    entries = tuple(
        MemberEntry(
            randomness=rng.randbytes(32),
            acorn_proof=rng.randbytes(proof_size),
            linkability=rng.randbytes(32),
        )
        for _ in range(k)
    )
    return RingSignature(
        required_signers=t,
        challenge=rng.randbytes(32),
        per_member=entries,
        chipmunk_sig=ChipmunkSignature(sigma=random_poly()),
        threshold_zk_proofs=b"" if t == 1 else rng.randbytes(t * proof_size),
    )


#   Scalar reference codec: the original per-coefficient loops. The library
#   packs and unpacks with numpy; these pin its bytes, values and errors.

_MASK22 = (1 << 22) - 1


def reference_encode_polynomial(p) -> bytes:
    c = [int(v) for v in p.coeffs]  # Python ints: the shift by 66 needs > 64 bits
    out = bytearray()
    for i in range(0, N, 4):
        v = c[i] | (c[i + 1] << 22) | (c[i + 2] << 44) | (c[i + 3] << 66)
        out += v.to_bytes(11, "little")
    return bytes(out)


def reference_decode_polynomial(data: bytes):
    if len(data) != POLYNOMIAL_BYTES:
        raise TruncatedDataError(
            f"polynomial needs {POLYNOMIAL_BYTES} bytes, got {len(data)}"
        )
    coeffs = []
    for i in range(0, POLYNOMIAL_BYTES, 11):
        v = int.from_bytes(data[i:i + 11], "little")
        for k in range(4):
            c = (v >> (22 * k)) & _MASK22
            if c >= Q:
                raise FieldError(f"coefficient {c} out of range [0, {Q})")
            coeffs.append(c)
    return Polynomial(coeffs=tuple(coeffs))


def _outcome(decode, data):
    try:
        return decode(data)
    except (FieldError, TruncatedDataError) as exc:
        return type(exc), str(exc)


def test_polynomial_codec_matches_reference():
    polys = [random_poly() for _ in range(200)]
    polys += [zero(), Polynomial(coeffs=(Q - 1,) * N)]
    for p in polys:
        data = encode_polynomial(p)
        assert data == reference_encode_polynomial(p)
        decoded = decode_polynomial(data)
        assert decoded == reference_decode_polynomial(data) == p
        assert decoded.coeffs.dtype == np.int64 and decoded.coeffs.shape == (N,)
        assert not decoded.coeffs.flags.writeable


def _with_word(data: bytes, position: int, word: int) -> bytes:
    """Overwrite the 22-bit coefficient slot at position with word."""
    group, k = divmod(position, 4)
    v = int.from_bytes(data[11 * group:11 * group + 11], "little")
    v = (v & ~(_MASK22 << (22 * k))) | (word << (22 * k))
    return data[:11 * group] + v.to_bytes(11, "little") + data[11 * group + 11:]


@pytest.mark.parametrize("position", [0, 1, 2, 3, N // 2 + 1, N - 2, N - 1])
@pytest.mark.parametrize("word", [Q, Q + 1, _MASK22])
def test_polynomial_decode_hostile_word_matches_reference(position, word):
    # earlier slots stay legal, so both decoders must name this coefficient
    data = _with_word(encode_polynomial(random_poly()), position, word)
    want = (FieldError, f"coefficient {word} out of range [0, {Q})")
    assert _outcome(reference_decode_polynomial, data) == want
    assert _outcome(decode_polynomial, data) == want


def test_polynomial_decode_random_blobs_match_reference():
    for _ in range(300):
        data = rng.randbytes(POLYNOMIAL_BYTES)
        assert _outcome(decode_polynomial, data) == _outcome(
            reference_decode_polynomial, data)
    for size in (0, 11, POLYNOMIAL_BYTES - 1, POLYNOMIAL_BYTES + 1):
        data = rng.randbytes(size)
        assert _outcome(decode_polynomial, data) == _outcome(
            reference_decode_polynomial, data)


def test_polynomial_roundtrip_1000():
    for _ in range(1000):
        p = random_poly()
        assert decode_polynomial(encode_polynomial(p)) == p


def test_polynomial_zero_encoding():
    data = encode_polynomial(zero())
    assert data == b"\x00" * POLYNOMIAL_BYTES


def test_polynomial_length():
    assert POLYNOMIAL_BYTES == (512 * 22 + 7) // 8 == 1408
    assert len(encode_polynomial(random_poly())) == 1408


def test_polynomial_out_of_range_coeff_rejected():
    # first 22-bit slot holds exactly Q, which is not a legal coefficient
    bad = (Q).to_bytes(11, "little") + b"\x00" * (POLYNOMIAL_BYTES - 11)
    with pytest.raises(FieldError):
        decode_polynomial(bad)


def test_polynomial_wrong_length_rejected():
    with pytest.raises(TruncatedDataError):
        decode_polynomial(b"\x00" * (POLYNOMIAL_BYTES - 1))


def test_public_key_roundtrip(key_pool):
    for sk, pk in key_pool[:8]:
        assert decode_public_key(encode_public_key(pk)) == pk


def test_private_key_roundtrip(key_pool):
    for sk, pk in key_pool[:8]:
        assert decode_private_key(encode_private_key(sk)) == sk


def test_private_key_tr_is_checked(key_pool):
    sk, _ = key_pool[0]
    data = bytearray(encode_private_key(sk))
    data[HEADER_BYTES + 32] ^= 0x01  # first byte of tr
    with pytest.raises(FieldError):
        decode_private_key(bytes(data))


def test_private_key_must_hold_the_key_its_secrets_produce(key_pool):
    alice, bob = key_pool[0][0], key_pool[1][1]
    blob = encode_private_key(dataclasses.replace(alice, pk=bob))  # tr follows pk
    with pytest.raises(FieldError) as refused:
        decode_private_key(blob)
    assert str(refused.value) == "embedded public key is not the one the secrets produce"
    # the key is rebuilt from the rho_seed it carries: any rho_seed is sound
    other = hots.keypair_from_secrets(bytes(32), alice.s0, alice.s1)[0]
    assert decode_private_key(encode_private_key(other)) == other


def test_an_embedded_mode_2_key_is_refused_as_every_kind_is(key_pool):
    # only a standalone public key may spell its mode byte 2
    sk, pk = key_pool[0]
    share = threshold.deal_shares(sk, 2, 3, b"\x26" * 32)[0]
    for blob, decode in ((encode_private_key(sk), decode_private_key),
                         (encode_share(share), decode_share)):
        mutated = bytearray(blob)
        mutated[len(blob) - len(pk.encoded) + HEADER_BYTES - 1] = MODE_MULTI
        with pytest.raises(FieldError) as refused:
            decode(bytes(mutated))
        assert str(refused.value) == "kind 1 is never written in mode 2"


def test_signature_roundtrip_single():
    for k in (2, 4, 64):
        sig = synthetic_signature(k)
        assert decode_signature(encode_signature(sig)) == sig


def test_signature_roundtrip_threshold():
    sig = synthetic_signature(8, t=3, proof_size=96)
    assert decode_signature(encode_signature(sig)) == sig


def test_signature_size_formula():
    # fixed overhead: header(8) + 4 + challenge(32) + sigma(1408) + 4; a record
    # is randomness(32) | proof | linkability(32), and a threshold block holds
    # t proofs. The README's size column states 64- and 96-byte proofs.
    for name, mode, proof_size in (("single", MODE_SINGLE, 64), ("multi", MODE_MULTI, 96)):
        assert preset(name).proof_size == proof_size
        sig = decode_signature(encode_signature(synthetic_signature(2, proof_size=proof_size)))
        assert signature_mode(sig) == mode
        assert {len(e.acorn_proof) for e in sig.per_member} == {proof_size}
    for k in (2, 3, 17, 64):
        assert len(encode_signature(synthetic_signature(k))) == 1456 + 128 * k
    assert len(encode_signature(synthetic_signature(4, t=2, proof_size=96))) \
        == 1456 + 160 * 4 + 2 * 96
    for k in (2, 64):
        for t in (2, k):
            sig = synthetic_signature(k, t=t, proof_size=96)
            assert len(encode_signature(sig)) == 1456 + 160 * k + 96 * t


def test_signature_size_affine_in_k():
    single = [len(encode_signature(synthetic_signature(k))) for k in range(2, 65)]
    diffs = {b - a for a, b in zip(single, single[1:])}
    assert diffs == {128}
    multi = [len(encode_signature(synthetic_signature(k, t=2, proof_size=96)))
             for k in range(2, 65)]
    diffs = {b - a for a, b in zip(multi, multi[1:])}
    assert diffs == {160}


def test_signature_inconsistent_threshold_block_rejected():
    sig = synthetic_signature(4, t=2, proof_size=96)
    bad = RingSignature(
        required_signers=sig.required_signers,
        challenge=sig.challenge,
        per_member=sig.per_member,
        chipmunk_sig=sig.chipmunk_sig,
        threshold_zk_proofs=sig.threshold_zk_proofs[:-1],
    )
    with pytest.raises(FieldError):
        encode_signature(bad)


def test_decode_bad_magic():
    sig = encode_signature(synthetic_signature(2))
    with pytest.raises(BadMagicError):
        decode_signature(b"XHRS" + sig[4:])


def test_decode_bad_version():
    sig = encode_signature(synthetic_signature(2))
    with pytest.raises(BadVersionError):
        decode_signature(sig[:4] + b"\x09\x00" + sig[6:])


def test_decode_wrong_kind(key_pool):
    _, pk = key_pool[0]
    with pytest.raises(BadKindError):
        decode_signature(encode_public_key(pk))


def test_decode_threshold_length_field_mismatch():
    data = bytearray(encode_signature(synthetic_signature(4, t=2, proof_size=96)))
    # threshold block length field sits right before the block
    offset = len(data) - 2 * 96 - 4
    data[offset] ^= 0x01
    with pytest.raises(FieldError):
        decode_signature(bytes(data))


def test_truncation_at_every_offset_public_key(key_pool):
    _, pk = key_pool[0]
    data = encode_public_key(pk)
    for cut in range(len(data)):
        with pytest.raises(CodecError):
            decode_public_key(data[:cut])


def test_truncation_at_every_offset_signature():
    data = encode_signature(synthetic_signature(2))
    for cut in range(len(data)):
        with pytest.raises(CodecError):
            decode_signature(data[:cut])


def test_trailing_bytes_rejected():
    data = encode_signature(synthetic_signature(2))
    with pytest.raises(FieldError):
        decode_signature(data + b"\x00")


def test_share_roundtrip(key_pool):
    sk, _ = key_pool[0]
    shares = threshold.deal_shares(sk, 2, 3, b"\x20" * 32)
    for share in shares:
        assert decode_share(encode_share(share)) == share


def test_partial_roundtrip(key_pool, multi_params):
    sk, _ = key_pool[0]
    shares = threshold.deal_shares(sk, 2, 3, b"\x21" * 32)
    partial = threshold.partial_sign(shares[0], b"\x42" * 32, multi_params)
    assert decode_partial(encode_partial(partial)) == partial


def test_share_bad_config_rejected(key_pool):
    sk, _ = key_pool[0]
    share = threshold.deal_shares(sk, 2, 3, b"\x22" * 32)[0]
    data = bytearray(encode_share(share))
    data[HEADER_BYTES] = 0  # participant_x low byte -> 0, out of range
    with pytest.raises(FieldError):
        decode_share(bytes(data))


def _patched(data, fmt, *values):
    """data with the fields right after the header overwritten."""
    out = bytearray(data)
    field = struct.pack(fmt, *values)
    out[HEADER_BYTES:HEADER_BYTES + len(field)] = field
    return bytes(out)


@pytest.mark.parametrize("kind, fmt, values, message", [
    ("signature", "<HH", (1, 1), "ring_size 1 out of range [2, 64]"),
    ("signature", "<HH", (65, 1), "ring_size 65 out of range [2, 64]"),
    ("signature", "<HH", (2, 0), "required_signers 0 out of range [1, 64]"),
    ("signature", "<HH", (2, 65), "required_signers 65 out of range [1, 64]"),
    ("share", "<HHH", (1, 2, 65), "invalid threshold configuration t=2, n=65"),
    ("partial", "<H", (65,), "participant_x 65 out of range [1, 64]"),
])
def test_decoder_size_bound_messages(key_pool, multi_params, kind, fmt, values, message):
    share = threshold.deal_shares(key_pool[0][0], 2, 3, b"\x23" * 32)[0]
    blob, decode = {
        "signature": (encode_signature(synthetic_signature(2)), decode_signature),
        "share": (encode_share(share), decode_share),
        "partial": (encode_partial(threshold.partial_sign(share, b"\x43" * 32,
                                                          multi_params)),
                    decode_partial),
    }[kind]
    with pytest.raises(FieldError) as info:
        decode(_patched(blob, fmt, *values))
    assert str(info.value) == message


def test_roundtrip_bijectivity_1000_per_kind():
    # synthetic objects: codec contracts require structural validity, and
    # algebraic consistency only of a private key's embedded public key
    def random_pk():
        return hots.PublicKey(public_key_bytes(rng.randbytes(32), random_poly().coeffs,
                                               random_poly().coeffs))

    for _ in range(1000):
        pk = random_pk()
        assert decode_public_key(encode_public_key(pk)) == pk

    for _ in range(1000):
        sk = dataclasses.replace(hots.keypair_from_secrets(rng.randbytes(32), random_poly(),
                                                           random_poly())[0],
                                 seed=rng.randbytes(32))
        assert decode_private_key(encode_private_key(sk)) == sk

    for _ in range(1000):
        t = rng.choice([1, 1, 2, 5])
        sig = synthetic_signature(
            rng.randrange(2, 65), t=t, proof_size=64 if t == 1 else 96
        )
        assert decode_signature(encode_signature(sig)) == sig

    for _ in range(1000):
        n = rng.randrange(1, 65)
        share = KeyShare(
            participant_x=rng.randrange(1, n + 1),
            s0_share=random_poly(),
            s1_share=random_poly(),
            pk=random_pk(),
            n_participants=n,
            threshold_t=rng.randrange(1, n + 1),
        )
        assert decode_share(encode_share(share)) == share

    for _ in range(1000):
        partial = PartialSignature(
            participant_x=rng.randrange(1, 65),
            sigma_share=random_poly(),
            acorn_proof=rng.randbytes(96),
        )
        assert decode_partial(encode_partial(partial)) == partial


def test_every_header_byte_either_fails_or_re_encodes(key_pool, multi_params):
    # a decoder accepts exactly the header bytes its encoder writes; the one
    # alias is a standalone public key's mode 2, which re-encodes as mode 1
    sk, pk = key_pool[0]
    share = threshold.deal_shares(sk, 2, 3, b"\x24" * 32)[0]
    partial = threshold.partial_sign(share, b"\x44" * 32, multi_params)
    key_bytes = len(encode_public_key(pk))
    cases = [
        (encode_public_key(pk), decode_public_key, encode_public_key),
        (encode_private_key(sk), decode_private_key, encode_private_key),
        (encode_signature(synthetic_signature(2)), decode_signature, encode_signature),
        (encode_signature(synthetic_signature(3, t=2, proof_size=96)), decode_signature,
         encode_signature),
        (encode_share(share), decode_share, encode_share),
        (encode_partial(partial), decode_partial, encode_partial),
    ]
    for blob, decode, encode in cases:
        positions = list(range(HEADER_BYTES))
        if decode in (decode_private_key, decode_share):
            positions.append(len(blob) - key_bytes + 7)  # the embedded key's mode byte
        for position in positions:
            for value in range(256):
                mutated = bytearray(blob)
                mutated[position] = value
                try:
                    decoded = decode(bytes(mutated))
                except CodecError:
                    continue
                alias = decode is decode_public_key and position == 7 and value == MODE_MULTI
                assert encode(decoded) == (blob if alias else mutated), (
                    decode.__name__, position, value)


def test_signature_mode_follows_proof_length():
    assert signature_mode(synthetic_signature(2)) == MODE_SINGLE
    assert signature_mode(synthetic_signature(2, t=2, proof_size=96)) == MODE_MULTI
    with pytest.raises(FieldError, match="proof length 80 matches no params mode"):
        signature_mode(synthetic_signature(2, proof_size=80))


def test_mode_byte_names_one_parameter_set_both_ways(key_pool):
    # each mode byte maps to its member, and a signature signed under each
    # member is encoded under, and maps back to, that member's mode byte
    assert MODE_PARAMS == {MODE_SINGLE: RingParams.SINGLE, MODE_MULTI: RingParams.MULTI}
    assert set(MODE_PARAMS.values()) == set(RingParams)
    ring = Ring(members=tuple(pk for _, pk in key_pool[:3]))
    for mode, params in MODE_PARAMS.items():
        sig = ring_sign(key_pool[1][0], 1, b"mode byte", ring, b"\x4d" * 32, params)
        data = encode_signature(sig)
        assert data[HEADER_BYTES - 1] == mode
        assert signature_mode(decode_signature(data)) == mode
        assert MODE_PARAMS[signature_mode(sig)] is params


@pytest.mark.parametrize("change, message", [
    ({"per_member": (MemberEntry(bytes(32), bytes(64), bytes(32)),)},
     r"ring_size 1 out of range \[2, 64\]"),
    ({"threshold_zk_proofs": b"\x00" * 64}, "threshold block is 64 bytes, expected 0"),
])
def test_encode_signature_rejects_inconsistent_fields(change, message):
    sig = dataclasses.replace(synthetic_signature(4), **change)
    with pytest.raises(FieldError, match=message):
        encode_signature(sig)


def with_record(sig, i, **fields):
    entries = list(sig.per_member)
    entries[i] = dataclasses.replace(entries[i], **fields)
    return dataclasses.replace(sig, per_member=tuple(entries))


def shifted_challenge(sig):
    """sig with its challenge's last byte moved to the front of the first
    record's randomness: the same bytes back to back, in the wrong fields."""
    moved = dataclasses.replace(sig, challenge=sig.challenge[:-1])
    return with_record(moved, 0, randomness=sig.challenge[-1:] + sig.per_member[0].randomness)


@pytest.mark.parametrize("encode, make, message", [
    pytest.param(encode_signature, lambda sig, pk: dataclasses.replace(
        sig, per_member=sig.per_member * 17), "ring_size 68 out of range [2, 64]",
        id="68 records"),
    pytest.param(encode_signature, lambda sig, pk: dataclasses.replace(
        sig, required_signers=0), "required_signers 0 out of range [1, 64]", id="t=0"),
    pytest.param(encode_signature, lambda sig, pk: dataclasses.replace(
        sig, required_signers=70, threshold_zk_proofs=bytes(70 * 64)),
        "required_signers 70 out of range [1, 64]", id="t=70"),
    pytest.param(encode_signature, lambda sig, pk: shifted_challenge(sig),
                 "challenge length mismatch", id="31-byte challenge"),
    pytest.param(encode_signature, lambda sig, pk: with_record(sig, 2, randomness=bytes(31)),
                 "randomness length mismatch at member 2", id="randomness"),
    pytest.param(encode_signature, lambda sig, pk: with_record(sig, 2, acorn_proof=bytes(96)),
                 "proof length mismatch at member 2", id="proof"),
    pytest.param(encode_signature, lambda sig, pk: with_record(sig, 3, linkability=bytes(33)),
                 "linkability tag length mismatch at member 3", id="linkability"),
    pytest.param(encode_signature, lambda sig, pk: dataclasses.replace(
        sig, threshold_zk_proofs=bytes(64)), "threshold block is 64 bytes, expected 0",
        id="block at t=1"),
    pytest.param(encode_signature, lambda sig, pk: dataclasses.replace(
        synthetic_signature(4, t=2, proof_size=96), threshold_zk_proofs=bytes(191)),
        "threshold block is 191 bytes, expected 192", id="short block at t=2"),
    pytest.param(encode_partial, lambda sig, pk: PartialSignature(
        participant_x=1, sigma_share=sig.chipmunk_sig.sigma, acorn_proof=bytes(64)),
        "proof length 64 inconsistent with mode 2", id="partial proof"),
    pytest.param(encode_partial, lambda sig, pk: PartialSignature(
        participant_x=0, sigma_share=sig.chipmunk_sig.sigma, acorn_proof=bytes(96)),
        "participant_x 0 out of range [1, 64]", id="partial x"),
    pytest.param(encode_share, lambda sig, pk: KeyShare(
        participant_x=9, s0_share=sig.chipmunk_sig.sigma, s1_share=sig.chipmunk_sig.sigma,
        pk=pk, n_participants=3, threshold_t=2),
        "participant_x 9 out of range [1, 3]", id="share x"),
    pytest.param(encode_share, lambda sig, pk: KeyShare(
        participant_x=1, s0_share=sig.chipmunk_sig.sigma, s1_share=sig.chipmunk_sig.sigma,
        pk=pk, n_participants=3, threshold_t=4),
        "invalid threshold configuration t=4, n=3", id="share t"),
    pytest.param(encode_private_key, lambda sig, pk: PrivateKey(
        seed=bytes(31), s0=sig.chipmunk_sig.sigma, s1=sig.chipmunk_sig.sigma, pk=pk),
        "seed must be 32 bytes, got 31", id="private key seed"),
    pytest.param(lambda args: public_key_bytes(*args), lambda sig, pk: (
        bytes(31), pk.v0, pk.v1), "rho_seed must be 32 bytes, got 31", id="public key rho_seed"),
])
def test_encoders_refuse_what_decoders_refuse(key_pool, encode, make, message):
    obj = make(synthetic_signature(4), key_pool[0][1])
    with pytest.raises(FieldError) as refused:
        encode(obj)
    assert str(refused.value) == message
    if encode is encode_signature and len(obj.per_member) == 4 \
            and 1 <= obj.required_signers <= MAX_PARTICIPANTS:
        # the counts are in range, so the fault is in a field's length: the
        # verifier's structural stage names it in the same words
        ring = Ring(members=tuple(pk for _, pk in key_pool[:4]))
        assert check_structure(obj, ring, MODE_PARAMS[signature_mode(obj)]) == message


#   Every decoder copies a bytes-like input once: what it returns holds bytes
#   of its own, whichever buffer the caller passed.

def bytes_fields(obj):
    """Each bytes field a decoded object holds, by name."""
    if isinstance(obj, hots.PublicKey):
        return {"encoded": obj.encoded}
    if isinstance(obj, PrivateKey):
        return {"seed": obj.seed, "tr": obj.tr, "pk.encoded": obj.pk.encoded}
    if isinstance(obj, KeyShare):
        return {"pk.encoded": obj.pk.encoded}
    if isinstance(obj, PartialSignature):
        return {"acorn_proof": obj.acorn_proof}
    fields = {"challenge": obj.challenge, "block": obj.threshold_zk_proofs}
    for i, entry in enumerate(obj.per_member):
        fields.update({f"per_member[{i}].{f.name}": getattr(entry, f.name)
                       for f in dataclasses.fields(entry)})
    return fields


def test_every_decoder_copies_a_bytes_like_input(key_pool, multi_params):
    sk, pk = key_pool[0]
    share = threshold.deal_shares(sk, 2, 3, b"\x25" * 32)[0]
    partial = threshold.partial_sign(share, b"\x45" * 32, multi_params)
    cases = [
        (encode_public_key(pk), decode_public_key),
        (encode_private_key(sk), decode_private_key),
        (encode_signature(synthetic_signature(3, t=2, proof_size=96)), decode_signature),
        (encode_share(share), decode_share),
        (encode_partial(partial), decode_partial),
    ]
    for blob, decode in cases:
        decoded = [decode(source) for source in
                   (blob, bytearray(blob), memoryview(bytearray(blob)))]
        assert decoded[0] == decoded[1] == decoded[2], decode.__name__
        for obj in decoded:
            types = {name: type(value) for name, value in bytes_fields(obj).items()}
            assert types == dict.fromkeys(types, bytes), decode.__name__


def test_a_decoded_signature_outlives_the_callers_buffer(key_pool, single_params):
    ring = Ring(members=tuple(pk for _, pk in key_pool[:4]))
    blob = encode_signature(ring_sign(key_pool[2][0], 2, b"buffer", ring, b"\x4e" * 32,
                                      single_params))
    for source in (bytearray(blob), memoryview(bytearray(blob))):
        decoded = decode_signature(source)
        source[12] ^= 1  # the challenge's first byte
        source[HEADER_BYTES + 36:] = bytes(len(blob) - HEADER_BYTES - 36)
        assert ring_verify_report(decoded, b"buffer", ring, single_params).ok
        assert encode_signature(decoded) == blob
