import dataclasses
import random

import pytest

from chipmunkring import codec, ringsig
from chipmunkring.errors import RingSizeError, SignerNotInRingError
from chipmunkring.ringsig import (
    Ring,
    ring_hash,
    ring_sign,
    ring_verify,
    ring_verify_report,
)

rng = random.Random(0x516)

MSG = b"the quick brown fox signs a ring"
ENTROPY = b"\x5a" * 32


def make_ring(key_pool, k):
    return Ring(members=tuple(pk for _, pk in key_pool[:k]))


def test_ring_size_limits(key_pool):
    with pytest.raises(RingSizeError):
        Ring(members=(key_pool[0][1],))
    with pytest.raises(RingSizeError):
        Ring(members=tuple(pk for _, pk in key_pool) + (key_pool[0][1],))


def test_ring_hash_deterministic(key_pool):
    r = make_ring(key_pool, 4)
    assert ring_hash(r) == ring_hash(r)
    assert len(ring_hash(r)) == 32


def test_ring_hash_order_sensitive(key_pool):
    members = tuple(pk for _, pk in key_pool[:4])
    swapped = (members[1], members[0]) + members[2:]
    assert ring_hash(Ring(members=members)) != ring_hash(Ring(members=swapped))


@pytest.mark.parametrize("k", [2, 4, 8])
def test_completeness_all_positions(key_pool, single_params, k):
    ring = make_ring(key_pool, k)
    for idx in range(k):
        sig = ring_sign(key_pool[idx][0], idx, MSG, ring, ENTROPY, single_params)
        assert ring_verify(sig, MSG, ring, single_params)


def test_sign_deterministic(key_pool, single_params):
    ring = make_ring(key_pool, 4)
    a = ring_sign(key_pool[2][0], 2, MSG, ring, ENTROPY, single_params)
    b = ring_sign(key_pool[2][0], 2, MSG, ring, ENTROPY, single_params)
    assert codec.encode_signature(a) == codec.encode_signature(b)


def test_anonymity_per_member_records_identical(key_pool, single_params):
    # commitments depend only on public data and entropy, never on the signer
    ring = make_ring(key_pool, 4)
    sig0 = ring_sign(key_pool[0][0], 0, MSG, ring, ENTROPY, single_params)
    sig1 = ring_sign(key_pool[1][0], 1, MSG, ring, ENTROPY, single_params)
    assert sig0.per_member == sig1.per_member
    assert sig0.challenge == sig1.challenge
    assert sig0.chipmunk_sig != sig1.chipmunk_sig
    assert ring_verify(sig0, MSG, ring, single_params)
    assert ring_verify(sig1, MSG, ring, single_params)


def test_sign_wrong_position(key_pool, single_params):
    ring = make_ring(key_pool, 4)
    with pytest.raises(SignerNotInRingError):
        ring_sign(key_pool[0][0], 1, MSG, ring, ENTROPY, single_params)
    with pytest.raises(SignerNotInRingError):
        ring_sign(key_pool[0][0], 7, MSG, ring, ENTROPY, single_params)


def test_sign_requires_nonempty_message(key_pool, single_params):
    ring = make_ring(key_pool, 2)
    with pytest.raises(ValueError):
        ring_sign(key_pool[0][0], 0, b"", ring, ENTROPY, single_params)


def test_verify_rejects_message_flip(key_pool, single_params):
    ring = make_ring(key_pool, 4)
    sig = ring_sign(key_pool[0][0], 0, MSG, ring, ENTROPY, single_params)
    bad = bytearray(MSG)
    bad[0] ^= 0x01
    report = ring_verify_report(sig, bytes(bad), ring, single_params)
    assert not report.ok and report.reason == "challenge"


def test_verify_rejects_foreign_core_signature(key_pool, single_params):
    # core signature swapped for one under a key outside the ring
    from chipmunkring import hots

    ring = make_ring(key_pool, 4)
    sig = ring_sign(key_pool[0][0], 0, MSG, ring, ENTROPY, single_params)
    outsider_sk, _ = key_pool[10]
    forged = dataclasses.replace(
        sig, chipmunk_sig=hots.sign(outsider_sk, sig.challenge, single_params)
    )
    report = ring_verify_report(forged, MSG, ring, single_params)
    assert not report.ok and report.reason == "core"


def test_verify_rejects_linkability_tamper(key_pool, single_params):
    ring = make_ring(key_pool, 4)
    sig = ring_sign(key_pool[0][0], 0, MSG, ring, ENTROPY, single_params)
    tampered_entry = dataclasses.replace(
        sig.per_member[2], linkability=bytes(32)
    )
    entries = sig.per_member[:2] + (tampered_entry,) + sig.per_member[3:]
    forged = dataclasses.replace(sig, per_member=entries)
    report = ring_verify_report(forged, MSG, ring, single_params)
    assert not report.ok and report.reason == "linkability"


def test_verify_rejects_randomness_or_proof_tamper(key_pool, single_params):
    ring = make_ring(key_pool, 4)
    sig = ring_sign(key_pool[0][0], 0, MSG, ring, ENTROPY, single_params)
    for field in ("randomness", "acorn_proof"):
        blob = bytearray(getattr(sig.per_member[1], field))
        blob[3] ^= 0x40
        entry = dataclasses.replace(sig.per_member[1], **{field: bytes(blob)})
        entries = sig.per_member[:1] + (entry,) + sig.per_member[2:]
        forged = dataclasses.replace(sig, per_member=entries)
        report = ring_verify_report(forged, MSG, ring, single_params)
        assert not report.ok and report.reason == "challenge"


def test_verify_rejects_ring_mismatch(key_pool, single_params):
    ring = make_ring(key_pool, 4)
    other = Ring(members=tuple(pk for _, pk in key_pool[1:5]))
    sig = ring_sign(key_pool[0][0], 0, MSG, ring, ENTROPY, single_params)
    report = ring_verify_report(sig, MSG, other, single_params)
    assert not report.ok and report.reason == "challenge"


def test_verify_structural_on_threshold_signature(key_pool, single_params):
    ring = make_ring(key_pool, 4)
    sig = ring_sign(key_pool[0][0], 0, MSG, ring, ENTROPY, single_params)
    forged = dataclasses.replace(sig, required_signers=2)
    report = ring_verify_report(forged, MSG, ring, single_params)
    assert not report.ok and report.reason == "structural"


def test_verify_no_index_leak(key_pool, single_params):
    # report carries only a reason string, never a member index
    ring = make_ring(key_pool, 4)
    sig = ring_sign(key_pool[3][0], 3, MSG, ring, ENTROPY, single_params)
    report = ring_verify_report(sig, MSG, ring, single_params)
    assert report == ringsig.VerifyReport(True, "ok")
    assert set(dataclasses.asdict(report)) == {"ok", "reason", "detail"}


def test_multi_mode_single_signer(key_pool, multi_params):
    ring = make_ring(key_pool, 4)
    sig = ring_sign(key_pool[1][0], 1, MSG, ring, ENTROPY, multi_params)
    assert len(sig.per_member[0].acorn_proof) == 96
    assert ring_verify(sig, MSG, ring, multi_params)
    assert len(codec.encode_signature(sig)) == 1456 + 160 * 4


def test_equal_linkability_tags_across_members(key_pool, single_params):
    ring = make_ring(key_pool, 8)
    sig = ring_sign(key_pool[5][0], 5, MSG, ring, ENTROPY, single_params)
    tags = {e.linkability for e in sig.per_member}
    assert len(tags) == 1


@pytest.mark.parametrize("k", [2, 4, 8, 16, 32, 64])
def test_challenge_binding_fuzz(key_pool, single_params, k):
    # 200 single-byte mutations per ring size, split across the message,
    # the per-member byte region, and one encoded member key
    from chipmunkring import codec
    from chipmunkring.errors import CodecError

    ring = make_ring(key_pool, k)
    signer = k // 2
    sig = ring_sign(key_pool[signer][0], signer, MSG, ring, ENTROPY, single_params)
    sig_bytes = codec.encode_signature(sig)
    member_start = 44  # header(8) + counts(4) + challenge(32)
    member_bytes = k * 128
    pk_bytes = codec.encode_public_key(ring.members[0])

    for trial in range(200):
        which = trial % 3
        if which == 0:
            bad = bytearray(MSG)
            bad[rng.randrange(len(MSG))] ^= rng.randrange(1, 256)
            report = ring_verify_report(sig, bytes(bad), ring, single_params)
            assert not report.ok and report.reason == "challenge"
        elif which == 1:
            blob = bytearray(sig_bytes)
            off = member_start + rng.randrange(member_bytes)
            blob[off] ^= rng.randrange(1, 256)
            mutated = codec.decode_signature(bytes(blob))
            report = ring_verify_report(mutated, MSG, ring, single_params)
            assert not report.ok
            assert report.reason in ("challenge", "linkability")
        else:
            blob = bytearray(pk_bytes)
            blob[rng.randrange(len(pk_bytes))] ^= rng.randrange(1, 256)
            try:
                mutated_pk = codec.decode_public_key(bytes(blob))
            except CodecError:
                continue  # structural rejection
            mutated_ring = Ring(members=(mutated_pk,) + ring.members[1:])
            report = ring_verify_report(sig, MSG, mutated_ring, single_params)
            assert not report.ok and report.reason == "challenge"


def test_hostile_verify_is_bounded_by_ring_size(key_pool, single_params, monkeypatch):
    # every proof is garbage, yet the challenge, the tags and the core
    # signature are all consistent with them: only the Acorn scan can reject,
    # and it runs each member's chain at most once
    from chipmunkring import acorn, hots

    k = 64
    ring = make_ring(key_pool, k)
    sig = ring_sign(key_pool[5][0], 5, MSG, ring, ENTROPY, single_params)
    proofs = [bytes(b ^ 0xA5 for b in e.acorn_proof) for e in sig.per_member]
    rhash = ring_hash(ring)
    challenge = ringsig.challenge_digest(
        MSG, rhash, zip((e.randomness for e in sig.per_member), proofs))
    tag = acorn.linkability_tag(rhash, MSG, challenge)
    entries = tuple(dataclasses.replace(e, acorn_proof=p, linkability=tag)
                    for e, p in zip(sig.per_member, proofs))
    hostile = dataclasses.replace(
        sig, challenge=challenge, per_member=entries,
        chipmunk_sig=hots.sign(key_pool[5][0], challenge, single_params))

    chains = []
    real = acorn.create_proof

    def counted(pk, message, randomness, index, params):
        chains.append(index)
        return real(pk, message, randomness, index, params)

    monkeypatch.setattr(acorn, "create_proof", counted)
    report = ring_verify_report(hostile, MSG, ring, single_params)
    assert report == ringsig.VerifyReport(False, "acorn", "no valid per-member proof")
    assert 0 < len(chains) <= k
