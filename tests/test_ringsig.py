import dataclasses
import hashlib
import random

import pytest

from chipmunkring import codec, ringsig
from chipmunkring.errors import RingSizeError, SignerNotInRingError
from chipmunkring.ringsig import (
    Ring,
    ring_hash,
    ring_sign,
    ring_verify_report,
)
from chipmunkring.threshold import threshold_challenge

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


def test_ring_built_from_a_list_holds_a_tuple(key_pool, multi_params):
    members = [pk for _, pk in key_pool[:2]]
    ring = Ring(members=members)
    assert ring.members == tuple(members)
    members.append(key_pool[2][1])  # the caller's list no longer reaches the ring
    assert ring.size == 2
    assert threshold_challenge(MSG, ring, multi_params) == \
        threshold_challenge(MSG, make_ring(key_pool, 2), multi_params)


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
        assert ring_verify_report(sig, MSG, ring, single_params).ok


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
    assert ring_verify_report(sig0, MSG, ring, single_params).ok
    assert ring_verify_report(sig1, MSG, ring, single_params).ok


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


@pytest.mark.parametrize("entropy", [b"", ENTROPY[:31], ENTROPY + b"\x00"])
def test_sign_requires_32_bytes_of_entropy(key_pool, single_params, entropy):
    ring = make_ring(key_pool, 2)
    with pytest.raises(ValueError, match="entropy must be 32 bytes"):
        ring_sign(key_pool[0][0], 0, MSG, ring, entropy, single_params)


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
        sig, chipmunk_sig=hots.sign(outsider_sk, sig.challenge)
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
    assert report == ringsig.VerifyReport("ok")
    assert set(dataclasses.asdict(report)) == {"reason", "detail"}


def test_verify_report_verdict_is_its_reason():
    # ok is derived, so a report cannot accept with a reject reason or reject "ok"
    assert ringsig.VerifyReport("ok").ok
    assert not ringsig.VerifyReport("core", "core signature matches no ring key").ok
    with pytest.raises(TypeError):
        ringsig.VerifyReport(True, "core", "")


def test_multi_mode_single_signer(key_pool, multi_params):
    ring = make_ring(key_pool, 4)
    sig = ring_sign(key_pool[1][0], 1, MSG, ring, ENTROPY, multi_params)
    assert len(sig.per_member[0].acorn_proof) == 96
    assert ring_verify_report(sig, MSG, ring, multi_params).ok
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


def _garbage_proofs(sig, message, ring, signer_sk):
    """sig with every proof garbage, yet the challenge, the tags and the core
    signature all consistent with them: only the Acorn scan can reject."""
    from chipmunkring import acorn, hots

    proofs = [bytes(b ^ 0xA5 for b in e.acorn_proof) for e in sig.per_member]
    rhash = ring_hash(ring)
    challenge = ringsig.challenge_digest(
        message, rhash, zip((e.randomness for e in sig.per_member), proofs))
    tag = acorn.linkability_tag(rhash, message, challenge)
    entries = tuple(dataclasses.replace(e, acorn_proof=p, linkability=tag)
                    for e, p in zip(sig.per_member, proofs))
    return dataclasses.replace(sig, challenge=challenge, per_member=entries,
                               chipmunk_sig=hots.sign(signer_sk, challenge))


def _threshold_signature(message, ring, master_sk, params):
    """16-of-32 signature by participants 17..32, so max(x) = 32."""
    from chipmunkring import threshold

    shares = threshold.deal_shares(master_sk, 16, 32, b"\x3c" * 32)
    challenge, _ = threshold.threshold_challenge(message, ring, params)
    partials = [threshold.partial_sign(sh, challenge, params) for sh in shares[16:]]
    return threshold.combine(partials, message, ring, 16, params)


def _tampered_block(sig):
    block = bytearray(sig.threshold_zk_proofs)
    block[-1] ^= 1  # the last proof, x = 32: the scan tries x = 32..64 for it
    return dataclasses.replace(sig, threshold_zk_proofs=bytes(block))


def test_hostile_verify_is_bounded_by_ring_size(key_pool, single_params, multi_params,
                                                monkeypatch):
    """One cost budget for verification at k = 64, honest and hostile input.

    Each case decodes its ring and signature from bytes with the decode
    memo and both threshold caches empty, as a fresh verifier does, and
    counts the work against its ceiling:
    - Acorn chains: at most k in single mode; at most MAX_PARTICIPANTS in
      threshold mode, and exactly max(x) for an honest signature;
    - NTT rows of the core check: 2 + 3 per distinct candidate key (a key
      that passes the root test at psi), however often the ring lists it;
    - expand_matrix: once per distinct key for its root values, once more
      per distinct candidate;
    - key decodes: one per distinct key;
    - SHAKE256 input bytes. Every chain's first block holds the whole chain
      message, the signed message in single mode, so k x |message| is the
      term that grows; threshold chains hash the 32-byte challenge.
    """
    from chipmunkring import acorn, hots, threshold
    from chipmunkring.params import MAX_PARTICIPANTS, N

    k = 64
    message = MSG * 512  # 16 KiB, so the k x |message| term dominates
    keys = [pk for _, pk in key_pool[:k]]
    ring = Ring(members=tuple(keys))
    single = ring_sign(key_pool[5][0], 5, message, ring, ENTROPY, single_params)
    honest = _threshold_signature(message, ring, key_pool[7][0], multi_params)
    # the master key at every even position, 32 distinct decoys between
    repeated = [key_pool[7][1] if i % 2 == 0 else key_pool[32 + i // 2][1]
                for i in range(k)]
    on_repeated = _threshold_signature(message, Ring(members=tuple(repeated)),
                                       key_pool[7][0], multi_params)
    # name, signature, ring keys, params, reason, chain ceiling, exact chains,
    # distinct candidate keys
    cases = [
        ("honest single", single, keys, single_params, "ok", k, 1, 1),
        ("garbage proofs", _garbage_proofs(single, message, ring, key_pool[5][0]),
         keys, single_params, "acorn", k, k, 0),
        ("honest 16 of 32", honest, keys, multi_params, "ok", MAX_PARTICIPANTS, 32, 1),
        ("tampered block", _tampered_block(honest), keys, multi_params,
         "threshold_acorn", MAX_PARTICIPANTS, MAX_PARTICIPANTS, 1),
        ("one key 32 times", _tampered_block(on_repeated), repeated, multi_params,
         "threshold_acorn", MAX_PARTICIPANTS, MAX_PARTICIPANTS, 1),
    ]

    counts = {}
    real_ntt, real_shake = hots.ntt_forward, hashlib.shake_256

    def calls(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def ntt_rows(a):
        out = real_ntt(a)
        counts["rows"] += out.size // N
        return out

    def shake(data=b"", **kwargs):
        counts["shake"] += len(data)
        return real_shake(data, **kwargs)

    monkeypatch.setattr(acorn, "create_proof", calls("chains", acorn.create_proof))
    monkeypatch.setattr(hots, "expand_matrix", calls("expand", hots.expand_matrix))
    monkeypatch.setattr(hots, "ntt_forward", ntt_rows)
    monkeypatch.setattr(hashlib, "shake_256", shake)

    pk_bytes = len(keys[0].encoded)
    for name, sig, members, params, reason, ceiling, exact, candidates in cases:
        blobs = [pk.encoded for pk in members]
        sig_bytes = codec.encode_signature(sig)
        codec._decode_public_key.cache_clear()
        acorn.share_proof.cache_clear()
        threshold.threshold_challenge.cache_clear()
        counts.update(chains=0, rows=0, expand=0, shake=0)
        decoded = Ring(members=tuple(codec.decode_public_key(b) for b in blobs))
        report = ringsig.verify_signature_report(
            codec.decode_signature(sig_bytes), message, decoded, params)

        distinct = len(set(blobs))
        chain_message = message if sig.required_signers == 1 else sig.challenge
        # per chain: its first block's fixed fields and key, the share seed
        # (threshold mode hashes the key there too) and the later iterations
        per_chain = (len(chain_message) + 2 * pk_bytes + 256
                     + (params.iterations - 1) * params.proof_size)
        assert report.reason == reason, name
        assert counts["chains"] == exact <= ceiling, name
        assert counts["rows"] <= (2 + 3 * candidates if candidates else 0), name
        assert counts["expand"] <= (distinct + candidates if candidates else 0), name
        assert codec._decode_public_key.cache_info().misses == distinct, name
        assert counts["chains"] * len(chain_message) <= counts["shake"] \
            <= ceiling * per_chain + 256 * (distinct + 2), name


@pytest.mark.parametrize("field, detail", [
    ("challenge", "challenge length mismatch"),
    ("randomness", "randomness length mismatch at member 2"),
    ("acorn_proof", "proof length mismatch at member 2"),
    ("linkability", "linkability tag length mismatch at member 2"),
])
def test_structure_names_the_short_field(key_pool, single_params, field, detail):
    ring = make_ring(key_pool, 4)
    sig = ring_sign(key_pool[0][0], 0, MSG, ring, ENTROPY, single_params)
    if field == "challenge":
        bad = dataclasses.replace(sig, challenge=sig.challenge[:-1])
    else:
        entries = list(sig.per_member)
        short = getattr(entries[2], field)[:-1]
        entries[2] = dataclasses.replace(entries[2], **{field: short})
        bad = dataclasses.replace(sig, per_member=tuple(entries))
    report = ring_verify_report(bad, MSG, ring, single_params)
    assert report == ringsig.VerifyReport("structural", detail)
