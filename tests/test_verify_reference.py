"""The verifiers against full-scan reference verifiers.

The library stops the per-member commitment scan at the first valid proof
and checks the sigma norm once per signature. The single-mode reference
below is the original verifier: it checks every proof, counts the valid
ones, and runs the complete core verification (norm and identity) under
every ring key. The threshold reference runs the core verification under
every ring key too, then computes every participant proof x = 1..64 for
every block proof, and rebinds the block to the first matching key with x
ascending. Each must give the same (ok, reason, detail) as the library on
every input, also on inputs with two faults, which pins the stage order.
"""

import dataclasses
import functools
import hashlib
import random
import struct

import pytest

from chipmunkring import acorn, codec, hots, ringsig
from chipmunkring.errors import CodecError
from chipmunkring.params import DOMAIN_COORDINATION, MAX_PARTICIPANTS, NORM_BOUND, Q
from chipmunkring.polyring import add
from chipmunkring.ringsig import (
    MemberEntry,
    Ring,
    VerifyReport,
    ring_hash,
    ring_sign,
    ring_verify_report,
)
from chipmunkring.threshold import (
    combine,
    deal_shares,
    partial_sign,
    threshold_challenge,
    threshold_verify_report,
    verify_signature_report,
)
from polyref import monomial

rng = random.Random(0xF511)

MSG = b"early stop differential message"
ENTROPY = b"\x6b" * 32


def reference_verify_report(sig, message, ring, params):
    if sig.required_signers != 1:
        return VerifyReport("structural", "required_signers != 1")
    problem = ringsig.check_structure(sig, ring, params)
    if not problem and not message:
        problem = "empty message"
    if problem:
        return VerifyReport("structural", problem)
    rhash = ring_hash(ring)
    pairs = ((e.randomness, e.acorn_proof) for e in sig.per_member)
    if ringsig.challenge_digest(message, rhash, pairs) != sig.challenge:
        return VerifyReport("challenge", "challenge mismatch")
    valid = 0
    for i, (pk, entry) in enumerate(zip(ring.members, sig.per_member)):
        if acorn.verify_proof(entry.acorn_proof, pk, message, entry.randomness, i, params):
            valid += 1
    if valid < 1:
        return VerifyReport("acorn", "no valid per-member proof")
    tag = acorn.linkability_tag(rhash, message, sig.challenge)
    ok = True
    for entry in sig.per_member:
        ok &= entry.linkability == tag
    if not ok:
        return VerifyReport("linkability", "linkability tag mismatch")
    matches = [j for j, pk in enumerate(ring.members)
               if hots.verify(pk, sig.challenge, sig.chipmunk_sig)]
    if not matches:
        return VerifyReport("core", "core signature matches no ring key")
    return VerifyReport("ok")


def assert_same(sig, message, ring, params):
    want = reference_verify_report(sig, message, ring, params)
    assert ring_verify_report(sig, message, ring, params) == want
    return want


def make_ring(key_pool, k):
    return Ring(members=tuple(pk for _, pk in key_pool[:k]))


def resign(sk, sig, message, ring, proofs):
    """A signature whose challenge, tags and core signature all cover proofs.

    Only the signer's key can produce this, so it is the one way to reach
    the commitment check with invalid proofs.
    """
    rhash = ring_hash(ring)
    pairs = [(e.randomness, p) for e, p in zip(sig.per_member, proofs)]
    challenge = ringsig.challenge_digest(message, rhash, pairs)
    tag = acorn.linkability_tag(rhash, message, challenge)
    entries = tuple(MemberEntry(randomness=r, acorn_proof=p, linkability=tag)
                    for r, p in pairs)
    return dataclasses.replace(sig, challenge=challenge, per_member=entries,
                               chipmunk_sig=hots.sign(sk, challenge))


def signature_fields(k, proof_size):
    """(name, start, length) of every field of an encoded single-mode signature."""
    fields = [("magic", 0, 4), ("version", 4, 2), ("kind", 6, 1), ("mode", 7, 1),
              ("ring_size", 8, 2), ("required", 10, 2), ("challenge", 12, 32)]
    pos = 44
    for i in range(k):
        for name, size in (("randomness", 32), ("proof", proof_size),
                           ("linkability", 32)):
            fields.append((f"{name}[{i}]", pos, size))
            pos += size
    fields.append(("sigma", pos, codec.POLYNOMIAL_BYTES))
    fields.append(("block_length", pos + codec.POLYNOMIAL_BYTES, 4))
    return fields


@pytest.mark.parametrize("k", [2, 8])
def test_early_stop_matches_full_scan(key_pool, single_params, k):
    ring = make_ring(key_pool, k)
    signer = k - 1
    sk = key_pool[signer][0]
    sig = ring_sign(sk, signer, MSG, ring, ENTROPY, single_params)
    reasons = []

    # honest signatures from every position
    for pos in range(k):
        honest = ring_sign(key_pool[pos][0], pos, MSG, ring, ENTROPY, single_params)
        reasons.append(assert_same(honest, MSG, ring, single_params).reason)

    # the tamper suite: message (also empty), ring key, ring order
    for _ in range(10):
        bad = bytearray(MSG)
        bad[rng.randrange(len(bad))] ^= rng.randrange(1, 256)
        reasons.append(assert_same(sig, bytes(bad), ring, single_params).reason)
    pk_bytes = codec.encode_public_key(ring.members[0])
    for _ in range(10):
        bad = bytearray(pk_bytes)
        bad[rng.randrange(len(bad))] ^= rng.randrange(1, 256)
        try:
            mutated = codec.decode_public_key(bytes(bad))
        except CodecError:
            continue
        other = Ring(members=(mutated,) + ring.members[1:])
        reasons.append(assert_same(sig, MSG, other, single_params).reason)
    reasons.append(assert_same(sig, b"", ring, single_params).reason)
    swapped = Ring(members=ring.members[::-1])
    reasons.append(assert_same(sig, MSG, swapped, single_params).reason)
    larger = make_ring(key_pool, k + 1)
    reasons.append(assert_same(sig, MSG, larger, single_params).reason)
    for bad in (dataclasses.replace(sig, required_signers=2),
                dataclasses.replace(sig, threshold_zk_proofs=b"\x00" * 64)):
        reasons.append(assert_same(bad, MSG, ring, single_params).reason)

    # a single corrupted byte at the start, middle and end of every field
    sig_bytes = codec.encode_signature(sig)
    for name, start, length in signature_fields(k, single_params.proof_size):
        for off in sorted({start, start + length // 2, start + length - 1}):
            blob = bytearray(sig_bytes)
            blob[off] ^= rng.randrange(1, 256)
            try:
                decoded = codec.decode_signature(bytes(blob))
            except CodecError:
                continue
            reasons.append(assert_same(decoded, MSG, ring, single_params).reason)

    # sigma changed inside and outside the norm bound
    sigma = sig.chipmunk_sig.sigma
    for extra in (monomial(1, 0), monomial(NORM_BOUND, 0), monomial(Q - 1, 5)):
        forged = dataclasses.replace(
            sig, chipmunk_sig=hots.ChipmunkSignature(sigma=add(sigma, extra)))
        reasons.append(assert_same(forged, MSG, ring, single_params).reason)

    # a member key whose signatures satisfy the identity but not the norm bound
    big_sk, big_pk = hots.keypair_from_secrets(
        b"\x7e" * 32, monomial(0, 0), monomial(NORM_BOUND + 1, 0))
    big_ring = Ring(members=ring.members[:-1] + (big_pk,))
    big = ring_sign(big_sk, k - 1, MSG, big_ring, ENTROPY, single_params)
    assert not hots.norm_within_bound(big.chipmunk_sig)
    reasons.append(assert_same(big, MSG, big_ring, single_params).reason)

    # re-signed forgeries that reach the commitment check: no valid proof,
    # or exactly one valid proof at each position
    junk = [rng.randbytes(single_params.proof_size) for _ in range(k)]
    good = [e.acorn_proof for e in sig.per_member]
    forged = resign(sk, sig, MSG, ring, junk)
    reasons.append(assert_same(forged, MSG, ring, single_params).reason)
    for j in range(k):
        proofs = junk[:j] + [good[j]] + junk[j + 1:]
        forged = resign(sk, sig, MSG, ring, proofs)
        reasons.append(assert_same(forged, MSG, ring, single_params).reason)

    assert {"ok", "structural", "challenge", "acorn", "linkability",
            "core"} <= set(reasons)


def test_honest_stop_index_independent_of_signer(key_pool, single_params,
                                                 monkeypatch):
    k = 8
    ring = make_ring(key_pool, k)
    calls = []

    def counting_verify_proof(*args):
        calls.append(args[4])  # participant index
        return acorn.verify_proof(*args)

    monkeypatch.setattr(ringsig, "verify_proof", counting_verify_proof)
    scans = []
    for pos in range(k):
        sig = ring_sign(key_pool[pos][0], pos, MSG, ring, ENTROPY, single_params)
        calls.clear()
        assert ring_verify_report(sig, MSG, ring, single_params).ok
        scans.append(tuple(calls))
    assert scans == [(0,)] * k


@functools.cache
def participant_proof(pk, challenge, x, params):
    """Participant x's proof on challenge under master key pk, from the
    Acorn primitives and the coordination seed's definition."""
    seed = hashlib.shake_256(DOMAIN_COORDINATION + pk.encoded
                             + struct.pack("<I", x)).digest(32)
    return acorn.create_proof(pk, challenge, acorn.derive_randomness(seed, x), x, params)


def reference_threshold_report(sig, message, ring, params):
    if sig.required_signers <= 1:
        return VerifyReport("structural", "required_signers must exceed 1")
    problem = ringsig.check_structure(sig, ring, params)
    if problem:
        return VerifyReport("structural", problem)
    rhash = ring_hash(ring)
    pairs = ((e.randomness, e.acorn_proof) for e in sig.per_member)
    if ringsig.challenge_digest(message, rhash, pairs) != sig.challenge:
        return VerifyReport("challenge", "challenge mismatch")
    t, p = sig.required_signers, params.proof_size
    block = sig.threshold_zk_proofs
    tag = acorn.linkability_tag(rhash, message, sig.challenge)
    if any(entry.linkability != tag for entry in sig.per_member):
        return VerifyReport("linkability", "linkability tag mismatch")
    matches = [j for j, pk in enumerate(ring.members)
               if hots.verify(pk, sig.challenge, sig.chipmunk_sig)]
    if not matches:
        return VerifyReport("core", "core signature matches no ring key")
    pk = ring.members[matches[0]]
    found = [[x for x in range(1, MAX_PARTICIPANTS + 1)
              if participant_proof(pk, sig.challenge, x, params) == block[i * p:(i + 1) * p]]
             for i in range(t)]
    last = 0
    rebound = True
    for xs in found:
        later = [x for x in xs if x > last]
        if later:
            last = later[0]
        else:
            rebound = False
    if not rebound:
        return VerifyReport("threshold_acorn",
                            "embedded participant proofs do not verify")
    return VerifyReport("ok")


def assert_same_threshold(sig, message, ring, params):
    """Both the threshold verifier and the dispatcher match the references."""
    want = reference_threshold_report(sig, message, ring, params)
    assert threshold_verify_report(sig, message, ring, params) == want
    single = sig.required_signers == 1
    dispatched = (reference_verify_report if single else reference_threshold_report)(
        sig, message, ring, params)
    assert verify_signature_report(sig, message, ring, params) == dispatched
    return dispatched.reason


def with_entry(sig, i, **changes):
    entries = list(sig.per_member)
    entries[i] = dataclasses.replace(entries[i], **changes)
    return dataclasses.replace(sig, per_member=tuple(entries))


def flipped(data, i=0):
    out = bytearray(data)
    out[i] ^= 0x01
    return bytes(out)


def threshold_sign(key_pool, ring, t, n, xs, params):
    shares = deal_shares(key_pool[0][0], t, n, ENTROPY)
    challenge, _ = threshold_challenge(MSG, ring, params)
    return combine([partial_sign(shares[x - 1], challenge, params) for x in xs],
                   MSG, ring, t, params)


@pytest.mark.parametrize("t, n, xs", [(2, 4, (2, 4)), (3, 8, (1, 5, 8))])
def test_threshold_verifier_matches_full_scan(key_pool, multi_params, t, n, xs):
    ring = make_ring(key_pool, n)
    sig = threshold_sign(key_pool, ring, t, n, xs, multi_params)
    p = multi_params.proof_size
    block = sig.threshold_zk_proofs
    reasons = [assert_same_threshold(sig, MSG, ring, multi_params)]
    assert reasons == ["ok"]

    # a truncated and an extended block; required_signers 0, 1 and t + 1
    for bad in (block[:-1], block + b"\x00" * p):
        forged = dataclasses.replace(sig, threshold_zk_proofs=bad)
        reasons.append(assert_same_threshold(forged, MSG, ring, multi_params))
    for required in (0, 1, t + 1):
        forged = dataclasses.replace(sig, required_signers=required)
        reasons.append(assert_same_threshold(forged, MSG, ring, multi_params))

    # a single corrupted byte at the start, middle and end of every field
    # and of every block proof
    sig_bytes = codec.encode_signature(sig)
    end = len(sig_bytes) - t * p
    fields = signature_fields(n, p) + [(f"block[{i}]", end + i * p, p) for i in range(t)]
    for name, start, length in fields:
        for off in sorted({start, start + length // 2, start + length - 1}):
            blob = bytearray(sig_bytes)
            blob[off] ^= rng.randrange(1, 256)
            try:
                decoded = codec.decode_signature(bytes(blob))
            except CodecError:
                continue
            reasons.append(assert_same_threshold(decoded, MSG, ring, multi_params))

    # the block's proofs swapped, or bound to x values out of order
    swapped = block[p:2 * p] + block[:p] + block[2 * p:]
    forged = dataclasses.replace(sig, threshold_zk_proofs=swapped)
    reasons.append(assert_same_threshold(forged, MSG, ring, multi_params))

    assert {"ok", "structural", "challenge", "linkability", "core",
            "threshold_acorn"} <= set(reasons)


def test_two_faults_report_the_earlier_stage(key_pool, single_params, multi_params):
    foreign_sk = key_pool[40][0]

    def foreign_sigma(sig):
        return hots.sign(foreign_sk, sig.challenge)

    # threshold mode, 2-of-4
    ring = make_ring(key_pool, 4)
    sig = threshold_sign(key_pool, ring, 2, 4, (1, 3), multi_params)
    p = multi_params.proof_size
    bad_challenge = dataclasses.replace(sig, challenge=flipped(sig.challenge))
    short = sig.threshold_zk_proofs[:-p]
    bad_tag = with_entry(sig, 1, linkability=flipped(sig.per_member[1].linkability))
    cases = [
        (dataclasses.replace(bad_challenge, threshold_zk_proofs=short), "structural"),
        (dataclasses.replace(bad_tag, threshold_zk_proofs=short), "structural"),
        (dataclasses.replace(bad_tag, chipmunk_sig=foreign_sigma(sig)), "linkability"),
        (dataclasses.replace(sig, chipmunk_sig=foreign_sigma(sig),
                             threshold_zk_proofs=flipped(sig.threshold_zk_proofs)),
         "core"),
        (dataclasses.replace(bad_challenge, per_member=sig.per_member[:-1]),
         "structural"),
        (dataclasses.replace(bad_challenge, chipmunk_sig=foreign_sigma(sig)),
         "challenge"),
    ]
    for forged, reason in cases:
        assert assert_same_threshold(forged, MSG, ring, multi_params) == reason

    # single mode, k = 4
    sk = key_pool[2][0]
    sig = ring_sign(sk, 2, MSG, ring, ENTROPY, single_params)
    bad_challenge = dataclasses.replace(sig, challenge=flipped(sig.challenge))
    junk = [rng.randbytes(single_params.proof_size) for _ in range(4)]
    no_proof = resign(sk, sig, MSG, ring, junk)
    cases = [
        (dataclasses.replace(bad_challenge, threshold_zk_proofs=b"\x00" * 64),
         "structural"),
        (with_entry(bad_challenge, 0, linkability=flipped(sig.per_member[0].linkability)),
         "challenge"),
        (dataclasses.replace(bad_challenge, chipmunk_sig=foreign_sigma(sig)), "challenge"),
        (with_entry(no_proof, 3, linkability=flipped(no_proof.per_member[3].linkability)),
         "acorn"),
        (dataclasses.replace(no_proof, chipmunk_sig=foreign_sigma(no_proof)), "acorn"),
        (dataclasses.replace(with_entry(sig, 3, linkability=flipped(
            sig.per_member[3].linkability)), chipmunk_sig=foreign_sigma(sig)),
         "linkability"),
    ]
    for forged, reason in cases:
        assert assert_same(forged, MSG, ring, single_params).reason == reason
        assert assert_same_threshold(forged, MSG, ring, single_params) == reason
