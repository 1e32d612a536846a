"""ring_verify_report against a full-scan reference verifier.

The library stops the per-member commitment scan at the first valid proof
and checks the sigma norm once per signature. The reference below is the
original verifier: it checks every proof, counts the valid ones, and runs
the complete core verification (norm and identity) under every ring key.
Both must give the same (ok, reason, detail) on every input.
"""

import dataclasses
import random

import pytest

from chipmunkring import acorn, codec, hots, ringsig
from chipmunkring.errors import CodecError
from chipmunkring.params import NORM_BOUND, Q
from chipmunkring.polyring import add
from chipmunkring.ringsig import (
    MemberEntry,
    Ring,
    VerifyReport,
    ring_hash,
    ring_sign,
    ring_verify_report,
)
from polyref import monomial

rng = random.Random(0xF511)

MSG = b"early stop differential message"
ENTROPY = b"\x6b" * 32


def reference_verify_report(sig, message, ring, params):
    if sig.required_signers != 1:
        return VerifyReport(False, "structural", "required_signers != 1")
    problem = ringsig.check_structure(sig, ring, params)
    if not problem and sig.threshold_zk_proofs != b"":
        problem = "unexpected threshold block"
    if problem:
        return VerifyReport(False, "structural", problem)
    rhash = ring_hash(ring)
    pairs = ((e.randomness, e.acorn_proof) for e in sig.per_member)
    if ringsig.challenge_digest(message, rhash, pairs) != sig.challenge:
        return VerifyReport(False, "challenge", "challenge mismatch")
    valid = 0
    for i, (pk, entry) in enumerate(zip(ring.members, sig.per_member)):
        if acorn.verify_proof(entry.acorn_proof, pk, message, entry.randomness, i, params):
            valid += 1
    if valid < 1:
        return VerifyReport(False, "acorn", "no valid per-member proof")
    tag = acorn.linkability_tag(rhash, message, sig.challenge)
    ok = True
    for entry in sig.per_member:
        ok &= entry.linkability == tag
    if not ok:
        return VerifyReport(False, "linkability", "linkability tag mismatch")
    matches = [j for j, pk in enumerate(ring.members)
               if hots.verify(pk, sig.challenge, sig.chipmunk_sig)]
    if not matches:
        return VerifyReport(False, "core", "core signature matches no ring key")
    return VerifyReport(True, "ok")


def assert_same(sig, message, ring, params):
    want = reference_verify_report(sig, message, ring, params)
    assert ring_verify_report(sig, message, ring, params) == want
    return want


def make_ring(key_pool, k):
    return Ring(members=tuple(pk for _, pk in key_pool[:k]))


def resign(sk, sig, message, ring, proofs, params):
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

    # the tamper suite: message, ring key, ring order
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
    assert hots.verify_detail(big_pk, big.challenge, big.chipmunk_sig) == "norm"
    reasons.append(assert_same(big, MSG, big_ring, single_params).reason)

    # re-signed forgeries that reach the commitment check: no valid proof,
    # or exactly one valid proof at each position
    junk = [rng.randbytes(single_params.proof_size) for _ in range(k)]
    good = [e.acorn_proof for e in sig.per_member]
    forged = resign(sk, sig, MSG, ring, junk, single_params)
    reasons.append(assert_same(forged, MSG, ring, single_params).reason)
    for j in range(k):
        proofs = junk[:j] + [good[j]] + junk[j + 1:]
        forged = resign(sk, sig, MSG, ring, proofs, single_params)
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
