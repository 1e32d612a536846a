import dataclasses
import gc
import pickle
import random
import re
import struct
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from chipmunkring import acorn, codec, hots, polyring, ringsig, threshold
from chipmunkring.acorn import linkability_tag
from chipmunkring.errors import ByzantineShareError, ThresholdError
from chipmunkring.params import N, Q, ZK_DOMAIN_SECRET_SHARING
from chipmunkring.polyring import Polynomial, add, hash_to_poly, mul
from chipmunkring.ringsig import (
    MemberEntry,
    Ring,
    RingSignature,
    VerifyReport,
    challenge_digest,
    core_matches,
    ring_hash,
)
from chipmunkring.threshold import (
    combine,
    deal_shares,
    lagrange_at_zero,
    partial_sign,
    share_scalar,
    threshold_challenge,
    threshold_verify_report,
    verify_signature_report,
)
from polyref import horner_share, scalar_mul, zero

rng = random.Random(0x7412)

MSG = b"threshold protocol message"


def make_ring(key_pool, k):
    return Ring(members=tuple(pk for _, pk in key_pool[:k]))


#   Lagrange oracle: evaluate the interpolating claim against direct
#   polynomial evaluation, no shortcuts shared with the implementation.

def eval_poly(coeffs, x, q):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def test_lagrange_hand_values():
    lag = lagrange_at_zero([1, 2])
    assert list(lag) == [2, Q - 1]


def test_lagrange_single_point():
    assert list(lagrange_at_zero([5])) == [1]


def test_lagrange_interpolates_at_zero():
    points = [1, 2, 3]
    lag = lagrange_at_zero(points)
    for _ in range(100):
        f = [rng.randrange(Q) for _ in range(3)]  # random quadratic
        total = sum(L * eval_poly(f, x, Q) for L, x in zip(lag, points)) % Q
        assert total == f[0]


def test_lagrange_rejects_bad_points():
    with pytest.raises(ThresholdError):
        lagrange_at_zero([1, 1])
    with pytest.raises(ThresholdError):
        lagrange_at_zero([0, 2])
    with pytest.raises(ThresholdError):
        lagrange_at_zero([])


def test_toy_field_share_consistent_with_all_secrets():
    # q' = 17, t = 2: one share pins down nothing about the secret
    q = 17
    x = 3
    share_values = set()
    for secret in range(q):
        for a in range(q):
            if share_scalar(secret, [a], [x], q)[0] == 5:
                share_values.add(secret)
                break
    assert share_values == set(range(q))


def test_toy_field_share_distribution_exactly_uniform():
    q = 17
    x = 2
    for secret in range(q):
        seen = sorted(share_scalar(secret, [a], [x], q)[0] for a in range(q))
        assert seen == list(range(q))


@pytest.mark.parametrize("t, n", [(1, 8), (16, 32), (64, 64)])
def test_share_scalar_matches_horner(t, n):
    xs = range(1, n + 1)
    # all q - 1 gives the largest sum in the product
    top = np.full(2 * N, Q - 1, dtype=np.int64)
    high = np.full((t - 1, 2 * N), Q - 1, dtype=np.int64)
    got = share_scalar(top, high, xs)
    assert got.shape == (2 * N, n) and got.dtype == np.int64
    assert np.array_equal(got, horner_share(top, high, xs, Q))
    nprng = np.random.default_rng(t)
    secret = nprng.integers(0, Q, size=2 * N)
    rand = nprng.integers(0, Q, size=(t - 1, 2 * N))
    assert np.array_equal(share_scalar(secret, rand, xs), horner_share(secret, rand, xs, Q))


def test_share_scalar_refuses_sums_past_2_53():
    # the most coefficients whose sum float64 still holds exactly
    most = ((1 << 53) - Q - 1) // (Q - 1) ** 2
    xs = [2, Q - 1, 12345]
    high = [Q - 1] * most
    assert np.array_equal(share_scalar(Q - 1, high, xs), horner_share(Q - 1, high, xs, Q))
    with pytest.raises(ValueError, match=rf"^{most + 1} coefficients mod {Q} can exceed 2\^53$"):
        share_scalar(Q - 1, high + [Q - 1], xs)
    with pytest.raises(ValueError):
        share_scalar(0, [1], [1], 1 << 27)


def test_deal_t1_shares_equal_master(key_pool):
    sk, _ = key_pool[0]
    shares = deal_shares(sk, 1, 3, b"\x61" * 32)
    for share in shares:
        assert share.s0_share == sk.s0
        assert share.s1_share == sk.s1


def reference_deal(sk, t, n, entropy):
    """The original per-coefficient, per-participant Horner loop: for each
    participant x, its s0 and s1 share coefficients as two int64 arrays."""
    master = [int(c) for c in sk.s0.coeffs] + [int(c) for c in sk.s1.coeffs]
    rows = {x: [] for x in range(1, n + 1)}
    for j, secret in enumerate(master):
        rand_coeffs = reference_sharing_coefficients(entropy, j, t - 1)
        for x in rows:
            acc = 0
            for c in reversed(rand_coeffs):
                acc = (acc + c) * x % Q
            rows[x].append((acc + secret) % Q)
    half = len(master) // 2
    return {x: (np.array(r[:half]), np.array(r[half:])) for x, r in rows.items()}


@pytest.mark.parametrize("t,n", [(1, 1), (2, 3), (16, 32), (64, 64)])
def test_deal_matches_reference(key_pool, t, n):
    sk, _ = key_pool[3]
    entropy = bytes([t, n]) * 16
    shares = deal_shares(sk, t, n, entropy)
    want = reference_deal(sk, t, n, entropy)
    assert [s.participant_x for s in shares] == list(range(1, n + 1))
    for share in shares:
        s0, s1 = want[share.participant_x]
        assert np.array_equal(share.s0_share.coeffs, s0)
        assert np.array_equal(share.s1_share.coeffs, s1)


def reference_sharing_coefficients(entropy, index, count):
    """The original scalar rejection loop, doubling its read when short."""
    data = ZK_DOMAIN_SECRET_SHARING + entropy + struct.pack("<I", index)
    limit = (1 << 32) // Q * Q
    length = 4 * count + 64
    buf = polyring._xof(data, length)
    out = []
    pos = 0
    while len(out) < count:
        if pos + 4 > len(buf):
            length *= 2
            buf = polyring._xof(data, length)
        word = int.from_bytes(buf[pos:pos + 4], "little")
        pos += 4
        if word < limit:
            out.append(word % Q)
    return out


@pytest.mark.parametrize("count", [0, 1, 15, 63])
def test_sharing_matrix_matches_reference(count):
    entropy = bytes([count]) * 32
    got = threshold._sharing_matrix(entropy, 2 * N, count)
    assert got.shape == (2 * N, count) and got.dtype == np.int64
    want = [reference_sharing_coefficients(entropy, j, count) for j in range(2 * N)]
    assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(2 * N, count))


def test_sharing_matrix_rejection_and_doubling_match_reference(monkeypatch):
    # row j's stream starts with 10 * (j % 5) words above the rejection
    # limit: rows with 0 or 10 are filled from the first read, rows with 20,
    # 30 or 40 are short of count in the first read and must double it
    shake = polyring._xof
    lengths = []

    def rejecting_xof(data, length):
        lengths.append(length)
        rejected = 10 * (int.from_bytes(data[-4:], "little") % 5)
        return (b"\xff" * 4 * rejected + shake(data, length))[:length]

    monkeypatch.setattr(polyring, "_xof", rejecting_xof)
    count, entropy = 15, b"\x5e" * 32
    got = threshold._sharing_matrix(entropy, 2 * N, count)
    want = [reference_sharing_coefficients(entropy, j, count) for j in range(2 * N)]
    assert max(lengths) > 4 * count + 64
    assert np.array_equal(got, np.array(want, dtype=np.int64))


def test_deal_rejects_bad_config(key_pool):
    sk, _ = key_pool[0]
    with pytest.raises(ThresholdError):
        deal_shares(sk, 0, 3, b"\x62" * 32)
    with pytest.raises(ThresholdError):
        deal_shares(sk, 4, 3, b"\x62" * 32)
    with pytest.raises(ThresholdError):
        deal_shares(sk, 2, 65, b"\x62" * 32)


@pytest.mark.parametrize("entropy", [b"", b"\x62" * 31, b"\x62" * 33])
def test_deal_requires_32_bytes_of_entropy(key_pool, entropy):
    with pytest.raises(ValueError, match="entropy must be 32 bytes"):
        deal_shares(key_pool[0][0], 2, 3, entropy)


def test_deal_deterministic(key_pool):
    sk, _ = key_pool[1]
    a = deal_shares(sk, 2, 3, b"\x63" * 32)
    b = deal_shares(sk, 2, 3, b"\x63" * 32)
    assert a == b


def test_reconstruction_from_all_pairs(key_pool):
    # brute-force Lagrange reconstruction oracle over Z_q, per coefficient
    sk, _ = key_pool[2]
    shares = deal_shares(sk, 2, 3, b"\x64" * 32)
    for pair in combinations(shares, 2):
        xs = [s.participant_x for s in pair]
        lag = lagrange_at_zero(xs)
        for attr in ("s0_share", "s1_share"):
            master = getattr(sk, attr.split("_")[0])
            for j in (0, 1, 255, 511):
                got = sum(
                    L * getattr(s, attr).coeffs[j] for L, s in zip(lag, pair)
                ) % Q
                assert got == master.coeffs[j]


def test_share_randomness_seed_is_share_bound(key_pool):
    _, pk0 = key_pool[0]
    _, pk1 = key_pool[1]
    assert acorn.share_randomness_seed(pk0, 1) != acorn.share_randomness_seed(pk0, 2)
    assert acorn.share_randomness_seed(pk0, 1) != acorn.share_randomness_seed(pk1, 1)


def test_partial_t1_equals_master_signature(key_pool, multi_params):
    sk, _ = key_pool[3]
    share = deal_shares(sk, 1, 2, b"\x65" * 32)[0]
    challenge = b"\x66" * 32
    partial = partial_sign(share, challenge, multi_params)
    assert partial.sigma_share == hots.sign(sk, challenge).sigma


def test_partial_deterministic(key_pool, multi_params):
    sk, _ = key_pool[4]
    share = deal_shares(sk, 2, 3, b"\x67" * 32)[1]
    a = partial_sign(share, b"\x68" * 32, multi_params)
    b = partial_sign(share, b"\x68" * 32, multi_params)
    assert a == b


@pytest.mark.parametrize("length", [0, 31, 33])
def test_partial_sign_requires_a_32_byte_challenge(key_pool, multi_params, length):
    share = deal_shares(key_pool[4][0], 2, 3, b"\x67" * 32)[1]
    with pytest.raises(ValueError, match="challenge must be 32 bytes"):
        partial_sign(share, b"\x68" * length, multi_params)


def test_linearity_bridge(key_pool):
    # sum L_i (s0_i H + s1_i) == (sum L_i s0_i) H + sum L_i s1_i == s0 H + s1
    sk, _ = key_pool[5]
    shares = deal_shares(sk, 2, 4, b"\x69" * 32)
    chosen = [shares[0], shares[2]]
    lag = lagrange_at_zero([s.participant_x for s in chosen])
    h = hash_to_poly(b"linearity bridge")
    lhs = zero()
    for L, s in zip(lag, chosen):
        lhs = add(lhs, scalar_mul(L, add(mul(s.s0_share, h), s.s1_share)))
    assert lhs == add(mul(sk.s0, h), sk.s1)


def test_precomputed_vs_naive_lagrange(key_pool):
    sk, _ = key_pool[6]
    shares = deal_shares(sk, 3, 5, b"\x6a" * 32)
    chosen = [shares[0], shares[1], shares[4]]
    xs = [s.participant_x for s in chosen]
    precomputed = lagrange_at_zero(xs)
    for j in (0, 100, 511):
        naive = 0
        for i, s in enumerate(chosen):
            L = 1
            for m, xm in enumerate(xs):
                if m != i:
                    L = L * xm % Q * pow(xm - xs[i], Q - 2, Q) % Q
            naive = (naive + L * s.s0_share.coeffs[j]) % Q
        fast = sum(L * s.s0_share.coeffs[j] for L, s in zip(precomputed, chosen)) % Q
        assert naive == fast == sk.s0.coeffs[j]


def workflow(key_pool, params, t, n, ring_size, subset=None):
    ring = make_ring(key_pool, ring_size)
    master_sk = key_pool[0][0]
    shares = deal_shares(master_sk, t, n, b"\x6b" * 32)
    challenge, _ = threshold_challenge(MSG, ring, params)
    if subset is None:
        subset = list(range(t))
    partials = [partial_sign(shares[i], challenge, params) for i in subset]
    sig = combine(partials, MSG, ring, t, params)
    return sig, ring


def test_workflow_2_of_4(key_pool, multi_params):
    sig, ring = workflow(key_pool, multi_params, 2, 4, 4, subset=[1, 3])
    assert threshold_verify_report(sig, MSG, ring, multi_params).ok
    assert sig.required_signers == 2
    assert len(sig.threshold_zk_proofs) == 2 * 96


def test_workflow_3_of_8(key_pool, multi_params):
    sig, ring = workflow(key_pool, multi_params, 3, 8, 8, subset=[0, 4, 7])
    assert threshold_verify_report(sig, MSG, ring, multi_params).ok


def test_subsets_below_threshold_fail(key_pool, multi_params):
    t, n = 3, 8
    ring = make_ring(key_pool, n)
    shares = deal_shares(key_pool[0][0], t, n, b"\x6c" * 32)
    challenge, _ = threshold_challenge(MSG, ring, multi_params)
    partials = [partial_sign(shares[i], challenge, multi_params) for i in (0, 3, 6)]
    for pair in combinations(partials, 2):
        with pytest.raises((ThresholdError, ByzantineShareError)):
            combine(list(pair), MSG, ring, 2, multi_params)
        with pytest.raises(ThresholdError):
            combine(list(pair), MSG, ring, 3, multi_params)


def test_combine_requires_exactly_t(key_pool, multi_params):
    ring = make_ring(key_pool, 4)
    shares = deal_shares(key_pool[0][0], 2, 4, b"\x6d" * 32)
    challenge, _ = threshold_challenge(MSG, ring, multi_params)
    partials = [partial_sign(s, challenge, multi_params) for s in shares[:3]]
    with pytest.raises(ThresholdError):
        combine(partials[:1], MSG, ring, 2, multi_params)
    with pytest.raises(ThresholdError):
        combine(partials, MSG, ring, 2, multi_params)


def test_combine_rejects_duplicate_points(key_pool, multi_params):
    ring = make_ring(key_pool, 4)
    shares = deal_shares(key_pool[0][0], 2, 4, b"\x6e" * 32)
    challenge, _ = threshold_challenge(MSG, ring, multi_params)
    p = partial_sign(shares[0], challenge, multi_params)
    with pytest.raises(ThresholdError):
        combine([p, p], MSG, ring, 2, multi_params)


@pytest.mark.parametrize("t, n", [(1, 2), (2, 4), (64, 64)])
def test_combine_sigma_matches_helper_reference(key_pool, multi_params, t, n):
    # t = n = 64 is the largest sum: 64 products below q^2 < 2^44 each
    ring = make_ring(key_pool, 4)
    shares = deal_shares(key_pool[0][0], t, n, b"\x73" * 32)
    challenge, _ = threshold_challenge(MSG, ring, multi_params)
    partials = [partial_sign(s, challenge, multi_params) for s in shares[n - t:]]
    sig = combine(partials, MSG, ring, t, multi_params)
    lag = lagrange_at_zero([p.participant_x for p in partials])
    reference = zero()
    for L, p in zip(lag, partials):
        reference = add(reference, scalar_mul(L, p.sigma_share))
    assert sig.chipmunk_sig.sigma == reference
    assert verify_signature_report(sig, MSG, ring, multi_params).ok


def test_combine_rejects_bad_partial_lists_before_any_chain(key_pool, multi_params,
                                                            monkeypatch):
    ring = make_ring(key_pool, 4)
    shares = deal_shares(key_pool[0][0], 2, 4, b"\x74" * 32)
    challenge, _ = threshold_challenge(MSG, ring, multi_params)
    p1, p2, p3 = (partial_sign(s, challenge, multi_params) for s in shares[:3])
    chains = []
    for module in (acorn, ringsig):
        monkeypatch.setattr(module, "create_proof",
                            lambda *a, f=module.create_proof: chains.append(a) or f(*a))
    # a message never signed: reaching its challenge would run chains
    for partials in ([p1, p1], [p1], [p1, p2, p3]):
        with pytest.raises(ThresholdError):
            combine(partials, b"never signed", ring, 2, multi_params)
    assert chains == []


def test_byzantine_sigma_detected(key_pool, multi_params):
    ring = make_ring(key_pool, 4)
    shares = deal_shares(key_pool[0][0], 2, 4, b"\x6f" * 32)
    challenge, _ = threshold_challenge(MSG, ring, multi_params)
    good = partial_sign(shares[0], challenge, multi_params)
    other = partial_sign(shares[1], challenge, multi_params)
    coeffs = list(other.sigma_share.coeffs)
    coeffs[17] = (coeffs[17] + 1) % Q
    evil = dataclasses.replace(other, sigma_share=Polynomial(coeffs=tuple(coeffs)))
    with pytest.raises(ByzantineShareError, match="verifies under no ring key"):
        combine([good, evil], MSG, ring, 2, multi_params)


def test_byzantine_proof_detected(key_pool, multi_params):
    ring = make_ring(key_pool, 4)
    shares = deal_shares(key_pool[0][0], 2, 4, b"\x70" * 32)
    challenge, _ = threshold_challenge(MSG, ring, multi_params)
    good = partial_sign(shares[0], challenge, multi_params)
    other = partial_sign(shares[1], challenge, multi_params)
    proof = bytearray(other.acorn_proof)
    proof[5] ^= 0x80
    evil = dataclasses.replace(other, acorn_proof=bytes(proof))
    with pytest.raises(ByzantineShareError):
        combine([good, evil], MSG, ring, 2, multi_params)


# partials made on ring (0, 1) and MSG, combined on another ring or message
@pytest.mark.parametrize("members, message", [
    ((1, 2), MSG),  # another ring, without the master key
    ((0, 1, 2), MSG),  # a superset ring that still holds the master key
    ((0, 1), b"another message"),
], ids=["other-ring", "superset-ring", "other-message"])
def test_combine_names_a_wrong_ring_or_message(key_pool, multi_params, members,
                                               message):
    shares = deal_shares(key_pool[0][0], 2, 3, b"\x71" * 32)
    challenge, _ = threshold_challenge(MSG, make_ring(key_pool, 2), multi_params)
    partials = [partial_sign(share, challenge, multi_params) for share in shares[:2]]
    ring = Ring(members=tuple(key_pool[i][1] for i in members))
    with pytest.raises(ThresholdError) as info:
        combine(partials, message, ring, 2, multi_params)
    assert type(info.value) is ThresholdError
    assert str(info.value) == ("the partials were made on another message or ring, "
                               "or participant 1's proof is corrupt")


def test_verify_rejects_truncated_block(key_pool, multi_params):
    sig, ring = workflow(key_pool, multi_params, 2, 4, 4)
    forged = dataclasses.replace(sig, threshold_zk_proofs=sig.threshold_zk_proofs[:-1])
    report = threshold_verify_report(forged, MSG, ring, multi_params)
    assert report == VerifyReport("structural",
                                  "threshold block is 191 bytes, expected 192")


def test_verify_rejects_zeroed_embedded_proof(key_pool, multi_params):
    sig, ring = workflow(key_pool, multi_params, 2, 4, 4)
    block = b"\x00" * 96 + sig.threshold_zk_proofs[96:]
    forged = dataclasses.replace(sig, threshold_zk_proofs=block)
    report = threshold_verify_report(forged, MSG, ring, multi_params)
    assert not report.ok and report.reason == "threshold_acorn"


def test_verify_rejects_wrong_message(key_pool, multi_params):
    sig, ring = workflow(key_pool, multi_params, 2, 4, 4)
    report = threshold_verify_report(sig, MSG + b"!", ring, multi_params)
    assert not report.ok and report.reason == "challenge"


def test_combine_t1_yields_single_signer_signature(key_pool, multi_params):
    ring = make_ring(key_pool, 4)
    shares = deal_shares(key_pool[0][0], 1, 2, b"\x71" * 32)
    challenge, _ = threshold_challenge(MSG, ring, multi_params)
    partial = partial_sign(shares[1], challenge, multi_params)
    sig = combine([partial], MSG, ring, 1, multi_params)
    assert sig.required_signers == 1
    assert sig.threshold_zk_proofs == b""
    assert verify_signature_report(sig, MSG, ring, multi_params).ok


def test_dispatch_verifies_both_kinds(key_pool, single_params, multi_params):
    from chipmunkring.ringsig import ring_sign

    ring = make_ring(key_pool, 4)
    single = ring_sign(key_pool[0][0], 0, MSG, ring, b"\x72" * 32, single_params)
    assert verify_signature_report(single, MSG, ring, single_params).ok
    tsig, tring = workflow(key_pool, multi_params, 2, 4, 4)
    assert verify_signature_report(tsig, MSG, tring, multi_params).ok


def test_threshold_verifier_does_not_check_member_proofs(key_pool, multi_params):
    # per-member proofs with no Acorn chain behind them, bound only by the
    # challenge; the threshold block carries the real share proofs
    ring = make_ring(key_pool, 4)
    master_sk, master_pk = key_pool[0]
    rhash = ring_hash(ring)
    randomness = [rng.randbytes(32) for _ in range(ring.size)]
    proofs = [rng.randbytes(multi_params.proof_size) for _ in range(ring.size)]
    challenge = challenge_digest(MSG, rhash, zip(randomness, proofs))
    tag = linkability_tag(rhash, MSG, challenge)
    entries = tuple(MemberEntry(r, p, tag) for r, p in zip(randomness, proofs))
    block = b"".join(threshold.share_proof(master_pk, challenge, x, multi_params)
                     for x in (1, 2))
    sig = RingSignature(required_signers=2, challenge=challenge,
                        per_member=entries,
                        chipmunk_sig=hots.sign(master_sk, challenge),
                        threshold_zk_proofs=block)
    assert threshold_verify_report(sig, MSG, ring, multi_params) == VerifyReport("ok")
    single = dataclasses.replace(sig, required_signers=1, threshold_zk_proofs=b"")
    report = verify_signature_report(single, MSG, ring, multi_params)
    assert (report.ok, report.reason) == (False, "acorn")


def test_rebinding_scan_is_bounded_with_duplicate_master_keys(key_pool, multi_params,
                                                              monkeypatch):
    master_sk, master_pk = key_pool[0]
    ring = Ring(members=(master_pk, key_pool[1][1], master_pk, key_pool[2][1], master_pk))
    shares = deal_shares(master_sk, 3, 5, b"\x74" * 32)
    challenge, _ = threshold_challenge(MSG, ring, multi_params)
    partials = [partial_sign(shares[x - 1], challenge, multi_params) for x in (1, 3, 4)]
    sig = combine(partials, MSG, ring, 3, multi_params)
    assert core_matches(sig, ring) == [0, 2, 4]

    points = []
    real = acorn.create_proof

    def counted(pk, message, randomness, x, params):
        points.append(x)
        return real(pk, message, randomness, x, params)

    monkeypatch.setattr(acorn, "create_proof", counted)
    threshold.share_proof.cache_clear()
    assert threshold_verify_report(sig, MSG, ring, multi_params).ok
    assert points == [1, 2, 3, 4]

    for flipped in (0, len(sig.threshold_zk_proofs) - 1):
        block = bytearray(sig.threshold_zk_proofs)
        block[flipped] ^= 0x01
        forged = dataclasses.replace(sig, threshold_zk_proofs=bytes(block))
        points.clear()
        threshold.share_proof.cache_clear()
        report = threshold_verify_report(forged, MSG, ring, multi_params)
        assert report.reason == "threshold_acorn"
        # one scan's worth of proofs for three matching keys, not three
        assert len(points) <= threshold.MAX_PARTICIPANTS
        assert sorted(set(points)) == points
    threshold.share_proof.cache_clear()


def test_rebinding_is_bounded_on_clone_key_rings(key_pool, multi_params, monkeypatch):
    # distinct keys from one secret pair, each with its own rho_seed: all of
    # them meet the core identity for the same sigma
    secret = key_pool[5][0]
    clones = [hots.keypair_from_secrets(bytes([0xC0 + i]) * 32, secret.s0, secret.s1)
              for i in range(8)]
    ring = Ring(members=(key_pool[6][1], *(pk for _, pk in clones), key_pool[7][1]))
    shares = deal_shares(clones[0][0], 2, 3, b"\x75" * 32)
    challenge, _ = threshold_challenge(MSG, ring, multi_params)
    partials = [partial_sign(shares[x - 1], challenge, multi_params) for x in (1, 3)]
    sig = combine(partials, MSG, ring, 2, multi_params)
    assert core_matches(sig, ring) == list(range(1, 9))
    # combine binds the block to the first clone, and the verifier accepts it
    assert threshold_verify_report(sig, MSG, ring, multi_params) == VerifyReport("ok")

    # the same points bound to the second clone: combine never builds this,
    # and the verifier rebinds only to the first matching key
    block = b"".join(threshold.share_proof(clones[1][1], challenge, x, multi_params)
                     for x in (1, 3))
    second = dataclasses.replace(sig, threshold_zk_proofs=block)
    assert threshold_verify_report(second, MSG, ring, multi_params).reason == "threshold_acorn"

    points = []
    real = acorn.create_proof

    def counted(pk, message, randomness, x, params):
        points.append(x)
        return real(pk, message, randomness, x, params)

    monkeypatch.setattr(acorn, "create_proof", counted)
    flipped = bytearray(sig.threshold_zk_proofs)
    flipped[0] ^= 0x01
    forged = dataclasses.replace(sig, threshold_zk_proofs=bytes(flipped))
    threshold.share_proof.cache_clear()
    report = threshold_verify_report(forged, MSG, ring, multi_params)
    assert report.reason == "threshold_acorn"
    # one scan against one key, not one per clone
    assert len(points) <= threshold.MAX_PARTICIPANTS
    threshold.share_proof.cache_clear()


def test_one_session_reuses_both_threshold_caches(key_pool, multi_params):
    # challenge, 16 partial signatures and combine at 16-of-32, in one process
    ring = make_ring(key_pool, 32)
    shares = deal_shares(key_pool[3][0], 16, 32, b"\x77" * 32)
    message = b"one signing session"
    caches = (threshold_challenge, acorn.share_proof)
    before = [cache.cache_info().hits for cache in caches]
    challenge, _ = threshold_challenge(message, ring, multi_params)
    partials = [partial_sign(share, challenge, multi_params) for share in shares[::2]]
    combine(partials, message, ring, 16, multi_params)
    hits = [cache.cache_info().hits - b for cache, b in zip(caches, before)]
    # combine reuses the challenge and each of the 16 partials' proofs
    assert hits == [1, 16]


def test_threshold_challenge_keeps_one_message(key_pool, multi_params):
    mb = 1 << 20
    ring = make_ring(key_pool, 2)
    threshold_challenge.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for i in range(16):
            threshold_challenge(bytes([i]) * mb, ring, multi_params)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
        threshold_challenge.cache_clear()
    # the last message only; a cache of every session would hold 16 MB
    assert retained < 1.5 * mb


def test_secret_fields_stay_out_of_repr(key_pool):
    sk = key_pool[9][0]
    share = deal_shares(sk, 2, 3, b"\x76" * 32)[1]
    for obj, secrets, encode, decode in (
        (sk, ("seed", "s0", "s1"), codec.encode_private_key, codec.decode_private_key),
        (share, ("s0_share", "s1_share"), codec.encode_share, codec.decode_share),
    ):
        text = repr(obj)
        for name in secrets:
            assert not re.search(rf"\b{name}=", text)  # rho_seed= is public
            assert repr(getattr(obj, name)) not in text
        assert "pk=PublicKey(" in text
        blob = encode(obj)
        for copy in (pickle.loads(pickle.dumps(obj)), decode(blob)):
            assert copy == obj
            assert encode(copy) == blob
    assert repr(sk.seed) not in repr(sk) and sk.seed.hex() not in repr(sk)
