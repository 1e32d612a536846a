"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Criteria 1 and 2 carry wall-clock budgets (2 and 3 minutes).
"""

import hashlib
import json
import pathlib
import random
import struct
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from chipmunkring import acorn, codec, ringsig
from chipmunkring.errors import ByzantineShareError, CodecError, ThresholdError
from chipmunkring.hots import ChipmunkSignature
from chipmunkring.params import N, Q, preset
from chipmunkring.polyring import Polynomial, mul
from chipmunkring.ringsig import MemberEntry, Ring, RingSignature
from chipmunkring.threshold import (
    combine,
    deal_shares,
    lagrange_at_zero,
    partial_sign,
    share_scalar,
    threshold_challenge,
    threshold_verify_report,
)

rng = random.Random(0xACCE97)

VECTORS = pathlib.Path(__file__).parent / "vectors" / "golden.json"


def _report(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def make_ring(key_pool, k):
    return Ring(members=tuple(pk for _, pk in key_pool[:k]))


# -- 1. completeness sweep ---------------------------------------------------

def test_criterion_1_completeness_sweep(key_pool, single_params):
    start = time.monotonic()
    trials = 0
    failures = 0
    sweep = 0
    while trials < 1000:
        for k in (2, 4, 8, 16, 32, 64):
            ring = make_ring(key_pool, k)
            positions = range(k) if k <= 8 else [rng.randrange(k) for _ in range(8)]
            for pos in positions:
                msg = b"sweep %d k=%d pos=%d" % (sweep, k, pos)
                entropy = hashlib.shake_256(msg).digest(32)
                sig = ringsig.ring_sign(
                    key_pool[pos][0], pos, msg, ring, entropy, single_params
                )
                if not ringsig.ring_verify_report(sig, msg, ring, single_params).ok:
                    failures += 1
                trials += 1
        sweep += 1
    elapsed = time.monotonic() - start
    assert failures == 0, f"{failures} of {trials} trials failed"
    assert trials >= 1000
    assert elapsed < 120, f"sweep took {elapsed:.1f}s, budget is 120s"
    _report(1, f"completeness sweep: {trials} trials, 0 failures, {elapsed:.1f}s")


# -- 2. threshold grid -------------------------------------------------------

GRID = [(2, 4), (3, 8), (5, 8), (4, 16), (16, 32), (24, 32)]


def test_criterion_2_threshold_grid(key_pool, multi_params):
    start = time.monotonic()
    for cfg_index, (t, n) in enumerate(GRID):
        ring = make_ring(key_pool, n)
        master_index = cfg_index % n
        master_sk = key_pool[master_index][0]
        dealer_entropy = hashlib.shake_256(b"grid deal %d/%d" % (t, n)).digest(32)
        shares = deal_shares(master_sk, t, n, dealer_entropy)
        msg = b"threshold grid %d-of-%d" % (t, n)
        challenge, _ = threshold_challenge(msg, ring, multi_params)
        subset = sorted(rng.sample(range(n), t))
        partials = [partial_sign(shares[i], challenge, multi_params) for i in subset]
        sig = combine(partials, msg, ring, t, multi_params)
        assert threshold_verify_report(sig, msg, ring, multi_params).ok, f"({t},{n}) rejected"
        # every (t-1)-subset of the honest partials must fail
        for reduced in combinations(partials, t - 1):
            if t - 1 == 0:
                continue
            with pytest.raises((ThresholdError, ByzantineShareError)):
                combine(list(reduced), msg, ring, t - 1, multi_params)
            with pytest.raises(ThresholdError):
                combine(list(reduced), msg, ring, t, multi_params)
    elapsed = time.monotonic() - start
    assert elapsed < 180, f"grid took {elapsed:.1f}s, budget is 180s"
    _report(2, f"threshold grid {GRID}: workflows pass, subsets fail, {elapsed:.1f}s")


# -- 3. tamper suite ---------------------------------------------------------

def _mutate(data: bytes, offset: int, x: int) -> bytes:
    out = bytearray(data)
    out[offset] ^= x
    return bytes(out)


def test_criterion_3_tamper_suite(key_pool, single_params, multi_params):
    k = 4
    ring = make_ring(key_pool, k)
    msg = b"tamper suite baseline message"
    entropy = b"\x3c" * 32
    sig = ringsig.ring_sign(key_pool[1][0], 1, msg, ring, entropy, single_params)
    sig_bytes = codec.encode_signature(sig)

    # message mutations: always a challenge mismatch
    for i in range(200):
        off = rng.randrange(len(msg))
        bad = _mutate(msg, off, rng.randrange(1, 256))
        report = ringsig.ring_verify_report(sig, bad, ring, single_params)
        assert not report.ok and report.reason == "challenge", (off, report)

    # signature byte mutations: decode error or verify reject, class by region
    p = single_params.proof_size
    member_start = 8 + 4 + 32
    member_len = 32 + p + 32
    sigma_start = member_start + k * member_len
    for i in range(200):
        off = rng.randrange(len(sig_bytes))
        bad = _mutate(sig_bytes, off, rng.randrange(1, 256))
        try:
            decoded = codec.decode_signature(bad)
        except CodecError:
            continue
        report = ringsig.ring_verify_report(decoded, msg, ring, single_params)
        assert not report.ok, f"false accept at offset {off}"
        if off < member_start:
            assert report.reason in ("structural", "challenge"), (off, report)
        elif off < sigma_start:
            rel = (off - member_start) % member_len
            if rel < 32 + p:
                assert report.reason == "challenge", (off, report)
            else:
                assert report.reason == "linkability", (off, report)
        elif off < sigma_start + codec.POLYNOMIAL_BYTES:
            assert report.reason == "core", (off, report)
        else:
            assert report.reason == "structural", (off, report)

    # ring key byte mutations: decode error or challenge mismatch
    pk_bytes = codec.encode_public_key(ring.members[2])
    for i in range(200):
        off = rng.randrange(len(pk_bytes))
        bad = _mutate(pk_bytes, off, rng.randrange(1, 256))
        try:
            mutated_pk = codec.decode_public_key(bad)
        except CodecError:
            continue
        mutated_ring = Ring(
            members=ring.members[:2] + (mutated_pk,) + ring.members[3:]
        )
        report = ringsig.ring_verify_report(sig, msg, mutated_ring, single_params)
        assert not report.ok and report.reason == "challenge", (off, report)

    # partial-file mutations: decode error, threshold error, or byzantine
    shares = deal_shares(key_pool[1][0], 2, 4, b"\x3d" * 32)
    challenge, _ = threshold_challenge(msg, ring, multi_params)
    good = partial_sign(shares[0], challenge, multi_params)
    other = partial_sign(shares[1], challenge, multi_params)
    other_bytes = codec.encode_partial(other)
    for i in range(200):
        off = rng.randrange(len(other_bytes))
        bad = _mutate(other_bytes, off, rng.randrange(1, 256))
        try:
            mutated = codec.decode_partial(bad)
        except CodecError:
            continue
        with pytest.raises((ThresholdError, ByzantineShareError)):
            combine([good, mutated], msg, ring, 2, multi_params)
    _report(3, "tamper suite: 4x200 mutations, zero false accepts")


# -- 4. size-linearity law ---------------------------------------------------

def _synthetic_signature(k, t=1, proof_size=64):
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
        chipmunk_sig=ChipmunkSignature(
            sigma=Polynomial(coeffs=tuple(rng.randrange(Q) for _ in range(N)))
        ),
        threshold_zk_proofs=b"" if t == 1 else rng.randbytes(t * proof_size),
    )


def test_criterion_4_size_linearity():
    ks = list(range(2, 65))
    sizes = [len(codec.encode_signature(_synthetic_signature(k))) for k in ks]
    # exact least-squares fit over the full range, in rational arithmetic
    n = Fraction(len(ks))
    sx = Fraction(sum(ks))
    sy = Fraction(sum(sizes))
    sxx = Fraction(sum(k * k for k in ks))
    sxy = Fraction(sum(k * s for k, s in zip(ks, sizes)))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    residuals = [Fraction(s) - (slope * k + intercept) for k, s in zip(ks, sizes)]
    assert slope == 128
    assert intercept == 1456
    assert all(r == 0 for r in residuals)
    # multi mode at fixed t: same law with a 160-byte member increment
    tsizes = [len(codec.encode_signature(_synthetic_signature(k, t=2, proof_size=96)))
              for k in ks]
    assert {b - a for a, b in zip(tsizes, tsizes[1:])} == {160}
    _report(4, "sizes exactly affine: 1456 + 128k single-mode, residual 0")


# -- 5. performance envelope -------------------------------------------------

# mean-time ceilings: 10x the reference desktop figures, milliseconds
SIGN_CEILING_MS = {2: 11.14, 4: 16.31, 8: 25.73, 16: 46.71, 32: 95.96, 64: 150.74}
VERIFY_CEILING_MS = {2: 7.06, 4: 4.34, 8: 7.46, 16: 12.41, 32: 35.90, 64: 45.28}


def test_criterion_5_performance_envelope(load_script):
    bench_single = load_script("bench_table")._bench_single
    lines = []
    for k in (2, 4, 8, 16, 32, 64):
        rec = bench_single(k, iterations=100, warmup=10)
        s, v = rec["sign"], rec["verify"]
        lines.append(
            f"  k={k:>2}: sign mean {s['mean']:.2f} median {s['median']:.2f} "
            f"p95 {s['p95']:.2f} ms (ceiling {SIGN_CEILING_MS[k]}); "
            f"verify mean {v['mean']:.2f} median {v['median']:.2f} "
            f"p95 {v['p95']:.2f} ms (ceiling {VERIFY_CEILING_MS[k]})"
        )
        assert s["mean"] <= SIGN_CEILING_MS[k], f"k={k} sign {s['mean']:.2f}ms"
        assert v["mean"] <= VERIFY_CEILING_MS[k], f"k={k} verify {v['mean']:.2f}ms"
    print()
    for line in lines:
        print(line)
    _report(5, "single-mode timings within 10x reference envelope, 100 iterations")


# -- 6. oracle equivalences --------------------------------------------------

def test_criterion_6a_ntt_vs_schoolbook():
    for _ in range(100):
        f = tuple(rng.randrange(Q) for _ in range(N))
        g = tuple(rng.randrange(Q) for _ in range(N))
        t = np.convolve(np.array(f, dtype=np.int64), np.array(g, dtype=np.int64))
        t = np.concatenate([t, np.zeros(2 * N - len(t), dtype=np.int64)])
        expected = ((t[:N] - t[N:2 * N]) % Q).tolist()
        got = mul(Polynomial(coeffs=f), Polynomial(coeffs=g))
        assert list(got.coeffs) == expected
    _report("6a", "NTT product == negacyclic convolution, 100 pairs exact")


def test_criterion_6b_acorn_vs_xof_oracle(key_pool, single_params, multi_params):
    for params in (single_params, multi_params):
        for i in range(20):
            _, pk = key_pool[i % 8]
            message = b"xof oracle %d" % i
            randomness = rng.randbytes(32)
            index = rng.randrange(64)
            payload = (
                b"ACORN_COMMITMENT_V1"
                + struct.pack("<I", len(randomness)) + randomness
                + struct.pack("<I", len(message)) + message
                + struct.pack("<I", index)
                + codec.encode_public_key(pk)
            )
            want = payload
            for _ in range(params.iterations):
                want = hashlib.shake_256(want).digest(
                    max(params.proof_size, 32))[:params.proof_size]
            got = acorn.create_proof(pk, message, randomness, index, params)
            assert got == want
    _report("6b", "full-chain proofs == independent SHAKE256 oracle, both modes")


def test_criterion_6c_lagrange_vs_direct_evaluation():
    for t in (2, 3, 5):
        points = sorted(rng.sample(range(1, 65), t))
        lag = lagrange_at_zero(points)
        for _ in range(50):
            f = [rng.randrange(Q) for _ in range(t)]  # degree t-1
            direct = []
            for x in points:
                acc = 0
                for c in reversed(f):
                    acc = (acc * x + c) % Q
                direct.append(acc)
            assert sum(L * y for L, y in zip(lag, direct)) % Q == f[0]
    _report("6c", "precomputed weights reproduce f(0) exactly, t in {2,3,5}")


def test_criterion_6d_toy_field_hiding():
    q = 17
    for x in range(1, q):
        for secret in range(q):
            values = sorted(share_scalar(secret, [a], [x], q)[0] for a in range(q))
            assert values == list(range(q))
    _report("6d", "toy-field (q=17, t=2) share distribution exactly uniform")


# -- 7. codec fuzz -----------------------------------------------------------

def test_criterion_7_codec_fuzz(key_pool, multi_params):
    sk, pk = key_pool[0]
    ring = make_ring(key_pool, 4)
    msg = b"fuzz corpus message"
    sig = ringsig.ring_sign(sk, 0, msg, ring, b"\x44" * 32, preset("single"))
    shares = deal_shares(sk, 2, 4, b"\x45" * 32)
    challenge, _ = threshold_challenge(msg, ring, multi_params)
    partials = [partial_sign(shares[i], challenge, multi_params) for i in (0, 1)]
    tsig = combine(partials, msg, ring, 2, multi_params)

    corpus = [
        (codec.encode_public_key(pk), codec.decode_public_key, codec.encode_public_key),
        (codec.encode_private_key(sk), codec.decode_private_key, codec.encode_private_key),
        (codec.encode_signature(sig), codec.decode_signature, codec.encode_signature),
        (codec.encode_signature(tsig), codec.decode_signature, codec.encode_signature),
        (codec.encode_share(shares[0]), codec.decode_share, codec.encode_share),
        (codec.encode_partial(partials[0]), codec.decode_partial, codec.encode_partial),
    ]
    total = 0
    errors = 0
    while total < 10_000:
        data, decode, encode = corpus[total % len(corpus)]
        if total % 2 == 0:
            blob = data[:rng.randrange(len(data))]
            must_fail = True
        else:
            blob = _mutate(data, rng.randrange(len(data)), rng.randrange(1, 256))
            must_fail = False
        try:
            obj = decode(blob)
        except CodecError:
            errors += 1
        else:
            assert not must_fail, "truncated input decoded successfully"
            assert encode(obj) == blob, "accepted bytes do not re-encode identically"
        total += 1
    assert errors >= 5000  # every truncation errored
    _report(7, f"codec fuzz: {total} inputs, {errors} typed errors, no crash")


# -- 8. determinism vectors --------------------------------------------------

def test_criterion_8_determinism_vectors(load_script):
    # the script that writes the vectors derives them afresh, every field
    assert load_script("make_golden_vectors").derive() == json.loads(VECTORS.read_text())
    _report(8, "golden vectors reproduce bit-exactly")
