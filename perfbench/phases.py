"""The child processes of a round: signer and verifier of ring64-warm and
threshold-16of32, key files and tampered copies of cli-cold.

Run as `python3 perfbench/phases.py JOB.json` with src/ on PYTHONPATH; the
parent (run.py) starts one at a time. The signer builds the decoy pool from
the seed, signs each op with a never-used key and writes wire bytes plus the
expected decision of each verify input. The verifier is a fresh process
that reads only those bytes, so no cache warmed by the signer reaches it.
"""

import dataclasses
import hashlib
import json
import pickle
import sys
import traceback
from pathlib import Path

import tracing
from common import (
    EXPECTED,
    RING64,
    RING64_TAMPERS,
    THRESHOLD,
    THRESHOLD_TAMPERS,
    clock,
    derive,
    derive_int,
    message,
)

from chipmunkring import codec, hots, ringsig, threshold
from chipmunkring.errors import ByzantineShareError, CodecError
from chipmunkring.params import Q, preset
from chipmunkring.polyring import Polynomial


def setup(job, count, params, directory=None):
    """Build the decoy pool, writing each encoded key to a file in `directory`
    when one is given.

    Returns (keys, encoded keys, key file paths, seconds per key). Each key
    is timed alone, so a run has hundreds of set-up samples.
    """
    keys, blobs, paths, key_s = [], [], [], []
    for j in range(count):
        t0 = clock()
        pk = hots.keygen(derive(job["seed"], job["workload"], "decoy", j), params)[1]
        blob = codec.encode_public_key(pk)
        if directory is not None:
            path = directory / f"{j:02d}.pk"
            path.write_bytes(blob)
            paths.append(str(path))
        key_s.append(clock() - t0)
        keys.append(pk)
        blobs.append(blob)
    return keys, blobs, paths, key_s


def write_keyfiles(job, tracer):
    """A cli-cold round's key files, in a fresh directory.

    Each decoy public key, with its file write, is one set-up sample. Each
    fresh signer key pair of the round's ops is timed alone, as that op's
    key preparation; file writes are left out of that time.
    """
    params = preset("single")
    directory = Path(job["dir"])
    directory.mkdir()
    _, _, decoys, setup_key_s = setup(job, job["count"], params, directory)
    if job["trace"]:
        tracer.install()
    deal_s, signers, keys = [], [], []
    for i in range(job["first_op"], job["first_op"] + job["ops"]):
        with tracer.root("deal", i):
            t0 = clock()
            sk, pk = hots.keygen(derive(job["seed"], job["workload"], "signer", i), params)
            pk_blob = codec.encode_public_key(pk)
            sk_blob = codec.encode_private_key(sk)
            deal_s.append(clock() - t0)
        pk_path, sk_path = directory / f"signer{i}.pk", directory / f"signer{i}.sk"
        pk_path.write_bytes(pk_blob)
        sk_path.write_bytes(sk_blob)
        signers.append((str(pk_path), str(sk_path)))
        keys.append(hashlib.sha3_256(pk_blob).hexdigest())
    return {"setup_key_s": setup_key_s, "decoys": decoys, "signers": signers,
            "deal_s": deal_s, "signer_keys": keys, "attempted": 0, "failed": 0,
            "misses": []}


def write_tampered(job):
    """Tampered copies of a cli-cold round's signatures, as files.

    Runs in its own process so that the parent never imports chipmunkring:
    a child's peak RSS counts its parent's RSS at spawn (see run_child).
    """
    for t in job["tampers"]:
        blob, msg = Path(t["sig"]).read_bytes(), Path(t["msg"]).read_bytes()
        bad_blob, bad_msg, _ = tamper(codec.decode_signature(blob), blob, msg, t["kind"],
                                      t["ring"], job["seed"],
                                      [job["workload"], "tamper", t["op"]])
        Path(t["bad_sig"]).write_bytes(bad_blob)
        Path(t["bad_msg"]).write_bytes(bad_msg)
    return {"attempted": 0, "failed": 0, "misses": []}


def flip(data: bytes, index: int, mask: int) -> bytes:
    out = bytearray(data)
    out[index] ^= mask
    return bytes(out)


def bump_coefficient(p: Polynomial, index: int) -> Polynomial:
    coeffs = list(p.coeffs)
    coeffs[index] = (coeffs[index] + 1) % Q
    return Polynomial(coeffs=tuple(coeffs))


def tamper(sig, blob, msg, kind, ring_size, seed, label):
    """A tampered copy of (signature bytes, message, ring swap) of one kind."""
    def pick(what, bound):
        return derive_int(seed, label, what, bound=bound)

    mask = 1 + pick("mask", 255)
    swap = None
    if kind == "sigma":
        sigma = bump_coefficient(sig.chipmunk_sig.sigma, pick("coeff", 512))
        sig = dataclasses.replace(sig, chipmunk_sig=hots.ChipmunkSignature(sigma=sigma))
    elif kind in ("proof", "randomness", "linkability"):
        field = "acorn_proof" if kind == "proof" else kind
        entries = list(sig.per_member)
        j = pick("member", len(entries))
        old = getattr(entries[j], field)
        entries[j] = dataclasses.replace(
            entries[j], **{field: flip(old, pick("byte", len(old)), mask)})
        sig = dataclasses.replace(sig, per_member=tuple(entries))
    elif kind == "threshold_block":
        block = sig.threshold_zk_proofs
        sig = dataclasses.replace(
            sig, threshold_zk_proofs=flip(block, pick("byte", len(block)), mask))
    elif kind == "message":
        msg = flip(msg, pick("byte", len(msg)), mask)
    elif kind == "ring_order":
        a = pick("a", ring_size)
        swap = (a, (a + 1 + pick("b", ring_size - 1)) % ring_size)
    elif kind == "truncated":
        return blob[:1 + pick("cut", len(blob) - 1)], msg, None
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    return codec.encode_signature(sig), msg, swap


class Outcomes:
    """Compares every outcome with its expectation; keeps the first misses."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses = []

    def check(self, what, expected, got):
        self.attempted += 1
        if got != expected:
            self.failed += 1
            if len(self.misses) < 5:
                self.misses.append(f"{what}: expected {expected}, got {got}")


def run_signer(job, tracer, sign_op):
    """Set up, then run sign_op on the round's ops; shared by both workloads."""
    spec = RING64 if job["workload"] == "ring64-warm" else THRESHOLD
    params = preset(spec["params"])
    decoys, decoy_blobs, _, setup_key_s = setup(job, spec["ring"] - 1, params)
    if job["trace"]:
        tracer.install()
    state = {"params": params, "decoys": decoys, "spec": spec, "tracer": tracer,
             "job": job, "outcomes": Outcomes(), "signer_keys": [],
             "deal_s": [], "sign_s": [], "inputs": []}
    for i in range(job["first_op"], job["first_op"] + spec["round_ops"]):
        sign_op(state, i)
    with open(job["inputs"], "wb") as fh:
        pickle.dump({"decoys": decoy_blobs, "inputs": state["inputs"]}, fh,
                    protocol=pickle.HIGHEST_PROTOCOL)
    out = state["outcomes"]
    return {"setup_key_s": setup_key_s,
            "deal_s": state["deal_s"], "sign_s": state["sign_s"],
            "attempted": out.attempted, "failed": out.failed, "misses": out.misses,
            "signer_keys": state["signer_keys"]}


def fresh_ring(state, pk, pos):
    decoys = state["decoys"]
    return ringsig.Ring(members=tuple(decoys[:pos]) + (pk,) + tuple(decoys[pos:]))


def record_inputs(state, i, sig, blob, pk_blob, pos, msg, tamper_kind):
    """Queue the honest input and, when scheduled, one tampered copy."""
    state["inputs"].append((i, "honest", blob, pk_blob, pos, None, msg,
                            EXPECTED["honest"]))
    if tamper_kind is not None:
        job = state["job"]
        t_blob, t_msg, swap = tamper(sig, blob, msg, tamper_kind, state["spec"]["ring"],
                                     job["seed"], [job["workload"], "tamper", i])
        state["inputs"].append((i, tamper_kind, t_blob, pk_blob, pos, swap, t_msg,
                                EXPECTED[tamper_kind]))


def ring64_op(state, i):
    job, params, tracer = state["job"], state["params"], state["tracer"]
    seed, wl, k = job["seed"], job["workload"], state["spec"]["ring"]
    with tracer.root("deal", i):
        t0 = clock()
        sk, pk = hots.keygen(derive(seed, wl, "signer", i), params)
        pk_blob = codec.encode_public_key(pk)
        t1 = clock()
    state["deal_s"].append(t1 - t0)
    state["signer_keys"].append(hashlib.sha3_256(pk_blob).hexdigest())
    pos = i % k
    ring = fresh_ring(state, pk, pos)
    msg = message(seed, wl, i)
    entropy = derive(seed, wl, "entropy", i)
    sig = blob = None
    with tracer.root("sign", i):
        t0 = clock()
        try:
            sig = ringsig.ring_sign(sk, pos, msg, ring, entropy, params)
            blob = codec.encode_signature(sig)
            got = "signed"
        except Exception:  # boundary: record the failure and keep measuring
            got = "error: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        t1 = clock()
    state["outcomes"].check(f"sign op {i}", "signed", got)
    if blob is None:
        return
    state["sign_s"].append(t1 - t0)
    j = i % state["spec"]["round_ops"]
    kind = RING64_TAMPERS[(j // 2) % len(RING64_TAMPERS)] if j % 2 == 1 else None
    record_inputs(state, i, sig, blob, pk_blob, pos, msg, kind)


def corrupt_partial(part, kind, seed, label):
    if kind == "share_sigma":
        sigma = bump_coefficient(part.sigma_share, derive_int(seed, label, bound=512))
        return dataclasses.replace(part, sigma_share=sigma)
    proof = flip(part.acorn_proof, derive_int(seed, label, bound=len(part.acorn_proof)), 1)
    return dataclasses.replace(part, acorn_proof=proof)


def threshold_op(state, i):
    job, params, tracer, spec = state["job"], state["params"], state["tracer"], state["spec"]
    seed, wl, k, t = job["seed"], job["workload"], spec["ring"], spec["t"]
    with tracer.root("deal", i):
        t0 = clock()
        msk, mpk = hots.keygen(derive(seed, wl, "master", i), params)
        pk_blob = codec.encode_public_key(mpk)
        shares = threshold.deal_shares(msk, t, k, derive(seed, wl, "dealer", i))
        t1 = clock()
    state["deal_s"].append(t1 - t0)
    state["signer_keys"].append(hashlib.sha3_256(pk_blob).hexdigest())
    pos = i % k
    ring = fresh_ring(state, mpk, pos)
    msg = message(seed, wl, i)
    j = i % spec["round_ops"]
    subset = [shares[(2 * j + n) % k] for n in range(t)]
    byzantine = j % spec["byzantine_every"] == 3
    sig = blob = None
    with tracer.root("sign", i):
        t0 = clock()
        try:
            challenge, _ = threshold.threshold_challenge(msg, ring, params)
            partials = [threshold.partial_sign(sh, challenge, params) for sh in subset]
            if byzantine:
                c = derive_int(seed, wl, "corrupt", i, bound=t)
                kind = "share_sigma" if (j // spec["byzantine_every"]) % 2 else "share_proof"
                partials[c] = corrupt_partial(partials[c], kind, seed, [wl, "corrupt", i])
            sig = threshold.combine(partials, msg, ring, t, params)
            blob = codec.encode_signature(sig)
            got = "signed"
        except ByzantineShareError:
            got = "byzantine"
        except Exception:  # boundary: record the failure and keep measuring
            got = "error: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        t1 = clock()
    state["outcomes"].check(f"sign op {i}", "byzantine" if byzantine else "signed", got)
    if blob is None or byzantine:
        return
    state["sign_s"].append(t1 - t0)
    kind = THRESHOLD_TAMPERS[(j // 4) % len(THRESHOLD_TAMPERS)] if j % 4 == 1 else None
    record_inputs(state, i, sig, blob, pk_blob, pos, msg, kind)


def decide(sig_blob, member_blobs, msg):
    """Wire bytes to (accepted, reason), as a verifying node would."""
    try:
        sig = codec.decode_signature(sig_blob)
        ring = ringsig.Ring(members=tuple(codec.decode_public_key(b) for b in member_blobs))
        mode = "single" if codec.signature_mode(sig) == codec.MODE_SINGLE else "multi"
        report = threshold.verify_signature_report(sig, msg, ring, preset(mode))
    except CodecError:
        return (False, "decode")
    return (report.ok, report.reason)


def run_verifier(job, tracer):
    with open(job["inputs"], "rb") as fh:
        data = pickle.load(fh)
    decoys = data["decoys"]
    if job["trace"]:
        tracer.install()
    outcomes = Outcomes()
    latencies = []
    begin = clock()
    for op, kind, blob, signer, pos, swap, msg, expected in data["inputs"]:
        members = decoys[:pos] + [signer] + decoys[pos:]
        if swap is not None:
            a, b = swap
            members[a], members[b] = members[b], members[a]
        with tracer.root("verify", op):
            t0 = clock()
            try:
                got = decide(blob, members, msg)
            except Exception:  # boundary: record the failure and keep measuring
                got = ("error", traceback.format_exc(limit=1).strip().splitlines()[-1])
            t1 = clock()
        latencies.append(t1 - t0)
        outcomes.check(f"verify op {op} ({kind})", expected, got)
    elapsed = clock() - begin
    return {"elapsed_s": elapsed, "verify_s": latencies,
            "attempted": outcomes.attempted, "failed": outcomes.failed,
            "misses": outcomes.misses}


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = tracing.Tracer() if job["trace"] else tracing.NullTracer()
    if job["phase"] == "verify":
        result = run_verifier(job, tracer)
    elif job["phase"] == "keyfiles":
        result = write_keyfiles(job, tracer)
    elif job["phase"] == "tamper":
        result = write_tampered(job)
    else:
        sign_op = ring64_op if job["workload"] == "ring64-warm" else threshold_op
        result = run_signer(job, tracer, sign_op)
    if job["trace"]:
        tracer.dump(job["spans"])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
