"""Command-line tool: key management, ring signing, threshold workflow over
files, and a benchmark harness.

Exit codes: 0 accept, 1 cryptographic reject, 2 structural/parse/usage
failure, 3 I/O failure, 4 byzantine share detected.
"""

import argparse
import csv
import hashlib
import math
import os
import statistics
import sys
import time

from . import codec, hots, ringsig, threshold
from .codec import signature_mode
from .errors import (
    ByzantineShareError,
    ChipmunkRingError,
    CodecError,
    ParameterError,
    RingSizeError,
    SignerNotInRingError,
    ThresholdError,
)
from .params import preset
from .ringsig import Ring
from .threshold import threshold_challenge

EXIT_OK = 0
EXIT_CRYPTO = 1
EXIT_STRUCTURAL = 2
EXIT_IO = 3
EXIT_BYZANTINE = 4

DEFAULT_RING_SIZES = "2,4,8,16,32,64"
DEFAULT_THRESHOLD_CONFIGS = "2/4,3/8,5/8,4/16,16/32"


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _seed_bytes(hexstr, what="seed") -> bytes:
    if hexstr is None:
        return os.urandom(32)
    try:
        seed = bytes.fromhex(hexstr)
    except ValueError:
        raise ValueError(f"{what} must be hexadecimal") from None
    if len(seed) != 32:
        raise ValueError(f"{what} must be 64 hex characters (32 bytes)")
    return seed


def _load_ring(spec: str) -> Ring:
    paths = [p for p in spec.split(",") if p]
    members = tuple(codec.decode_public_key(_read(p)) for p in paths)
    return Ring(members=members)


def _params_for_signature(sig):
    return preset("single" if signature_mode(sig) == 1 else "multi")


def cmd_keygen(args) -> int:
    entropy = _seed_bytes(args.seed)
    sk, pk = hots.keygen(entropy, preset("single"))
    _write(args.out + ".pk", codec.encode_public_key(pk))
    _write(args.out + ".sk", codec.encode_private_key(sk))
    print(f"wrote {args.out}.pk and {args.out}.sk")
    return EXIT_OK


def cmd_sign(args) -> int:
    sk = codec.decode_private_key(_read(args.sk))
    ring = _load_ring(args.ring)
    message = _read(args.message)
    try:
        signer_index = ring.members.index(sk.pk)
    except ValueError:
        print("error: signer's public key is not among the ring keys", file=sys.stderr)
        return EXIT_STRUCTURAL
    params = preset(args.mode)
    entropy = _seed_bytes(args.seed, "entropy")
    sig = ringsig.ring_sign(sk, signer_index, message, ring, entropy, params)
    blob = codec.encode_signature(sig)
    _write(args.out, blob)
    print(f"wrote {args.out} ({len(blob)} bytes, ring of {ring.size})")
    return EXIT_OK


def cmd_verify(args) -> int:
    sig = codec.decode_signature(_read(args.sig))
    ring = _load_ring(args.ring)
    message = _read(args.message)
    params = _params_for_signature(sig)
    report = threshold.verify_signature_report(sig, message, ring, params)
    if report.ok:
        print("accept")
        return EXIT_OK
    print(f"reject: {report.reason}" + (f" ({report.detail})" if report.detail else ""))
    return EXIT_STRUCTURAL if report.reason == "structural" else EXIT_CRYPTO


def cmd_share(args) -> int:
    sk = codec.decode_private_key(_read(args.sk))
    entropy = _seed_bytes(args.seed)
    shares = threshold.deal_shares(sk, args.threshold, args.participants, entropy)
    for share in shares:
        path = f"{args.out_prefix}.share{share.participant_x:02d}"
        _write(path, codec.encode_share(share))
    print(f"wrote {len(shares)} share files "
          f"({args.threshold}-of-{args.participants})")
    return EXIT_OK


def cmd_partial_sign(args) -> int:
    share = codec.decode_share(_read(args.share))
    ring = _load_ring(args.ring)
    message = _read(args.message)
    params = preset("multi")
    challenge, _ = threshold_challenge(message, ring, params)
    partial = threshold.partial_sign(share, challenge, params)
    _write(args.out, codec.encode_partial(partial))
    print(f"wrote {args.out} (participant {share.participant_x})")
    return EXIT_OK


def cmd_combine(args) -> int:
    paths = [p for p in args.partials.split(",") if p]
    partials = [codec.decode_partial(_read(p)) for p in paths]
    ring = _load_ring(args.ring)
    message = _read(args.message)
    params = preset("multi")
    sig = threshold.combine(partials, message, ring, args.threshold, params)
    _write(args.out, codec.encode_signature(sig))
    print(f"wrote {args.out} (combined {args.threshold} partial signatures)")
    return EXIT_OK


def _stats_ms(samples):
    ordered = sorted(samples)
    p95 = ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]
    return {
        "mean": statistics.fmean(samples),
        "std": statistics.pstdev(samples),
        "median": statistics.median(samples),
        "p95": p95,
    }


def _bench_keys(count: int, params):
    keys = []
    for i in range(count):
        entropy = hashlib.shake_256(b"chipmunkring-bench-key" + bytes([i])).digest(32)
        keys.append(hots.keygen(entropy, params))
    return keys


def _bench_loop(one, record: dict, iterations: int, warmup: int, budget: float):
    """Time one(i) -> (sign_ms, verify_ms, signature_bytes) for a configuration.

    One probe call predicts the total; over budget seconds, record comes
    back marked skipped. Otherwise warmup calls (the probe counts as the
    first) precede the measured ones, and record gains the signature size
    and stats.
    """
    s, v, size = one(0)
    if (s + v) / 1e3 * (warmup + iterations) > budget:
        return {**record, "skipped": True}
    for i in range(1, warmup):
        one(i)
    signs, verifies = [], []
    for i in range(iterations):
        s, v, size = one(warmup + i)
        signs.append(s)
        verifies.append(v)
    return {**record, "signature_bytes": size, "sign": _stats_ms(signs),
            "verify": _stats_ms(verifies), "iterations": iterations}


def _bench_single(k: int, iterations: int, warmup: int, budget: float):
    params = preset("single")
    keys = _bench_keys(k, params)
    ring = Ring(members=tuple(pk for _, pk in keys))

    def one(i: int):
        message = b"bench single %d %d" % (k, i)
        entropy = hashlib.shake_256(b"bench-entropy%d-%d" % (k, i)).digest(32)
        signer = i % k
        t0 = time.perf_counter()
        sig = ringsig.ring_sign(keys[signer][0], signer, message, ring, entropy, params)
        t1 = time.perf_counter()
        ok = ringsig.ring_verify(sig, message, ring, params)
        t2 = time.perf_counter()
        assert ok, "benchmark signature failed to verify"
        return (t1 - t0) * 1e3, (t2 - t1) * 1e3, len(codec.encode_signature(sig))

    return _bench_loop(one, {"ring_size": k, "mode": "single", "threshold": 1},
                       iterations, warmup, budget)


def _bench_threshold(t: int, n: int, iterations: int, warmup: int, budget: float):
    params = preset("multi")
    keys = _bench_keys(n, params)
    ring = Ring(members=tuple(pk for _, pk in keys))
    master_sk = keys[0][0]
    dealer_entropy = hashlib.shake_256(b"bench-deal%d/%d" % (t, n)).digest(32)
    shares = threshold.deal_shares(master_sk, t, n, dealer_entropy)

    def one(i: int):
        message = b"bench threshold %d/%d %d" % (t, n, i)
        subset = [shares[(i + j) % n] for j in range(t)]
        t0 = time.perf_counter()
        challenge, _ = threshold_challenge(message, ring, params)
        partials = [threshold.partial_sign(sh, challenge, params) for sh in subset]
        sig = threshold.combine(partials, message, ring, t, params)
        t1 = time.perf_counter()
        # a fresh verifier holds none of the signer-side proof cache
        threshold._expected_share_proof.cache_clear()
        t2 = time.perf_counter()
        ok = threshold.threshold_verify(sig, message, ring, params)
        t3 = time.perf_counter()
        assert ok, "benchmark threshold signature failed to verify"
        return (t1 - t0) * 1e3, (t3 - t2) * 1e3, len(codec.encode_signature(sig))

    return _bench_loop(one, {"ring_size": n, "mode": "threshold", "threshold": t},
                       iterations, warmup, budget)


def _fit_sizes(records):
    """Least-squares line through (ring_size, signature_bytes) single-mode points."""
    pts = [(r["ring_size"], r["signature_bytes"])
           for r in records if r["mode"] == "single" and "sign" in r]
    if len(pts) < 2:
        return None
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in pts)
    mean_y = sy / n
    ss_tot = sum((y - mean_y) ** 2 for _, y in pts)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2, ss_res


def cmd_bench(args) -> int:
    if args.iterations < 10:
        print("error: --iterations must be at least 10", file=sys.stderr)
        return EXIT_STRUCTURAL
    ring_sizes = [int(x) for x in args.ring_sizes.split(",") if x]
    modes = [m for m in args.modes.split(",") if m]
    for m in modes:
        if m not in ("single", "threshold"):
            print(f"error: unknown mode {m!r}", file=sys.stderr)
            return EXIT_STRUCTURAL
    warmup = max(3, args.iterations // 10)
    records = []
    if "single" in modes:
        for k in ring_sizes:
            records.append(_bench_single(k, args.iterations, warmup, args.time_budget))
    if "threshold" in modes:
        for spec in args.threshold_configs.split(","):
            t_str, n_str = spec.split("/")
            t, n = int(t_str), int(n_str)
            records.append(_bench_threshold(t, n, args.iterations, warmup,
                                            args.time_budget))

    header = (f"{'ring':>4} {'mode':>9} {'t':>3} {'bytes':>8} "
              f"{'sign mean':>10} {'std':>7} {'median':>8} {'p95':>8} "
              f"{'vrfy mean':>10} {'std':>7} {'median':>8} {'p95':>8}")
    print(header)
    print("-" * len(header))
    for r in records:
        if r.get("skipped"):
            print(f"{r['ring_size']:>4} {r['mode']:>9} {r['threshold']:>3} "
                  f"{'skipped (time budget)':>40}")
            continue
        s, v = r["sign"], r["verify"]
        print(f"{r['ring_size']:>4} {r['mode']:>9} {r['threshold']:>3} "
              f"{r['signature_bytes']:>8} "
              f"{s['mean']:>9.3f}ms {s['std']:>6.3f} {s['median']:>7.3f} {s['p95']:>7.3f} "
              f"{v['mean']:>9.3f}ms {v['std']:>6.3f} {v['median']:>7.3f} {v['p95']:>7.3f}")
    fit = _fit_sizes(records)
    if fit:
        slope, intercept, r2, ss_res = fit
        print(f"size fit: bytes = {intercept:.1f} + {slope:.1f} * ring_size "
              f"(R^2 = {r2:.6f}, residual sum of squares = {ss_res:.1f})")
    print(f"iterations: {args.iterations} measured after {warmup} warm-up; "
          f"verification parallelism: none (single-threaded)")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ring_size", "mode", "threshold", "status",
                             "signature_bytes", "iterations",
                             "sign_mean_ms", "sign_std_ms", "sign_median_ms",
                             "sign_p95_ms", "verify_mean_ms", "verify_std_ms",
                             "verify_median_ms", "verify_p95_ms"])
            for r in records:
                if r.get("skipped"):
                    writer.writerow([r["ring_size"], r["mode"], r["threshold"],
                                     "skipped"] + [""] * 10)
                    continue
                s, v = r["sign"], r["verify"]
                writer.writerow([
                    r["ring_size"], r["mode"], r["threshold"], "ok",
                    r["signature_bytes"], r["iterations"],
                    f"{s['mean']:.6f}", f"{s['std']:.6f}", f"{s['median']:.6f}",
                    f"{s['p95']:.6f}", f"{v['mean']:.6f}", f"{v['std']:.6f}",
                    f"{v['median']:.6f}", f"{v['p95']:.6f}",
                ])
        print(f"wrote {args.csv}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipmunkring",
        description="Post-quantum ring signatures: keys, signing, threshold "
                    "workflow, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--seed", help="64 hex chars; omit for OS entropy")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("sign", help="create a single-signer ring signature")
    p.add_argument("--sk", required=True, help="signer private key file")
    p.add_argument("--ring", required=True, help="comma-separated public key files")
    p.add_argument("--message", required=True, help="message file (raw bytes)")
    p.add_argument("--out", required=True, help="signature output file")
    p.add_argument("--seed", help="64 hex chars of signing entropy")
    p.add_argument("--mode", choices=["single", "multi"], default="single")
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("verify", help="verify a ring signature")
    p.add_argument("--sig", required=True, help="signature file")
    p.add_argument("--ring", required=True, help="comma-separated public key files")
    p.add_argument("--message", required=True, help="message file (raw bytes)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("share", help="split a private key into threshold shares")
    p.add_argument("--sk", required=True, help="master private key file")
    p.add_argument("--threshold", type=int, required=True, help="required signers t")
    p.add_argument("--participants", type=int, required=True, help="share count n")
    p.add_argument("--out-prefix", required=True, help="share file prefix")
    p.add_argument("--seed", help="64 hex chars of dealer entropy")
    p.set_defaults(func=cmd_share)

    p = sub.add_parser("partial-sign", help="sign a challenge with one key share")
    p.add_argument("--share", required=True, help="key share file")
    p.add_argument("--ring", required=True, help="comma-separated public key files")
    p.add_argument("--message", required=True, help="message file (raw bytes)")
    p.add_argument("--out", required=True, help="partial signature output file")
    p.set_defaults(func=cmd_partial_sign)

    p = sub.add_parser("combine", help="combine partial signatures")
    p.add_argument("--partials", required=True,
                   help="comma-separated partial signature files")
    p.add_argument("--ring", required=True, help="comma-separated public key files")
    p.add_argument("--message", required=True, help="message file (raw bytes)")
    p.add_argument("--threshold", type=int, required=True, help="required signers t")
    p.add_argument("--out", required=True, help="signature output file")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("bench", help="run the performance table")
    p.add_argument("--ring-sizes", default=DEFAULT_RING_SIZES)
    p.add_argument("--modes", default="single,threshold")
    p.add_argument("--threshold-configs", default=DEFAULT_THRESHOLD_CONFIGS,
                   help="comma-separated t/n pairs")
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--csv", help="also write records to this CSV path")
    p.add_argument("--time-budget", type=float, default=120.0,
                   help="seconds allowed per configuration before skipping")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ByzantineShareError as exc:
        print(f"byzantine share detected: {exc}", file=sys.stderr)
        return EXIT_BYZANTINE
    except CodecError as exc:
        print(f"decode error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except (ThresholdError, RingSizeError, SignerNotInRingError,
            ParameterError, ChipmunkRingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
