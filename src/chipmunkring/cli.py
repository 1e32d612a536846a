"""Command-line tool: key management, ring signing, threshold workflow over
files, and a benchmark harness.

Exit codes: 0 accept, 1 cryptographic reject, 2 structural/parse/usage
failure, 3 I/O failure, 4 byzantine share detected. No command
overwrites a file it writes (exit 3); the secret files of keygen and
share (.sk, .shareNN) are created with mode 0600. A command refuses by
raising; main is the one place that turns an exception into its stderr
line and exit code.
"""

import argparse
import gc
import hashlib
import math
import os
import sys
import time

from . import acorn, codec, hots, ringsig, threshold
from .errors import (
    ByzantineShareError,
    ChipmunkRingError,
    CodecError,
    SignerNotInRingError,
    ThresholdError,
)
from .params import preset
from .ringsig import Ring

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


def _refuse_existing(paths) -> None:
    """FileExistsError if any of paths exists: all or none get written."""
    for path in paths:
        if os.path.lexists(path):
            raise FileExistsError(f"refusing to overwrite {path}")


def _write_new(path: str, data: bytes, mode: int = 0o600) -> None:
    """Create path with mode (before umask); FileExistsError if anything is there."""
    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, mode)
    with os.fdopen(fd, "wb") as fh:
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


def cmd_keygen(args) -> int:
    entropy = _seed_bytes(args.seed)
    sk_path, pk_path = args.out + ".sk", args.out + ".pk"
    _refuse_existing((sk_path, pk_path))
    sk, pk = hots.keygen(entropy, preset("single"))
    _write_new(sk_path, codec.encode_private_key(sk))
    _write_new(pk_path, codec.encode_public_key(pk), 0o666)
    print(f"wrote {pk_path} and {sk_path}")
    return EXIT_OK


def cmd_sign(args) -> int:
    sk = codec.decode_private_key(_read(args.sk))
    ring = _load_ring(args.ring)
    message = _read(args.message)
    if sk.pk not in ring.members:
        raise SignerNotInRingError("signer's public key is not among the ring keys")
    signer_index = ring.members.index(sk.pk)
    params = preset(args.mode)
    entropy = _seed_bytes(args.seed, "entropy")
    sig = ringsig.ring_sign(sk, signer_index, message, ring, entropy, params)
    blob = codec.encode_signature(sig)
    _write_new(args.out, blob, 0o666)
    print(f"wrote {args.out} ({len(blob)} bytes, ring of {ring.size})")
    return EXIT_OK


def cmd_verify(args) -> int:
    sig = codec.decode_signature(_read(args.sig))
    ring = _load_ring(args.ring)
    message = _read(args.message)
    params = codec.MODE_PARAMS[codec.signature_mode(sig)]
    report = ringsig.verify_signature_report(sig, message, ring, params)
    if report.ok:
        print("accept")
        return EXIT_OK
    print(f"reject: {report.reason}" + (f" ({report.detail})" if report.detail else ""))
    return EXIT_STRUCTURAL if report.reason == "structural" else EXIT_CRYPTO


def cmd_share(args) -> int:
    sk = codec.decode_private_key(_read(args.sk))
    entropy = _seed_bytes(args.seed)
    shares = threshold.deal_shares(sk, args.threshold, args.participants, entropy)
    paths = [f"{args.out_prefix}.share{share.participant_x:02d}" for share in shares]
    _refuse_existing(paths)
    for path, share in zip(paths, shares):
        _write_new(path, codec.encode_share(share))
    print(f"wrote {len(shares)} share files "
          f"({args.threshold}-of-{args.participants})")
    return EXIT_OK


def cmd_partial_sign(args) -> int:
    share = codec.decode_share(_read(args.share))
    ring = _load_ring(args.ring)
    message = _read(args.message)
    if share.pk not in ring.members:
        raise ThresholdError("the share's master public key is not among the ring keys")
    params = preset("multi")
    challenge, _ = threshold.threshold_challenge(message, ring, params)
    partial = threshold.partial_sign(share, challenge, params)
    _write_new(args.out, codec.encode_partial(partial), 0o666)
    print(f"wrote {args.out} (participant {share.participant_x})")
    return EXIT_OK


def cmd_combine(args) -> int:
    paths = [p for p in args.partials.split(",") if p]
    partials = [codec.decode_partial(_read(p)) for p in paths]
    ring = _load_ring(args.ring)
    message = _read(args.message)
    params = preset("multi")
    sig = threshold.combine(partials, message, ring, args.threshold, params)
    _write_new(args.out, codec.encode_signature(sig), 0o666)
    print(f"wrote {args.out} (combined {args.threshold} partial signatures)")
    return EXIT_OK


def _stats_ms(samples):
    import statistics

    ordered = sorted(samples)
    p95 = ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]
    return {
        "mean": statistics.fmean(samples),
        "std": statistics.pstdev(samples),
        "median": statistics.median(samples),
        "p95": p95,
    }


def _bench_key(label: bytes, params):
    entropy = hashlib.shake_256(b"chipmunkring-bench-key " + label).digest(32)
    return hots.keygen(entropy, params)


def _bench_loop(one, record: dict, iterations: int, warmup: int):
    """Time one(i) -> (sign_ms, verify_ms, signature_bytes, verified).

    warmup calls precede the measured ones; record comes back with the
    signature size and stats. A signature that fails to verify raises, so
    rejected signatures are never timed.
    """
    samples = []
    for i in range(warmup + iterations):
        s, v, size, verified = one(i)
        if not verified:
            raise ChipmunkRingError("benchmark signature failed to verify")
        samples.append((s, v))
    signs, verifies = zip(*samples[warmup:])
    return {**record, "signature_bytes": size, "sign": _stats_ms(signs),
            "verify": _stats_ms(verifies), "iterations": iterations}


def _bench_single(k: int, iterations: int, warmup: int):
    """Each op signs once with a fresh key at position i % k, made untimed."""
    params = preset("single")
    decoys = tuple(_bench_key(b"decoy %d" % j, params)[1] for j in range(k - 1))

    def one(i: int):
        sk, pk = _bench_key(b"single %d signer %d" % (k, i), params)
        signer = i % k
        ring = Ring(members=decoys[:signer] + (pk,) + decoys[signer:])
        message = b"bench single %d %d" % (k, i)
        entropy = hashlib.shake_256(b"bench-entropy%d-%d" % (k, i)).digest(32)
        t0 = time.perf_counter()
        sig = ringsig.ring_sign(sk, signer, message, ring, entropy, params)
        t1 = time.perf_counter()
        ok = ringsig.ring_verify_report(sig, message, ring, params).ok
        t2 = time.perf_counter()
        return (t1 - t0) * 1e3, (t2 - t1) * 1e3, len(codec.encode_signature(sig)), ok

    return _bench_loop(one, {"ring_size": k, "mode": "single", "threshold": 1},
                       iterations, warmup)


def _bench_threshold(t: int, n: int, iterations: int, warmup: int):
    """Each op signs once with fresh shares of a fresh master key at position
    i % n; keygen and dealing are untimed."""
    params = preset("multi")
    decoys = tuple(_bench_key(b"decoy %d" % j, params)[1] for j in range(n - 1))

    def one(i: int):
        master_sk, master_pk = _bench_key(b"threshold %d/%d master %d" % (t, n, i), params)
        dealer_entropy = hashlib.shake_256(b"bench-deal%d/%d-%d" % (t, n, i)).digest(32)
        shares = threshold.deal_shares(master_sk, t, n, dealer_entropy)
        pos = i % n
        ring = Ring(members=decoys[:pos] + (master_pk,) + decoys[pos:])
        message = b"bench threshold %d/%d %d" % (t, n, i)
        subset = [shares[(i + j) % n] for j in range(t)]
        t0 = time.perf_counter()
        challenge, _ = threshold.threshold_challenge(message, ring, params)
        partials = [threshold.partial_sign(sh, challenge, params) for sh in subset]
        sig = threshold.combine(partials, message, ring, t, params)
        t1 = time.perf_counter()
        # a fresh verifier holds none of the signer-side proof cache
        acorn.share_proof.cache_clear()
        t2 = time.perf_counter()
        # t = 1 combines into a single-signer signature, so verify as cmd_verify does
        ok = ringsig.verify_signature_report(sig, message, ring, params).ok
        t3 = time.perf_counter()
        return (t1 - t0) * 1e3, (t3 - t2) * 1e3, len(codec.encode_signature(sig)), ok

    return _bench_loop(one, {"ring_size": n, "mode": "threshold", "threshold": t},
                       iterations, warmup)


def _fit_sizes(records):
    """Least-squares line through (ring_size, signature_bytes) over the
    distinct single-mode ring sizes; None with fewer than two."""
    sizes = {r["ring_size"]: r["signature_bytes"] for r in records if r["mode"] == "single"}
    if len(sizes) < 2:
        return None
    import statistics

    xs, ys = list(sizes), list(sizes.values())
    slope, intercept = statistics.linear_regression(xs, ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, statistics.correlation(xs, ys) ** 2, ss_res


# (op, stat) pairs behind the eight timing cells of each CSV row
_CSV_TIMINGS = [(op, stat) for op in ("sign", "verify")
                for stat in ("mean", "std", "median", "p95")]


def cmd_bench(args) -> int:
    if args.iterations < 10:
        raise ValueError("--iterations must be at least 10")
    ring_sizes = [int(x) for x in args.ring_sizes.split(",") if x]
    modes = [m for m in args.modes.split(",") if m]
    for m in modes:
        if m not in ("single", "threshold"):
            raise ValueError(f"unknown mode {m!r}")
    singles = ring_sizes if "single" in modes else []
    configs = []
    if "threshold" in modes:
        for spec in [c for c in args.threshold_configs.split(",") if c]:
            t, n = (int(x) for x in spec.split("/"))
            configs.append((t, n))
    # every configuration is checked before the first key is made
    for k in singles + [n for _, n in configs]:
        ringsig.check_ring_size(k)
    for t, n in configs:
        threshold.check_threshold_config(t, n)
    warmup = max(3, args.iterations // 10)
    records = [_bench_single(k, args.iterations, warmup) for k in singles]
    records += [_bench_threshold(t, n, args.iterations, warmup) for t, n in configs]

    header = (f"{'ring':>4} {'mode':>9} {'t':>3} {'bytes':>8} "
              f"{'sign mean':>10} {'std':>7} {'median':>8} {'p95':>8} "
              f"{'vrfy mean':>10} {'std':>7} {'median':>8} {'p95':>8}")
    print(header)
    print("-" * len(header))
    for r in records:
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
        import csv

        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ring_size", "mode", "threshold", "status",
                             "signature_bytes", "iterations"]
                            + [f"{op}_{stat}_ms" for op, stat in _CSV_TIMINGS])
            for r in records:
                writer.writerow([r["ring_size"], r["mode"], r["threshold"], "ok",
                                 r["signature_bytes"], r["iterations"]]
                                + [f"{r[op][stat]:.6f}" for op, stat in _CSV_TIMINGS])
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
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    """Run one command; return its exit code.

    gc.freeze() first moves every object alive at the call (the import-time
    heap of numpy, argparse and this package) to the permanent generation,
    which later collections skip, the interpreter's exit-time one included,
    so a cold process no longer walks that heap on its way out. The side
    effect: objects an in-process caller holds at the moment of the call
    are never cyclic-collected afterwards.
    """
    gc.freeze()
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
    except (ChipmunkRingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
