"""Sign and verify times and signature sizes by ring size, in single mode and
for threshold configurations; scripts/paper_claims.py reads the --csv file.
A bad argument, --csv's path too, exits 2 before any key is made.

Usage: PYTHONPATH=src python3 scripts/bench_table.py [--ring-sizes 2,64]
       [--modes single,threshold] [--threshold-configs 2/4,16/32] [--iterations 100] [--csv F]
"""

import argparse
import contextlib
import csv
import hashlib
import math
import statistics
import sys
import time

from chipmunkring import acorn, codec, hots, ringsig, threshold
from chipmunkring.errors import ChipmunkRingError
from chipmunkring.params import preset
from chipmunkring.ringsig import Ring

_CSV_TIMINGS = [(op, stat) for op in ("sign", "verify")
                for stat in ("mean", "std", "median", "p95")]


def _stats_ms(samples):
    p95 = sorted(samples)[max(0, math.ceil(0.95 * len(samples)) - 1)]
    return {"mean": statistics.fmean(samples), "std": statistics.pstdev(samples),
            "median": statistics.median(samples), "p95": p95}


def _bench_key(label: bytes, params):
    entropy = hashlib.shake_256(b"chipmunkring-bench-key " + label).digest(32)
    return hots.keygen(entropy, params)


def _bench_loop(one, record: dict, iterations: int, warmup: int):
    """Time one(i) -> (sign_ms, verify_ms, signature_bytes, verified) after
    warmup calls; a signature that fails to verify raises, untimed."""
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
        # t = 1 combines into a single-signer signature, so verify as the CLI does
        ok = ringsig.verify_signature_report(sig, message, ring, params).ok
        t3 = time.perf_counter()
        return (t1 - t0) * 1e3, (t3 - t2) * 1e3, len(codec.encode_signature(sig)), ok

    return _bench_loop(one, {"ring_size": n, "mode": "threshold", "threshold": t},
                       iterations, warmup)


def _numbers(item: str, count: int, what: str):
    fields = item.split("/")
    if len(fields) != count or not all(f.strip().isdecimal() for f in fields):
        raise ValueError(f"bad {what} {item!r}")
    return [int(f) for f in fields]


def bench(args) -> None:
    if args.iterations < 10:
        raise ValueError("--iterations must be at least 10")
    ring_sizes = [_numbers(x, 1, "ring size")[0] for x in args.ring_sizes.split(",") if x]
    modes = [m for m in args.modes.split(",") if m]
    for m in modes:
        if m not in ("single", "threshold"):
            raise ValueError(f"unknown mode {m!r}")
    singles = ring_sizes if "single" in modes else []
    pairs = args.threshold_configs.split(",") if "threshold" in modes else []
    configs = [tuple(_numbers(c, 2, "t/n pair")) for c in pairs if c]
    # every configuration is checked before the first key is made
    for k in singles + [n for _, n in configs]:
        ringsig.check_ring_size(k)
    for t, n in configs:
        threshold.check_threshold_config(t, n)
    warmup = max(3, args.iterations // 10)
    # the CSV file is opened, and so replaced, before the first key is made too
    with open(args.csv, "w", newline="") if args.csv else contextlib.nullcontext() as out:
        records = [_bench_single(k, args.iterations, warmup) for k in singles]
        records += [_bench_threshold(t, n, args.iterations, warmup) for t, n in configs]
        _print_table(records, args.iterations, warmup)
        if out:
            _write_csv(out, records)
            print(f"wrote {args.csv}")


def _print_table(records, iterations: int, warmup: int) -> None:
    header = (f"{'ring':>4} {'mode':>9} {'t':>3} {'bytes':>8} "
              f"{'sign mean':>10} {'std':>7} {'median':>8} {'p95':>8} "
              f"{'vrfy mean':>10} {'std':>7} {'median':>8} {'p95':>8}")
    print(header, "-" * len(header), sep="\n")
    for r in records:
        s, v = r["sign"], r["verify"]
        print(f"{r['ring_size']:>4} {r['mode']:>9} {r['threshold']:>3} "
              f"{r['signature_bytes']:>8} "
              f"{s['mean']:>9.3f}ms {s['std']:>6.3f} {s['median']:>7.3f} {s['p95']:>7.3f} "
              f"{v['mean']:>9.3f}ms {v['std']:>6.3f} {v['median']:>7.3f} {v['p95']:>7.3f}")
    # a least-squares line over the distinct single-mode ring sizes, if two
    sizes = {r["ring_size"]: r["signature_bytes"] for r in records if r["mode"] == "single"}
    if len(sizes) > 1:
        xs, ys = list(sizes), list(sizes.values())
        slope, intercept = statistics.linear_regression(xs, ys)
        ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
        r2 = statistics.correlation(xs, ys) ** 2
        print(f"size fit: bytes = {intercept:.1f} + {slope:.1f} * ring_size "
              f"(R^2 = {r2:.6f}, residual sum of squares = {ss_res:.1f})")
    print(f"iterations: {iterations} measured after {warmup} warm-up; "
          f"verification parallelism: none (single-threaded)")


def _write_csv(out, records) -> None:
    writer = csv.writer(out)
    writer.writerow(["ring_size", "mode", "threshold", "status", "signature_bytes",
                     "iterations"] + [f"{op}_{stat}_ms" for op, stat in _CSV_TIMINGS])
    for r in records:
        writer.writerow([r["ring_size"], r["mode"], r["threshold"], "ok",
                         r["signature_bytes"], r["iterations"]]
                        + [f"{r[op][stat]:.6f}" for op, stat in _CSV_TIMINGS])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the performance table.")
    parser.add_argument("--ring-sizes", default="2,4,8,16,32,64")
    parser.add_argument("--modes", default="single,threshold")
    parser.add_argument("--threshold-configs", default="2/4,3/8,5/8,4/16,16/32",
                        help="comma-separated t/n pairs")
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--csv", help="also write records to this CSV path")
    try:
        bench(parser.parse_args(argv))
    except (ChipmunkRingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
