"""The abstract's numbers beside this reproduction's.

Usage: python3 scripts/paper_claims.py CSV

CSV is the file `scripts/bench_table.py --csv CSV` writes; run it with
`--ring-sizes 2,64 --modes single` for the two ring sizes the abstract
quotes. This script has no timing loop of its own: the timing cells are the
sign and verify medians of the CSV's single-mode rows at the smallest and
largest ring size. The size cells come from signatures made and encoded
here with the library on PYTHONPATH (set PYTHONPATH=src in a checkout) at
k = 2 and 64: single mode, and a 2-of-2 threshold signature in multi mode.
The table goes to stdout as Markdown; README "Reproduction against the
paper" gives the reason for each gap.
"""

import csv
import sys

from chipmunkring import codec, hots, ringsig, threshold
from chipmunkring.params import preset

RING_SIZES = (2, 64)
MESSAGE = b"paper claims"


def signature_bytes(k: int, mode: str) -> bytes:
    """An encoded k-member signature: single-signer in single mode, 2-of-2
    threshold in multi mode."""
    params = preset(mode)
    pairs = [hots.keygen(bytes([i]) * 32, params) for i in range(k)]
    ring = ringsig.Ring(members=tuple(pk for _, pk in pairs))
    if mode == "single":
        sig = ringsig.ring_sign(pairs[0][0], 0, MESSAGE, ring, b"\x01" * 32, params)
    else:
        shares = threshold.deal_shares(pairs[0][0], 2, 2, b"\x02" * 32)
        challenge, _ = threshold.threshold_challenge(MESSAGE, ring, params)
        partials = [threshold.partial_sign(share, challenge, params) for share in shares]
        sig = threshold.combine(partials, MESSAGE, ring, 2, params)
    return codec.encode_signature(sig)


def sizes() -> dict:
    """{(mode, k): (signature bytes, bytes of one member record's proof)}."""
    out = {}
    for mode in ("single", "multi"):
        for k in RING_SIZES:
            data = signature_bytes(k, mode)
            proof = codec.decode_signature(data).per_member[0].acorn_proof
            out[mode, k] = (len(data), len(proof))
    return out


def timings(path) -> dict:
    """{ring size: (sign median ms, verify median ms)} of the single-mode rows."""
    with open(path, newline="") as fh:
        return {int(row["ring_size"]): (float(row["sign_median_ms"]),
                                        float(row["verify_median_ms"]))
                for row in csv.DictReader(fh) if row["mode"] == "single"}


def table(size: dict, timing: dict) -> list:
    """(claim, paper, this repository) rows, in the abstract's order."""
    lo, hi = min(timing), max(timing)
    small, large = RING_SIZES
    single, multi = size["single", small], size["multi", small]
    return [
        ("signature size, 2-64 members", "20.5-279.7 KB",
         f"single mode {single[0]:,}-{size['single', large][0]:,} B; multi mode, t = 2, "
         f"{multi[0]:,}-{size['multi', large][0]:,} B (k = {small}-{large})"),
        ("signing", "1.1-15.1 ms",
         f"{timing[lo][0]:.2f}-{timing[hi][0]:.2f} ms (k = {lo}-{hi}, warm median)"),
        ("verification", "0.4-4.5 ms",
         f"{timing[lo][1]:.2f}-{timing[hi][1]:.2f} ms (k = {lo}-{hi}, warm median)"),
        ("proof per participant", "96 B",
         f"{multi[1]} B in multi mode, {single[1]} B in single mode"),
        ("speed-up at 32 members", "17.7x", "not reproducible"),
        ("post-quantum security", "112 bits (NIST Level 1)",
         "none against key recovery"),
    ]


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 scripts/paper_claims.py CSV", file=sys.stderr)
        return 2
    timing = timings(argv[1])  # read first: a CSV that cannot serve fails before signing
    if not timing:
        print(f"error: {argv[1]} has no single-mode rows; write it with "
              "scripts/bench_table.py --modes single", file=sys.stderr)
        return 2
    rows = table(sizes(), timing)
    print("| claim in the abstract | paper | this repository |")
    print("|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
