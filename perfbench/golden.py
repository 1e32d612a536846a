"""Golden-vector gate, run before any timing.

Re-derives the single-signer signature and the threshold objects from the
inputs recorded in tests/vectors/golden.json (that file only) and compares
every encoded byte. Exits 1 and names each mismatch when anything differs:
a change that alters wire bytes must not post benchmark numbers.

Usage: PYTHONPATH=src python3 perfbench/golden.py
"""

import json
import sys

from common import GOLDEN

from chipmunkring import codec, hots, ringsig, threshold
from chipmunkring.params import preset
from chipmunkring.ringsig import Ring


def mismatches(vectors):
    single, multi = preset("single"), preset("multi")
    message = bytes.fromhex(vectors["message"])
    found = []

    def compare(what, got: bytes, expected_hex: str):
        if got.hex() != expected_hex:
            found.append(what)

    keys = []
    for n, entry in enumerate(vectors["keys"]):
        sk, pk = hots.keygen(bytes.fromhex(entry["seed"]), single)
        compare(f"keys[{n}].pk", codec.encode_public_key(pk), entry["pk"])
        compare(f"keys[{n}].sk", codec.encode_private_key(sk), entry["sk"])
        keys.append((sk, pk))
    ring = Ring(members=tuple(pk for _, pk in keys))
    signer = keys[0][0]

    sig = ringsig.ring_sign(signer, 0, message, ring,
                            bytes.fromhex(vectors["sign_entropy"]), single)
    compare("single_signature", codec.encode_signature(sig), vectors["single_signature"])

    tv = vectors["threshold"]
    shares = threshold.deal_shares(signer, tv["t"], tv["n"],
                                   bytes.fromhex(vectors["dealer_entropy"]))
    challenge, _ = threshold.threshold_challenge(message, ring, multi)
    partials = [threshold.partial_sign(shares[x - 1], challenge, multi)
                for x in tv["participants"]]
    combined = threshold.combine(partials, message, ring, tv["t"], multi)
    compare("threshold.share1", codec.encode_share(shares[0]), tv["share1"])
    compare("threshold.partial1", codec.encode_partial(partials[0]), tv["partial1"])
    compare("threshold.signature", codec.encode_signature(combined), tv["signature"])
    return found


def main():
    with open(GOLDEN) as fh:
        vectors = json.load(fh)
    found = mismatches(vectors)
    if found:
        print("golden vectors differ: " + ", ".join(found), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
