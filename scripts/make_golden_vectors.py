#!/usr/bin/env python3
"""Regenerate tests/vectors/golden.json.

Run from the repository root after any intentional format change.
derive() is the one derivation of the vectors outside perfbench/: the
determinism acceptance test compares its result with this file, field
by field.
"""

import hashlib
import json
import pathlib

from chipmunkring import codec, hots, ringsig, threshold
from chipmunkring.params import preset
from chipmunkring.ringsig import Ring

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "vectors" / "golden.json"

SEED_A = bytes.fromhex("00" * 32)
SEED_B = bytes.fromhex("01" * 32)
SIGN_ENTROPY = bytes.fromhex("a5" * 32)
DEALER_ENTROPY = bytes.fromhex("5a" * 32)
MESSAGE = b"golden vector message"


def digest(data: bytes) -> str:
    return hashlib.sha3_256(data).hexdigest()


def derive() -> dict:
    """The golden vectors, as written to tests/vectors/golden.json."""
    single = preset("single")
    multi = preset("multi")

    sk_a, pk_a = hots.keygen(SEED_A, single)
    sk_b, pk_b = hots.keygen(SEED_B, single)
    ring = Ring(members=(pk_a, pk_b))

    sig = ringsig.ring_sign(sk_a, 0, MESSAGE, ring, SIGN_ENTROPY, single)
    sig_bytes = codec.encode_signature(sig)

    shares = threshold.deal_shares(sk_a, 2, 3, DEALER_ENTROPY)
    challenge, _ = threshold.threshold_challenge(MESSAGE, ring, multi)
    partials = [threshold.partial_sign(shares[i], challenge, multi) for i in (0, 2)]
    tsig = threshold.combine(partials, MESSAGE, ring, 2, multi)
    tsig_bytes = codec.encode_signature(tsig)

    return {
        "message": MESSAGE.hex(),
        "sign_entropy": SIGN_ENTROPY.hex(),
        "dealer_entropy": DEALER_ENTROPY.hex(),
        "keys": [
            {
                "seed": SEED_A.hex(),
                "pk": codec.encode_public_key(pk_a).hex(),
                "sk": codec.encode_private_key(sk_a).hex(),
            },
            {
                "seed": SEED_B.hex(),
                "pk": codec.encode_public_key(pk_b).hex(),
                "sk": codec.encode_private_key(sk_b).hex(),
            },
        ],
        "single_signature": sig_bytes.hex(),
        "single_signature_sha3": digest(sig_bytes),
        "threshold": {
            "t": 2,
            "n": 3,
            "participants": [1, 3],
            "share1": codec.encode_share(shares[0]).hex(),
            "partial1": codec.encode_partial(partials[0]).hex(),
            "signature": tsig_bytes.hex(),
            "signature_sha3": digest(tsig_bytes),
        },
    }


def main():
    vectors = derive()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(vectors, indent=1) + "\n")
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")
    print("single signature sha3:", vectors["single_signature_sha3"])
    print("threshold signature sha3:", vectors["threshold"]["signature_sha3"])


if __name__ == "__main__":
    main()
