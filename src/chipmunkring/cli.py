"""Command-line tool: key management, ring signing and the threshold
workflow, over files.

Exit codes: 0 accept, 1 cryptographic reject, 2 structural/parse/usage
failure, 3 I/O failure, 4 byzantine share detected. No command
overwrites a file it writes (exit 3); the secret files of keygen and
share (.sk, .shareNN) are created with mode 0600. A command refuses by
raising; main is the one place that turns an exception into its stderr
line and exit code.
"""

import argparse
import gc
import os
import sys

from . import codec, hots, ringsig, threshold
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipmunkring",
        description="Post-quantum ring signatures: keys, signing, threshold "
                    "workflow.",
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
