"""Deterministic, versioned byte encodings for every public object.

All multi-byte integers are little-endian; variable-length fields are
length-prefixed. Every object starts with an 8-byte wire header:

    magic "CHRS" | u16 version | u8 kind | u8 mode

kinds: pk=1, sk=2, ringsig=3, share=4, partial=5; modes: single=1, multi=2,
each naming one RingParams member (MODE_PARAMS), so the mode byte fixes
both the proof size and the chain length.
Polynomials pack 512 coefficients at a fixed 22 bits each (q < 2^22),
little-endian bit order, 1408 bytes total.

Object layouts (after the header):

    pk       rho_seed(32) | v0(1408) | v1(1408)
    sk       seed(32) | tr(48) | s0(1408) | s1(1408) | encoded pk
    ringsig  u16 ring size | u16 required_signers | challenge(32)
             | per member: randomness(32) | proof(p) | linkability(32)
             | sigma(1408) | u32 threshold block length | block
    share    u16 participant_x | u16 threshold_t | u16 n_participants
             | s0_share(1408) | s1_share(1408) | encoded master pk
    partial  u16 participant_x | u16 proof length | sigma_share(1408) | proof

tr is SHA3-384 of the encoded pk, and the ring size is the number of
member records. Unknown version or kind is rejected, never skipped.
Each decoder accepts exactly the mode bytes its encoder writes
(_KIND_MODES), so a decoded object re-encodes to the bytes it came from;
the one alias, a standalone public key's mode byte 2, is a rewrite to 1
in decode_public_key. Every decoder copies a bytes-like input once into
bytes (_Reader), so no decoded object shares the caller's buffer.
decode(encode(x)) == x for every object kind, and every encoder raises
FieldError where its decoder would refuse the bytes: a count or a field
length out of range, a signature's through ringsig.signature_shape.

A public key is its canonical bytes (hots.PublicKey.encoded): keygen packs
them with public_key_bytes, decode_public_key keeps the bytes it read
(mode 1 after the alias rewrite, the only mode encode_public_key
writes), and encode_public_key returns them. The PublicKey constructor
refuses through check_public_key what _decode_public_key refuses, with
the same error, so its rho_seed, v0 and v1 are plain reads of valid bytes
(PUBLIC_KEY_SEED, public_key_rows). _decode_public_key holds the one
cache of per-key verification work; keys embedded in private keys and
shares go through it too, past the alias rewrite, so their mode 2 is
refused as every kind's is. decode_private_key refuses a key file whose
public key is not the one its rho_seed, s0 and s1 produce.
"""

import struct
from functools import lru_cache

import numpy as np

from . import hots, ringsig, threshold
from .errors import (
    BadKindError,
    BadMagicError,
    BadVersionError,
    FieldError,
    TruncatedDataError,
)
from .params import MAX_PARTICIPANTS, MAX_RING, MIN_RING, N, Q, RingParams
from .polyring import Polynomial

MAGIC = b"CHRS"
VERSION = 1

KIND_PUBLIC_KEY = 1
KIND_PRIVATE_KEY = 2
KIND_RING_SIGNATURE = 3
KIND_KEY_SHARE = 4
KIND_PARTIAL_SIGNATURE = 5

MODE_SINGLE = 1
MODE_MULTI = 2
MODE_PARAMS = {MODE_SINGLE: RingParams.SINGLE, MODE_MULTI: RingParams.MULTI}
# the mode bytes each kind's decoder accepts: exactly those its encoder
# writes (a standalone public key's mode 2 is rewritten to 1 before this)
_KIND_MODES = {KIND_PUBLIC_KEY: (1,), KIND_PRIVATE_KEY: (1,), KIND_RING_SIGNATURE: (1, 2),
               KIND_KEY_SHARE: (2,), KIND_PARTIAL_SIGNATURE: (2,)}

POLYNOMIAL_BYTES = N * 22 // 8  # 1408
HEADER_BYTES = 8
PUBLIC_KEY_SEED = slice(HEADER_BYTES, HEADER_BYTES + 32)  # rho_seed in a key's bytes
_MODE_1, _MODE_2 = bytes([MODE_SINGLE]), bytes([MODE_MULTI])  # as a header's last byte

_MASK22 = (1 << 22) - 1


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data):
        self.data = data if type(data) is bytes else bytes(memoryview(data))
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedDataError(
                f"need {n} bytes at offset {self.pos}, have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def expect_end(self):
        if self.pos != len(self.data):
            raise FieldError(f"{len(self.data) - self.pos} unexpected trailing bytes")


def pack_header(kind: int, mode: int) -> bytes:
    return MAGIC + struct.pack("<HBB", VERSION, kind, mode)


def _read_header(r: _Reader, expected_kind: int) -> int:
    """Validate the header and return the mode byte."""
    magic = r.take(4)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    (version,) = struct.unpack("<H", r.take(2))
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    kind, mode = struct.unpack("<BB", r.take(2))
    if kind not in _KIND_MODES:
        raise BadKindError(f"unknown object kind {kind}")
    if kind != expected_kind:
        raise BadKindError(f"expected kind {expected_kind}, got {kind}")
    if mode not in MODE_PARAMS:
        raise FieldError(f"unknown params mode {mode}")
    if mode not in _KIND_MODES[kind]:
        raise FieldError(f"kind {kind} is never written in mode {mode}")
    return mode


def _pack(c) -> bytes:
    """Pack coefficients in [0, q) at 22 bits each, 1408 bytes per 512."""
    # 4 coefficients fill exactly 11 bytes (lcm of 22 and 8 is 88 bits); each
    # group is built as two little-endian u64 words (88 of 128 bits used)
    c = np.asarray(c).astype(np.uint64).reshape(-1, 4)
    words = np.empty((c.shape[0], 2), dtype="<u8")
    words[:, 0] = c[:, 0] | (c[:, 1] << 22) | (c[:, 2] << 44)
    words[:, 1] = (c[:, 2] >> 20) | (c[:, 3] << 2)
    return words.view(np.uint8).reshape(-1, 16)[:, :11].tobytes()


def encode_polynomial(p) -> bytes:
    """Pack 512 coefficients at 22 bits each: 1408 bytes, bijective."""
    return _pack(p.coeffs)


def _unpack(data: bytes, offset: int = 0, count: int = 1) -> np.ndarray:
    """(count, N) int64 array of the 22-bit values packed from data[offset:]."""
    # group g's 88 bits, read as two unaligned u64 words at bytes 11g and 11g + 3
    groups = count * N // 4
    lo = np.ndarray((groups,), dtype="<u8", buffer=data, offset=offset, strides=(11,))
    hi = np.ndarray((groups,), dtype="<u8", buffer=data, offset=offset + 3, strides=(11,))
    c = np.empty((groups, 4), dtype=np.uint64)
    c[:, 0] = lo
    c[:, 1] = lo >> 22
    c[:, 2] = hi >> 20  # bits 44..65
    c[:, 3] = hi >> 42  # bits 66..87
    c &= _MASK22
    return c.view(np.int64).reshape(count, N)


def _coefficients(data: bytes) -> np.ndarray:
    """decode_polynomial's unpacking and checks, without building a Polynomial."""
    if len(data) != POLYNOMIAL_BYTES:
        raise TruncatedDataError(f"polynomial needs {POLYNOMIAL_BYTES} bytes, got {len(data)}")
    c = _unpack(data)[0]
    if c.max() >= Q:
        raise FieldError(f"coefficient {int(c[np.argmax(c >= Q)])} out of range [0, {Q})")
    return c


def decode_polynomial(data: bytes):
    """Unpack 1408 bytes into 512 coefficients; FieldError names the first >= q."""
    return Polynomial(coeffs=_coefficients(data))


def public_key_bytes(rho_seed: bytes, v0, v1) -> bytes:
    """Canonical bytes (mode 1) of a key's fields; v0, v1: arrays in [0, q)."""
    if len(rho_seed) != 32:
        raise FieldError(f"rho_seed must be 32 bytes, got {len(rho_seed)}")
    return pack_header(KIND_PUBLIC_KEY, MODE_SINGLE) + rho_seed + _pack((v0, v1))


def check_public_key(data: bytes) -> None:
    """_decode_public_key's errors, in its order."""
    r = _Reader(data)
    _read_header(r, KIND_PUBLIC_KEY)
    r.take(32)
    _coefficients(r.take(POLYNOMIAL_BYTES))
    _coefficients(r.take(POLYNOMIAL_BYTES))
    r.expect_end()


def public_key_rows(encoded: bytes) -> np.ndarray:
    """v0 and v1 of a PublicKey's checked bytes, as one (2, N) int64 array."""
    return _unpack(encoded, PUBLIC_KEY_SEED.stop, 2)


def encode_public_key(pk) -> bytes:
    """A key's canonical bytes, which it carries from construction."""
    return pk.encoded


def decode_public_key(data):
    """Decode a public key from any bytes-like input; see _decode_public_key.

    The input is turned into bytes before the cache lookup, so a bytearray
    or memoryview finds the entry of its bytes, and a later change to the
    caller's buffer cannot reach the cached key. Mode byte 2 is then
    rewritten to 1, the whole alias, so both spellings are one entry.
    """
    data = data if type(data) is bytes else bytes(memoryview(data))
    data = data[:7] + _MODE_1 + data[HEADER_BYTES:] if data[7:8] == _MODE_2 else data
    return _decode_public_key(data)


@lru_cache(maxsize=256)
def _decode_public_key(data: bytes):
    """Decode a public key, keeping the bytes read as its canonical encoding.

    Memoised on the input bytes for the 256 most recently used keys (four
    rings of 64): the same bytes decode to the same immutable PublicKey,
    which carries its root values once computed (PublicKey.root_values).
    Only successful decodes are stored; hostile bytes raise the same error
    on every call.
    """
    return hots.PublicKey(data)


def encode_private_key(sk) -> bytes:
    if len(sk.seed) != 32:
        raise FieldError(f"seed must be 32 bytes, got {len(sk.seed)}")
    return (
        pack_header(KIND_PRIVATE_KEY, MODE_SINGLE)
        + sk.seed
        + sk.tr
        + encode_polynomial(sk.s0)
        + encode_polynomial(sk.s1)
        + encode_public_key(sk.pk)
    )


def decode_private_key(data: bytes):
    r = _Reader(data)
    _read_header(r, KIND_PRIVATE_KEY)
    seed = r.take(32)
    tr = r.take(48)
    s0 = decode_polynomial(r.take(POLYNOMIAL_BYTES))
    s1 = decode_polynomial(r.take(POLYNOMIAL_BYTES))
    pk = _decode_public_key(r.take(len(r.data) - r.pos))
    sk = hots.PrivateKey(seed=seed, s0=s0, s1=s1, pk=pk)
    if tr != sk.tr:
        raise FieldError("tr digest does not match the embedded public key")
    if hots.keypair_from_secrets(pk.rho_seed, s0, s1)[1] != pk:
        raise FieldError("embedded public key is not the one the secrets produce")
    return sk


def signature_mode(sig) -> int:
    """Infer the params mode from the per-member proof length."""
    plen = len(sig.per_member[0].acorn_proof)
    for mode, params in MODE_PARAMS.items():
        if params.proof_size == plen:
            return mode
    raise FieldError(f"proof length {plen} matches no params mode")


def _check_signature_counts(ring_size: int, required: int) -> None:
    if not MIN_RING <= ring_size <= MAX_RING:
        raise FieldError(f"ring_size {ring_size} out of range [{MIN_RING}, {MAX_RING}]")
    if not 1 <= required <= MAX_PARTICIPANTS:
        raise FieldError(
            f"required_signers {required} out of range [1, {MAX_PARTICIPANTS}]")


def encode_signature(sig) -> bytes:
    t = sig.required_signers
    _check_signature_counts(len(sig.per_member), t)
    mode = signature_mode(sig)
    problem = ringsig.signature_shape(sig, MODE_PARAMS[mode].proof_size)
    if problem:
        raise FieldError(problem)
    out = bytearray()
    out += pack_header(KIND_RING_SIGNATURE, mode)
    out += struct.pack("<HH", len(sig.per_member), t)
    out += sig.challenge
    for entry in sig.per_member:
        out += entry.randomness
        out += entry.acorn_proof
        out += entry.linkability
    out += encode_polynomial(sig.chipmunk_sig.sigma)
    out += struct.pack("<I", len(sig.threshold_zk_proofs))
    out += sig.threshold_zk_proofs
    return bytes(out)


def decode_signature(data: bytes):
    r = _Reader(data)
    mode = _read_header(r, KIND_RING_SIGNATURE)
    p = MODE_PARAMS[mode].proof_size
    ring_size, required = struct.unpack("<HH", r.take(4))
    _check_signature_counts(ring_size, required)
    challenge = r.take(32)
    # arguments are evaluated left to right: randomness, proof, linkability
    entries = tuple(ringsig.MemberEntry(r.take(32), r.take(p), r.take(32))
                    for _ in range(ring_size))
    sigma = decode_polynomial(r.take(POLYNOMIAL_BYTES))
    (block_len,) = struct.unpack("<I", r.take(4))
    expected = 0 if required == 1 else required * p
    if block_len != expected:
        raise FieldError(f"threshold block length {block_len}, expected {expected}")
    block = r.take(block_len)
    r.expect_end()
    return ringsig.RingSignature(
        required_signers=required,
        challenge=challenge,
        per_member=entries,
        chipmunk_sig=hots.ChipmunkSignature(sigma=sigma),
        threshold_zk_proofs=block,
    )


def _check_share_config(x: int, t: int, n_participants: int) -> None:
    if not 1 <= t <= n_participants <= MAX_PARTICIPANTS:
        raise FieldError(f"invalid threshold configuration t={t}, n={n_participants}")
    if not 1 <= x <= n_participants:
        raise FieldError(f"participant_x {x} out of range [1, {n_participants}]")


def encode_share(share) -> bytes:
    _check_share_config(share.participant_x, share.threshold_t, share.n_participants)
    return (
        pack_header(KIND_KEY_SHARE, MODE_MULTI)
        + struct.pack("<HHH", share.participant_x, share.threshold_t, share.n_participants)
        + encode_polynomial(share.s0_share)
        + encode_polynomial(share.s1_share)
        + encode_public_key(share.pk)
    )


def decode_share(data: bytes):
    r = _Reader(data)
    _read_header(r, KIND_KEY_SHARE)
    x, t, n_participants = struct.unpack("<HHH", r.take(6))
    _check_share_config(x, t, n_participants)
    s0 = decode_polynomial(r.take(POLYNOMIAL_BYTES))
    s1 = decode_polynomial(r.take(POLYNOMIAL_BYTES))
    pk = _decode_public_key(r.take(len(r.data) - r.pos))
    return threshold.KeyShare(
        participant_x=x,
        s0_share=s0,
        s1_share=s1,
        pk=pk,
        n_participants=n_participants,
        threshold_t=t,
    )


def _check_partial(x: int, proof_len: int) -> None:
    if not 1 <= x <= MAX_PARTICIPANTS:
        raise FieldError(f"participant_x {x} out of range [1, {MAX_PARTICIPANTS}]")
    if proof_len != MODE_PARAMS[MODE_MULTI].proof_size:
        raise FieldError(f"proof length {proof_len} inconsistent with mode {MODE_MULTI}")


def encode_partial(partial) -> bytes:
    _check_partial(partial.participant_x, len(partial.acorn_proof))
    return (
        pack_header(KIND_PARTIAL_SIGNATURE, MODE_MULTI)
        + struct.pack("<HH", partial.participant_x, len(partial.acorn_proof))
        + encode_polynomial(partial.sigma_share)
        + partial.acorn_proof
    )


def decode_partial(data: bytes):
    r = _Reader(data)
    _read_header(r, KIND_PARTIAL_SIGNATURE)
    x, proof_len = struct.unpack("<HH", r.take(4))
    _check_partial(x, proof_len)
    sigma = decode_polynomial(r.take(POLYNOMIAL_BYTES))
    proof = r.take(proof_len)
    r.expect_end()
    return threshold.PartialSignature(participant_x=x, sigma_share=sigma, acorn_proof=proof)
