"""Single-signer ring signatures, and the one verifier of both modes.

Signing builds one commitment per ring member from public data plus
caller-supplied entropy, hashes everything into a 32-byte challenge, and
signs the challenge with the signer's core key. Verification runs one
sequence of stages for both modes (_verify_report): structure, challenge,
the t = 1 Acorn scan, linkability tags, and the core signature, which must
verify under at least one ring key; threshold mode then rebinds its block.
Which key verified is never exposed by the API.

The single-mode commitment check stops at the first valid commitment. This
reveals nothing about the signer: every commitment is a function of public
data and the signing seed only (see build_member_entries), so the records
are byte-identical whoever signs, and an honest signature always stops at
member 0. Where the scan stops depends only on the signature bytes and the
ring, both public. The core check tests the norm bound on sigma once and
then the key-dependent identity: k root tests, one per member, plus a
full check on the members that pass them (hots.identity_holds). That work
is the same at every signer position.

Challenge serialization (hashed with SHA3-256):

    u32 message length | message | ring_hash
    | per member: randomness(32) | proof(p)

Note the construction's verifier-side caveat: anyone can re-run the core
verification loop against each member key and learn which one validates,
so anonymity holds only against verifiers that follow the API contract.
"""

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from . import hots
from .acorn import (
    constant_time_eq,
    create_proof,
    derive_randomness,
    linkability_tag,
    share_proof,
    verify_proof,
)
from .errors import RingSizeError, SignerNotInRingError
from .params import DIGEST_SIZE, MAX_PARTICIPANTS, MAX_RING, MIN_RING, RingParams


def check_ring_size(size: int) -> None:
    """Raise RingSizeError unless MIN_RING <= size <= MAX_RING."""
    if not MIN_RING <= size <= MAX_RING:
        raise RingSizeError(f"ring size {size} outside [{MIN_RING}, {MAX_RING}]")


@dataclass(frozen=True)
class Ring:
    """Ordered sequence of member public keys; order is significant.

    Any sequence is stored as a tuple, so a ring cannot change size after
    its check and stays hashable.
    """

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        check_ring_size(len(self.members))

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class MemberEntry:
    """Per-member record carried in a signature."""

    randomness: bytes
    acorn_proof: bytes
    linkability: bytes


@dataclass(frozen=True)
class RingSignature:
    required_signers: int
    challenge: bytes
    per_member: tuple
    chipmunk_sig: hots.ChipmunkSignature
    threshold_zk_proofs: bytes


@dataclass(frozen=True)
class VerifyReport:
    """Accept/reject with a diagnostic class; no signer index.

    The verdict is the reason: a report accepts exactly when it is "ok".
    """

    reason: str  # ok | structural | challenge | acorn | linkability | core
    #            | threshold_acorn
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.reason == "ok"


def ring_hash(ring: Ring) -> bytes:
    """SHA3-256 over the in-order concatenation of encoded member keys."""
    h = hashlib.sha3_256()
    for pk in ring.members:
        h.update(pk.encoded)
    return h.digest()


def challenge_digest(message: bytes, rhash: bytes, pairs) -> bytes:
    """SHA3-256 of the serialized challenge input; pairs is (randomness, proof)."""
    h = hashlib.sha3_256()
    h.update(struct.pack("<I", len(message)))
    h.update(message)
    h.update(rhash)
    for randomness, proof in pairs:
        h.update(randomness)
        h.update(proof)
    return h.digest()


def build_member_entries(message: bytes, ring: Ring, rhash: bytes, seed: bytes,
                         params: RingParams):
    """Commitments, tags, and challenge for all members from one seed.

    rhash is ring_hash(ring). Everything here is a function of public data
    plus the seed, which is why per-member records are byte-identical no
    matter who signs.
    """
    randomness = [derive_randomness(seed, i) for i in range(ring.size)]
    proofs = [
        create_proof(pk, message, randomness[i], i, params)
        for i, pk in enumerate(ring.members)
    ]
    challenge = challenge_digest(message, rhash, zip(randomness, proofs))
    tag = linkability_tag(rhash, message, challenge)
    entries = tuple(
        MemberEntry(randomness=randomness[i], acorn_proof=proofs[i], linkability=tag)
        for i in range(ring.size)
    )
    return entries, challenge


def ring_sign(sk: hots.PrivateKey, signer_index: int, message: bytes, ring: Ring,
              entropy: bytes, params: RingParams) -> RingSignature:
    """Produce a single-signer ring signature; deterministic in its inputs."""
    if len(message) == 0:
        raise ValueError("message must be nonempty")
    if len(entropy) != 32:
        raise ValueError("entropy must be 32 bytes")
    if not 0 <= signer_index < ring.size:
        raise SignerNotInRingError(f"signer index {signer_index} out of range")
    if ring.members[signer_index] != sk.pk:
        raise SignerNotInRingError(
            f"public key at ring position {signer_index} is not the signer's"
        )
    entries, challenge = build_member_entries(message, ring, ring_hash(ring), entropy,
                                              params)
    core = hots.sign(sk, challenge)
    return RingSignature(
        required_signers=1,
        challenge=challenge,
        per_member=entries,
        chipmunk_sig=core,
        threshold_zk_proofs=b"",
    )


def signature_shape(sig: RingSignature, proof_size: int) -> str:
    """The first length fault of sig's fields, '' when clean: the one statement
    of the length rules, shared by check_structure and codec.encode_signature."""
    if len(sig.challenge) != DIGEST_SIZE:
        return "challenge length mismatch"
    for i, entry in enumerate(sig.per_member):
        if len(entry.randomness) != DIGEST_SIZE:
            return f"randomness length mismatch at member {i}"
        if len(entry.acorn_proof) != proof_size:
            return f"proof length mismatch at member {i}"
        if len(entry.linkability) != DIGEST_SIZE:
            return f"linkability tag length mismatch at member {i}"
    t, block = sig.required_signers, sig.threshold_zk_proofs
    expected = 0 if t == 1 else t * proof_size
    if len(block) != expected:
        return f"threshold block is {len(block)} bytes, expected {expected}"
    return ""


def check_structure(sig: RingSignature, ring: Ring, params: RingParams) -> str:
    """The record count against the ring, then signature_shape; '' when clean."""
    if len(sig.per_member) != ring.size:
        return f"ring_size {len(sig.per_member)} != ring of {ring.size}"
    return signature_shape(sig, params.proof_size)


def check_linkability(sig: RingSignature, message: bytes, rhash: bytes) -> bool:
    expected = linkability_tag(rhash, message, sig.challenge)
    ok = True
    for entry in sig.per_member:
        ok &= entry.linkability == expected
    return ok


def core_matches(sig: RingSignature, ring: Ring):
    """Indices of ring members whose key verifies the core signature.

    The norm bound does not depend on the key, so it is checked once; the
    identity then runs as k root tests at psi, one per member, plus a full
    transform-domain check on the members that pass, the same work
    whichever member signed. The check is the same in both parameter
    modes. Internal: callers expose only accept/reject, never the index.
    """
    if not hots.norm_within_bound(sig.chipmunk_sig):
        return []
    held = hots.identity_holds(ring.members, sig.challenge, sig.chipmunk_sig)
    return np.flatnonzero(held).tolist()


def _verify_report(sig: RingSignature, message: bytes, ring: Ring,
                   params: RingParams) -> VerifyReport:
    """The verification stages of both modes, in order, after the mode guard.

    check_structure refuses every length fault, and at t = 1 an empty
    message, which no chain accepts. Single mode (t = 1) then checks the
    per-member Acorn proofs before linkability. Threshold mode (t > 1)
    never checks them: the per-member records are bound only through the
    challenge, and the t participant proofs of the threshold block stand
    in for them. So records with no Acorn chain behind them, under a
    correct challenge, core signature and block, are accepted with t > 1,
    while the same records with t = 1 are rejected with reason "acorn".
    Threshold mode rebinds the block after the core check.

    The block is rebound only to the first core-matching ring key, the key
    combine binds it to, so one verification costs at most MAX_PARTICIPANTS
    proof chains whatever the ring holds. A ring may list the master key
    several times, or hold distinct keys built from one secret pair
    (hots.keypair_from_secrets with another rho_seed), which all match the
    core signature; a block bound to any matching key but the first is
    rejected with "threshold_acorn". combine never produces one.
    """
    t = sig.required_signers
    problem = check_structure(sig, ring, params)
    if not problem and t == 1 and not message:
        problem = "empty message"
    if problem:
        return VerifyReport("structural", problem)
    rhash = ring_hash(ring)
    pairs = ((e.randomness, e.acorn_proof) for e in sig.per_member)
    if challenge_digest(message, rhash, pairs) != sig.challenge:
        return VerifyReport("challenge", "challenge mismatch")
    # any() stops at the first valid proof; see the module docstring
    if t == 1 and not any(
        verify_proof(entry.acorn_proof, pk, message, entry.randomness, i, params)
        for i, (pk, entry) in enumerate(zip(ring.members, sig.per_member))
    ):
        return VerifyReport("acorn", "no valid per-member proof")
    if not check_linkability(sig, message, rhash):
        return VerifyReport("linkability", "linkability tag mismatch")
    masters = core_matches(sig, ring)
    if not masters:
        return VerifyReport("core", "core signature matches no ring key")
    if t > 1:
        pk, p, block = ring.members[masters[0]], params.proof_size, sig.threshold_zk_proofs
        # the proofs, in order, must carry ascending x: one pass over the x values
        xs = iter(range(1, MAX_PARTICIPANTS + 1))
        if not all(any(constant_time_eq(block[i * p:(i + 1) * p],
                                        share_proof(pk, sig.challenge, x, params))
                       for x in xs) for i in range(t)):
            return VerifyReport("threshold_acorn",
                                "embedded participant proofs do not verify")
    return VerifyReport("ok")


def ring_verify_report(sig: RingSignature, message: bytes, ring: Ring,
                       params: RingParams) -> VerifyReport:
    """Verify a single-signer ring signature with a diagnostic reason."""
    if sig.required_signers != 1:
        return VerifyReport("structural", "required_signers != 1")
    return _verify_report(sig, message, ring, params)


def threshold_verify_report(sig: RingSignature, message: bytes, ring: Ring,
                            params: RingParams) -> VerifyReport:
    """Verify a threshold (t > 1) ring signature with a diagnostic reason."""
    if sig.required_signers <= 1:
        return VerifyReport("structural", "required_signers must exceed 1")
    return _verify_report(sig, message, ring, params)


def verify_signature_report(sig: RingSignature, message: bytes, ring: Ring,
                            params: RingParams) -> VerifyReport:
    """Dispatch on required_signers: 1 -> single-signer, else threshold."""
    if sig.required_signers == 1:
        return ring_verify_report(sig, message, ring, params)
    return threshold_verify_report(sig, message, ring, params)
