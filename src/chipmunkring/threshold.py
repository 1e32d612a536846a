"""(t, n)-threshold ring signatures over coefficient-wise secret sharing.

The dealer splits each of the master key's 1024 secret coefficients with an
independent degree-(t-1) polynomial over Z_q (the dealer is the only
trusted step). Each participant holds the evaluations at its own nonzero
point x. Signing never reassembles the secrets: participants produce
signature shares on a common challenge and the combiner takes the
Lagrange-weighted sum at zero, which by linearity equals the master key's
signature. Lagrange coefficients are computed once per signer set and
reused for all 512 polynomial coefficients.

Coordination is local: the challenge every participant signs is a
deterministic function of (message, ring), so no state travels between
participants beyond message, ring, and their own partial signature. The
combined signature carries the t participant commitment proofs sorted by
ascending x in its threshold block; verifiers rebind them by scanning x
candidates in ascending order against each core-matching ring key.
"""

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import codec, hots
from .acorn import constant_time_eq, create_proof, derive_randomness
from .errors import ByzantineShareError, ThresholdError
from .params import (
    DOMAIN_COORDINATION,
    DOMAIN_SIGNATURE_ZK,
    N,
    Q,
    RingParams,
    ZK_DOMAIN_SECRET_SHARING,
)
from .polyring import Polynomial, add, hash_to_poly, mul, scalar_mul, zero
from .ringsig import (
    Ring,
    RingSignature,
    VerifyReport,
    build_member_entries,
    check_linkability,
    check_structure,
    core_matches,
    recompute_challenge,
    ring_hash,
    ring_verify_report,
)

MAX_PARTICIPANTS = 64


@dataclass(frozen=True)
class KeyShare:
    """One participant's evaluation of every sharing polynomial."""

    participant_x: int
    s0_share: Polynomial
    s1_share: Polynomial
    pk: hots.PublicKey  # master public key
    n_participants: int
    threshold_t: int


@dataclass(frozen=True)
class PartialSignature:
    participant_x: int
    sigma_share: Polynomial
    acorn_proof: bytes


@dataclass(frozen=True)
class LagrangeCoefficients:
    points: tuple
    coeffs: tuple


def lagrange_at_zero(points, q: int = Q) -> LagrangeCoefficients:
    """Weights L_i with sum L_i * f(x_i) = f(0) for deg(f) < len(points).

    L_i = prod_{j != i} x_j * (x_j - x_i)^-1 mod q, inverses by
    exponentiation with q - 2.
    """
    pts = tuple(points)
    if len(pts) == 0:
        raise ThresholdError("empty point set")
    seen = set()
    for x in pts:
        if x % q == 0:
            raise ThresholdError(f"evaluation point {x} is zero mod q")
        if x % q in seen:
            raise ThresholdError(f"duplicate evaluation point {x}")
        seen.add(x % q)
    coeffs = []
    for i, xi in enumerate(pts):
        num = 1
        den = 1
        for j, xj in enumerate(pts):
            if j == i:
                continue
            num = num * xj % q
            den = den * (xj - xi) % q
        coeffs.append(num * pow(den, q - 2, q) % q)
    return LagrangeCoefficients(points=pts, coeffs=tuple(coeffs))


def share_scalar(secret, rand_coeffs, xs, q: int = Q):
    """Evaluate f(x) = secret + sum_k rand_coeffs[k] * x^(k+1) at each x.

    Inputs are ints or int64 arrays of one shape S, reduced mod q; the result
    has shape S + (len(xs),). Horner steps stay below 2q * max(xs) in int64.
    """
    x = np.asarray(xs, dtype=np.int64)
    acc = np.zeros(np.shape(secret) + x.shape, dtype=np.int64)
    for c in reversed(rand_coeffs):
        acc = (acc + np.expand_dims(c, -1)) * x % q
    return (acc + np.expand_dims(secret, -1)) % q


def _sharing_coefficients(entropy: bytes, index: int, count: int):
    """count random Z_q values for one sharing polynomial, rejection-sampled."""
    if count == 0:
        return []
    data = ZK_DOMAIN_SECRET_SHARING + entropy + struct.pack("<I", index)
    limit = (1 << 32) // Q * Q
    length = 4 * count + 64
    buf = hashlib.shake_256(data).digest(length)
    out = []
    pos = 0
    while len(out) < count:
        if pos + 4 > len(buf):
            length *= 2
            buf = hashlib.shake_256(data).digest(length)
        word = int.from_bytes(buf[pos:pos + 4], "little")
        pos += 4
        if word < limit:
            out.append(word % Q)
    return out


def deal_shares(sk: hots.PrivateKey, t: int, n_participants: int,
                entropy: bytes):
    """Split a master private key into n shares with threshold t.

    Participant evaluation points are 1..n (never 0: the evaluation at zero
    IS the secret). With t = 1 every share equals the master secrets.
    """
    if not 1 <= t <= n_participants <= MAX_PARTICIPANTS:
        raise ThresholdError(
            f"need 1 <= t <= n <= {MAX_PARTICIPANTS}, got t={t}, n={n_participants}"
        )
    if len(entropy) != 32:
        raise ValueError("entropy must be 32 bytes")
    xs = range(1, n_participants + 1)
    master = np.concatenate((sk.s0.coeffs, sk.s1.coeffs))
    # row j: the t - 1 random coefficients of master coefficient j's polynomial
    rand = np.array([_sharing_coefficients(entropy, j, t - 1) for j in range(2 * N)],
                    dtype=np.int64)
    evals = share_scalar(master, rand.T, xs, Q)  # (1024, n): column i is x = i + 1
    return tuple(
        KeyShare(
            participant_x=x,
            s0_share=Polynomial(coeffs=evals[:N, i]),
            s1_share=Polynomial(coeffs=evals[N:, i]),
            pk=sk.pk,
            n_participants=n_participants,
            threshold_t=t,
        )
        for i, x in enumerate(xs)
    )


@lru_cache(maxsize=256)
def share_randomness_seed(pk: hots.PublicKey, participant_x: int) -> bytes:
    """Deterministic share-bound seed for a participant's commitment."""
    data = (
        DOMAIN_COORDINATION
        + codec.encode_public_key(pk)
        + struct.pack("<I", participant_x)
    )
    return hashlib.shake_256(data).digest(32)


@lru_cache(maxsize=1024)
def _expected_share_proof(pk: hots.PublicKey, challenge: bytes, participant_x: int,
                          params: RingParams) -> bytes:
    randomness = derive_randomness(share_randomness_seed(pk, participant_x),
                                   participant_x)
    return create_proof(pk, challenge, randomness, participant_x, params)


@lru_cache(maxsize=64)
def threshold_challenge(message: bytes, ring: Ring, params: RingParams):
    """Challenge and per-member records every participant agrees on.

    Derived entirely from (message, ring), so participants need no shared
    state beyond those two values.
    """
    rhash = ring_hash(ring)
    seed = hashlib.shake_256(
        DOMAIN_SIGNATURE_ZK
        + rhash
        + struct.pack("<I", len(message))
        + message
    ).digest(32)
    entries, challenge = build_member_entries(message, ring, rhash, seed, params)
    return challenge, entries


def partial_sign(share: KeyShare, challenge: bytes, params: RingParams) -> PartialSignature:
    """One participant's signature share and commitment on a challenge."""
    if len(challenge) != params.challenge_size:
        raise ValueError(f"challenge must be {params.challenge_size} bytes")
    sigma_share = add(mul(share.s0_share, hash_to_poly(challenge)), share.s1_share)
    proof = _expected_share_proof(share.pk, challenge, share.participant_x, params)
    return PartialSignature(
        participant_x=share.participant_x,
        sigma_share=sigma_share,
        acorn_proof=proof,
    )


def combine(partials, message: bytes, ring: Ring, t: int,
            params: RingParams) -> RingSignature:
    """Combine exactly t partial signatures into a threshold ring signature.

    Raises ByzantineShareError when the Lagrange-combined signature fails
    core verification under every ring key, or when a partial's commitment
    does not match its recomputation; both signal a corrupted share.
    """
    parts = sorted(partials, key=lambda p: p.participant_x)
    if len(parts) < t:
        raise ThresholdError(f"need {t} partial signatures, got {len(parts)}")
    if len(parts) > t:
        raise ThresholdError(f"expected exactly {t} partials, got {len(parts)}")
    xs = [p.participant_x for p in parts]
    if len(set(xs)) != len(xs):
        raise ThresholdError("duplicate participant points")

    challenge, entries = threshold_challenge(message, ring, params)
    lag = lagrange_at_zero(xs, Q)
    combined = zero()
    for L, part in zip(lag.coeffs, parts):
        combined = add(combined, scalar_mul(L, part.sigma_share))
    core = hots.ChipmunkSignature(sigma=combined)

    masters = core_matches(
        RingSignature(ring.size, t, challenge, entries, core, b""), ring, params
    )
    if not masters:
        raise ByzantineShareError(
            "combined signature verifies under no ring key; a share is corrupt"
        )
    master_pk = ring.members[masters[0]]
    for part in parts:
        expected = _expected_share_proof(master_pk, challenge,
                                         part.participant_x, params)
        if not constant_time_eq(part.acorn_proof, expected):
            raise ByzantineShareError(
                f"commitment from participant {part.participant_x} is corrupt"
            )

    block = b"".join(p.acorn_proof for p in parts) if t > 1 else b""
    return RingSignature(
        ring_size=ring.size,
        required_signers=t,
        challenge=challenge,
        per_member=entries,
        chipmunk_sig=core,
        threshold_zk_proofs=block,
    )


def _match_proofs_ascending(proofs, pk, challenge: bytes, params: RingParams) -> bool:
    """Greedy rebinding of embedded proofs to ascending participant points."""
    x = 1
    for proof in proofs:
        while x <= MAX_PARTICIPANTS:
            if constant_time_eq(proof, _expected_share_proof(pk, challenge, x, params)):
                break
            x += 1
        if x > MAX_PARTICIPANTS:
            return False
        x += 1
    return True


def threshold_verify_report(sig: RingSignature, message: bytes, ring: Ring,
                            params: RingParams) -> VerifyReport:
    """Verify a threshold (t > 1) ring signature with a diagnostic reason."""
    if sig.required_signers <= 1:
        return VerifyReport(False, "structural", "required_signers must exceed 1")
    problem = check_structure(sig, ring, params)
    if problem:
        return VerifyReport(False, "structural", problem)
    rhash = ring_hash(ring)
    if recompute_challenge(sig, message, rhash) != sig.challenge:
        return VerifyReport(False, "challenge", "challenge mismatch")
    t = sig.required_signers
    if len(sig.threshold_zk_proofs) != t * params.proof_size:
        return VerifyReport(
            False, "threshold_size",
            f"threshold block is {len(sig.threshold_zk_proofs)} bytes, "
            f"expected {t * params.proof_size}",
        )
    if not check_linkability(sig, message, rhash):
        return VerifyReport(False, "linkability", "linkability tag mismatch")
    masters = core_matches(sig, ring, params)
    if not masters:
        return VerifyReport(False, "core", "core signature matches no ring key")
    p = params.proof_size
    proofs = [sig.threshold_zk_proofs[i * p:(i + 1) * p] for i in range(t)]
    for j in masters:
        if _match_proofs_ascending(proofs, ring.members[j], sig.challenge, params):
            return VerifyReport(True, "ok")
    return VerifyReport(False, "threshold_acorn",
                        "embedded participant proofs do not verify")


def threshold_verify(sig: RingSignature, message: bytes, ring: Ring,
                     params: RingParams) -> bool:
    return threshold_verify_report(sig, message, ring, params).ok


def verify_signature_report(sig: RingSignature, message: bytes, ring: Ring,
                            params: RingParams) -> VerifyReport:
    """Dispatch on required_signers: 1 -> single-signer, else threshold."""
    if sig.required_signers == 1:
        return ring_verify_report(sig, message, ring, params)
    return threshold_verify_report(sig, message, ring, params)


def verify_signature(sig: RingSignature, message: bytes, ring: Ring,
                     params: RingParams) -> bool:
    return verify_signature_report(sig, message, ring, params).ok
