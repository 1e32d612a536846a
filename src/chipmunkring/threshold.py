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
candidates in ascending order against the first core-matching ring key.
"""

import hashlib
import struct
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import codec, hots
from .acorn import constant_time_eq, create_proof, derive_randomness
from .errors import ByzantineShareError, ThresholdError
from .params import (
    DIGEST_SIZE,
    DOMAIN_COORDINATION,
    DOMAIN_SIGNATURE_ZK,
    MAX_PARTICIPANTS,
    N,
    Q,
    RingParams,
    ZK_DOMAIN_SECRET_SHARING,
)
from .polyring import Polynomial, _xof, add, hash_to_poly, mul
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


def lagrange_at_zero(points) -> tuple:
    """Weights L_i with sum L_i * f(x_i) = f(0) for deg(f) < len(points).

    L_i = prod_{j != i} x_j * (x_j - x_i)^-1 mod q, inverses by
    exponentiation with q - 2.
    """
    pts = tuple(points)
    if len(pts) == 0:
        raise ThresholdError("empty point set")
    seen = set()
    for x in pts:
        if x % Q == 0:
            raise ThresholdError(f"evaluation point {x} is zero mod q")
        if x % Q in seen:
            raise ThresholdError(f"duplicate evaluation point {x}")
        seen.add(x % Q)
    coeffs = []
    for i, xi in enumerate(pts):
        num = 1
        den = 1
        for j, xj in enumerate(pts):
            if j == i:
                continue
            num = num * xj % Q
            den = den * (xj - xi) % Q
        coeffs.append(num * pow(den, Q - 2, Q) % Q)
    return tuple(coeffs)


def share_scalar(secret, rand_coeffs, xs, q: int = Q):
    """Evaluate f(x) = secret + sum_k rand_coeffs[k] * x^(k+1) mod q at each x.

    Inputs are ints or int64 arrays of one shape S, reduced mod q here; the
    result has shape S + (len(xs),). The sum is one float64 product of the
    coefficients with the table of x^(k+1) mod q, plus the secret: with K
    coefficients every value stays below K (q - 1)^2 + q, which must be
    below 2^53 for float64 to hold it exactly, or ValueError is raised.
    Dealing at t <= 64 has K <= 63, so its sums stay below 2^50.
    """
    count = len(rand_coeffs)
    if count * (q - 1) ** 2 + q >= 1 << 53:
        raise ValueError(f"{count} coefficients mod {q} can exceed 2^53")
    x = np.asarray(xs, dtype=np.int64) % q
    powers = np.empty((count,) + x.shape, dtype=np.float64)  # row k: x^(k+1) mod q
    p = np.ones_like(x)
    for row in powers:
        p = p * x % q
        row[...] = p
    rand = np.moveaxis(np.asarray(rand_coeffs, dtype=np.int64) % q, 0, -1)
    acc = rand.astype(np.float64) @ powers
    acc += np.expand_dims(np.asarray(secret, dtype=np.int64) % q, -1)
    out = acc.astype(np.int64)
    out %= q
    return out


_SHARE_LIMIT = (1 << 32) // Q * Q  # largest multiple of q below 2^32


def _sharing_matrix(entropy: bytes, rows: int, count: int) -> np.ndarray:
    """(rows, count) int64 array of random Z_q values; row j is one sharing
    polynomial's coefficients.

    Row j reads its own SHAKE stream as 4-byte little-endian words and keeps
    the first count below the largest multiple of q under 2^32, reduced mod
    q. Every row still short of count is read at one length and filtered
    in one pass, first at count + 16 words; a row short there (at least 17
    words rejected, each with probability about 2^-11) is read again with
    the others at twice the length, which extends its stream.
    """
    streams = [ZK_DOMAIN_SECRET_SHARING + entropy + struct.pack("<I", j)
               for j in range(rows)]
    out = np.empty((rows, count), dtype=np.int64)
    short = np.arange(rows)
    length = 4 * count + 64
    while len(short):
        data = b"".join(_xof(streams[j], length) for j in short.tolist())
        words = np.frombuffer(data, dtype="<u4").reshape(len(short), -1)
        kept = words < _SHARE_LIMIT
        rank = np.cumsum(kept, axis=1, dtype=np.int32)  # half int64's memory
        full = rank[:, -1] >= count
        picked = words[kept & (rank <= count) & full[:, None]] % Q
        # count_nonzero, not -1: reshape(-1, 0) fails when t = 1
        out[short[full]] = picked.reshape(np.count_nonzero(full), count)
        short = short[~full]
        length *= 2
    return out


def check_threshold_config(t: int, n_participants: int) -> None:
    """Raise ThresholdError unless 1 <= t <= n <= MAX_PARTICIPANTS."""
    if not 1 <= t <= n_participants <= MAX_PARTICIPANTS:
        raise ThresholdError(
            f"need 1 <= t <= n <= {MAX_PARTICIPANTS}, got t={t}, n={n_participants}"
        )


def deal_shares(sk: hots.PrivateKey, t: int, n_participants: int,
                entropy: bytes):
    """Split a master private key into n shares with threshold t.

    Participant evaluation points are 1..n (never 0: the evaluation at zero
    IS the secret). With t = 1 every share equals the master secrets.
    """
    check_threshold_config(t, n_participants)
    if len(entropy) != 32:
        raise ValueError("entropy must be 32 bytes")
    xs = range(1, n_participants + 1)
    master = np.concatenate((sk.s0.coeffs, sk.s1.coeffs))
    # row j: the t - 1 random coefficients of master coefficient j's polynomial
    rand = _sharing_matrix(entropy, 2 * N, t - 1)
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
    if len(challenge) != DIGEST_SIZE:
        raise ValueError(f"challenge must be {DIGEST_SIZE} bytes")
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

    lagrange_at_zero rejects duplicate or zero points with ThresholdError
    before the challenge is derived. sigma is one Lagrange-weighted sum of
    the signature shares: weights and coefficients are below q < 2^22, so
    each product is below 2^44, and a sum of MAX_PARTICIPANTS = 64 of them
    is below 2^50; int64 overflows only past 2^19 of them.

    Raises ByzantineShareError when the combined signature fails core
    verification under every ring key, or when a partial's commitment
    does not match its recomputation; both signal a corrupted share.
    """
    parts = sorted(partials, key=lambda p: p.participant_x)
    if len(parts) != t:
        raise ThresholdError(f"need exactly {t} partial signatures, got {len(parts)}")
    lag = lagrange_at_zero([p.participant_x for p in parts])
    challenge, entries = threshold_challenge(message, ring, params)
    sigma = np.array(lag) @ np.stack([p.sigma_share.coeffs for p in parts]) % Q
    sig = RingSignature(ring.size, t, challenge, entries,
                        hots.ChipmunkSignature(sigma=Polynomial(coeffs=sigma)), b"")

    masters = core_matches(sig, ring)
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
    if t == 1:
        return sig
    return replace(sig, threshold_zk_proofs=b"".join(p.acorn_proof for p in parts))


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
    """Verify a threshold (t > 1) ring signature with a diagnostic reason.

    Unlike ring_verify_report, this never checks the per-member Acorn
    proofs: the per-member records are bound only through the challenge,
    and the t participant proofs of the threshold block stand in for them.
    So records with no Acorn chain behind them, under a correct challenge,
    core signature and block, are accepted here, while the same records
    with required_signers = 1 are rejected with reason "acorn".

    The block is rebound only to the first core-matching ring key, the key
    combine binds it to, so one verification costs at most MAX_PARTICIPANTS
    proof chains whatever the ring holds. A ring may list the master key
    several times, or hold distinct keys built from one secret pair
    (hots.keypair_from_secrets with another rho_seed), which all match the
    core signature; a block bound to any matching key but the first is
    rejected with "threshold_acorn". combine never produces one.
    """
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
    masters = core_matches(sig, ring)
    if not masters:
        return VerifyReport(False, "core", "core signature matches no ring key")
    p = params.proof_size
    proofs = [sig.threshold_zk_proofs[i * p:(i + 1) * p] for i in range(t)]
    if not _match_proofs_ascending(proofs, ring.members[masters[0]], sig.challenge,
                                   params):
        return VerifyReport(False, "threshold_acorn",
                            "embedded participant proofs do not verify")
    return VerifyReport(True, "ok")


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
