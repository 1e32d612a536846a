"""(t, n)-threshold ring signatures over coefficient-wise secret sharing.

The dealer splits each of the master key's 1024 secret coefficients with an
independent degree-(t-1) polynomial over Z_q (the dealer is the only
trusted step). The random coefficients come from polyring.uniform_rows,
the sampler that also expands every key's public element A. Dealing
draws and evaluates the sharing polynomials DEAL_BLOCK = 128 coefficients
at a time, which bounds its memory and keeps each matrix product on one
OpenBLAS thread. Each participant holds the evaluations at its own
nonzero point x. Signing never reassembles the secrets: participants
produce signature shares on a common challenge and the combiner takes the
Lagrange-weighted sum at zero, which by linearity equals the master key's
signature. Lagrange coefficients are computed once per signer set and
reused for all 512 polynomial coefficients.

Coordination is local: the challenge every participant signs is a
deterministic function of (message, ring), so no state travels between
participants beyond message, ring, and their own partial signature. The
combined signature carries the t participant commitment proofs
(acorn.share_proof) sorted by ascending x in its threshold block. This
module only deals, signs partially and combines; ringsig verifies both
modes.
"""

import hashlib
import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import hots
from .acorn import constant_time_eq, share_proof
from .errors import ByzantineShareError, ThresholdError
from .params import (
    DIGEST_SIZE,
    DOMAIN_SIGNATURE_ZK,
    MAX_PARTICIPANTS,
    N,
    Q,
    RingParams,
    ZK_DOMAIN_SECRET_SHARING,
)
from .polyring import Polynomial, add, hash_to_poly, mul, uniform_rows
from .ringsig import Ring, RingSignature, build_member_entries, core_matches, ring_hash
# the verifiers live in ringsig; perfbench reaches these two through this module
from .ringsig import threshold_verify_report, verify_signature_report

DEAL_BLOCK = 128  # coefficient rows dealt at a time; deal_shares says what it bounds


@dataclass(frozen=True)
class KeyShare:
    """One participant's evaluation of every sharing polynomial."""

    participant_x: int
    s0_share: Polynomial = field(repr=False)
    s1_share: Polynomial = field(repr=False)
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

    Inputs are ints or int64 arrays of one shape S, () or (m,), reduced mod
    q here; the result has shape S + (len(xs),). The sum is one float64
    product of the coefficients with the table of x^(k+1) mod q, plus the
    secret: with K coefficients every value stays below K (q - 1)^2 + q,
    which must be below 2^53 for float64 to hold it exactly, or ValueError
    is raised. Dealing at t <= 64 has K <= 63, so its sums stay below 2^50.
    The product is one matmul over every row of S; the caller sizes it,
    and deal_shares passes DEAL_BLOCK rows at a time. The table of powers
    is built by doubling, rows 1..d times x^d, in about log2(K) steps.
    """
    count = len(rand_coeffs)
    if count * (q - 1) ** 2 + q >= 1 << 53:
        raise ValueError(f"{count} coefficients mod {q} can exceed 2^53")
    x = np.asarray(xs, dtype=np.int64) % q
    powers = np.empty((count,) + x.shape, dtype=np.int64)  # row k: x^(k+1) mod q
    powers[:1] = x
    done = 1
    while done < count:  # row done - 1 is x^done: rows 0.. times it are the next rows
        step = min(done, count - done)
        powers[done:done + step] = powers[:step] * powers[done - 1] % q
        done += step
    rand = np.asarray(rand_coeffs, dtype=np.int64).T % q  # shape S + (K,)
    acc = rand.astype(np.float64) @ powers.astype(np.float64)
    acc += np.asarray(secret, dtype=np.int64)[..., None] % q
    out = acc.astype(np.int64)
    out %= q
    return out


def _sharing_matrix(entropy: bytes, rows, count: int) -> np.ndarray:
    """(len(rows), count) int64 array of random Z_q values, one row per index
    j in rows: sharing polynomial j's coefficients, polyring.uniform_rows'
    row for the stream ZK_DOMAIN_SECRET_SHARING | entropy | u32 j."""
    prefix = ZK_DOMAIN_SECRET_SHARING + entropy
    return uniform_rows([prefix + struct.pack("<I", j) for j in rows], count)


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

    The 2N = 1024 sharing polynomials are drawn and evaluated DEAL_BLOCK =
    128 at a time, straight into the (n, 2N) array whose row i holds
    participant i + 1's s0 and s1 coefficients, which the shares copy. No
    random coefficient or product array spans all 2N rows. The block bounds
    two things: the memory of its coefficients and products, and each
    product's size, at most 128 * 63 * 64 = 516,096 < 2^19 multiply-adds,
    which OpenBLAS keeps on one thread (as one (1024, 63) @ (63, 64)
    product, a 64-of-64 dealing was split over both cores and took twice as
    long with the other core busy). Measured with tracemalloc, a 16-of-32
    dealing peaks at 558 KiB and a 64-of-64 dealing at 1,133 KiB, for 276
    and 548 KiB of returned shares; over all 2N rows at once they peaked at
    887 and 2,579 KiB.
    """
    check_threshold_config(t, n_participants)
    if len(entropy) != 32:
        raise ValueError("entropy must be 32 bytes")
    xs = range(1, n_participants + 1)
    master = np.concatenate((sk.s0.coeffs, sk.s1.coeffs))
    evals = np.empty((n_participants, 2 * N), dtype=np.int64)
    for start in range(0, 2 * N, DEAL_BLOCK):
        stop = start + DEAL_BLOCK
        # row j: the t - 1 random coefficients of master coefficient j's polynomial
        rand = _sharing_matrix(entropy, range(start, stop), t - 1)
        evals[:, start:stop] = share_scalar(master[start:stop], rand.T, xs, Q).T
    return tuple(
        KeyShare(
            participant_x=x,
            s0_share=Polynomial(coeffs=evals[i, :N]),
            s1_share=Polynomial(coeffs=evals[i, N:]),
            pk=sk.pk,
            n_participants=n_participants,
            threshold_t=t,
        )
        for i, x in enumerate(xs)
    )


@lru_cache(maxsize=1)
def threshold_challenge(message: bytes, ring: Ring, params: RingParams):
    """Challenge and per-member records every participant agrees on.

    Derived entirely from (message, ring), so participants need no shared
    state beyond those two values. The cache keeps the one session in
    progress, for combine; an older message is not kept alive.
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
    proof = share_proof(share.pk, challenge, share.participant_x, params)
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

    When the combined signature verifies under no ring key, the first
    partial's proof is recomputed under each distinct ring key on this
    challenge. If one key reproduces it, the partials belong to this
    session, and either a signature share is corrupt or t is below the
    threshold the shares were dealt with: ByzantineShareError, naming
    both, since a partial does not carry its dealing's t. If no key
    reproduces it, the partials were made on another message or ring (or
    that proof is corrupt): ThresholdError. A partial whose commitment
    does not match its recomputation under the matching key raises
    ByzantineShareError.
    """
    parts = sorted(partials, key=lambda p: p.participant_x)
    if len(parts) != t:
        raise ThresholdError(f"need exactly {t} partial signatures, got {len(parts)}")
    lag = lagrange_at_zero([p.participant_x for p in parts])
    challenge, entries = threshold_challenge(message, ring, params)
    sigma = np.array(lag) @ np.stack([p.sigma_share.coeffs for p in parts]) % Q
    block = b"".join(p.acorn_proof for p in parts) if t > 1 else b""
    sig = RingSignature(t, challenge, entries,
                        hots.ChipmunkSignature(sigma=Polynomial(coeffs=sigma)), block)

    masters = core_matches(sig, ring)
    if not masters:
        first = parts[0]
        if not any(constant_time_eq(first.acorn_proof,
                                    share_proof(pk, challenge, first.participant_x, params))
                   for pk in dict.fromkeys(ring.members)):
            raise ThresholdError(
                "the partials were made on another message or ring, or participant "
                f"{first.participant_x}'s proof is corrupt"
            )
        raise ByzantineShareError(
            "combined signature verifies under no ring key; a share is corrupt, "
            f"or the shares were dealt with a threshold above t = {t}"
        )
    master_pk = ring.members[masters[0]]
    for part in parts:
        expected = share_proof(master_pk, challenge, part.participant_x, params)
        if not constant_time_eq(part.acorn_proof, expected):
            raise ByzantineShareError(
                f"commitment from participant {part.participant_x} is corrupt"
            )
    return sig
