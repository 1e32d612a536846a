"""Global parameter sets and domain-separation constants.

Every other module reads (never mutates) a parameter set from here. The
only algebra backed by the arithmetic layer is Z_q[X]/(X^512 + 1) with
q = 3,168,257 = 3094*1024 + 1, chosen so q is prime and q == 1 (mod 2n),
which guarantees a negacyclic NTT of length 512 exists.
"""

import math
from dataclasses import dataclass

from .errors import ParameterError

N = 512
Q = 3168257
SIGMA = 2.0 / math.sqrt(2.0 * math.pi)

# Secret coefficients are tail-cut at |x| <= 4; challenge polynomials carry
# exactly 64 nonzero +-1 coefficients. The verification norm bound
# 2 * 64 * 4 = 512 accepts every honest signature (norm <= 64*4 + 4 = 260)
# while rejecting grossly malformed ones.
SECRET_BOUND = 4
CHALLENGE_WEIGHT = 64
NORM_BOUND = 2 * CHALLENGE_WEIGHT * SECRET_BOUND

# Protocol domain-separation tags (byte-exact, pairwise distinct).
DOMAIN_ACORN_RANDOMNESS = b"ACORN_RANDOMNESS_V1"
DOMAIN_ACORN_COMMITMENT = b"ACORN_COMMITMENT_V1"
DOMAIN_ACORN_LINKABILITY = b"ACORN_LINKABILITY_V1"
DOMAIN_SIGNATURE_ZK = b"ChipmunkRing-Signature-ZK"
DOMAIN_COORDINATION = b"ChipmunkRing-Coordination"
DOMAIN_VERIFICATION = b"CHIPMUNK_RING_ZK_VERIFY"

# Expansion tags for key material derivation.
DOMAIN_MATRIX = b"CHIPMUNK_RING_MATRIX_V1"
DOMAIN_HASH_TO_POLY = b"CHIPMUNK_RING_H2P_V1"

# Named ZK proof contexts. Only the names are standardized; the byte values
# follow this library's versioned convention (see README).
ZK_DOMAIN_MULTI_SIGNER = b"CHIPMUNK_RING_ZK_MULTI_SIGNER_V1"
ZK_DOMAIN_SINGLE_SIGNER = b"CHIPMUNK_RING_ZK_SINGLE_SIGNER_V1"
ZK_DOMAIN_THRESHOLD = b"CHIPMUNK_RING_ZK_THRESHOLD_V1"
ZK_DOMAIN_SECRET_SHARING = b"CHIPMUNK_RING_ZK_SECRET_SHARING_V1"
ZK_DOMAIN_COMMITMENT = b"CHIPMUNK_RING_ZK_COMMITMENT_V1"
ZK_DOMAIN_RESPONSE = b"CHIPMUNK_RING_ZK_RESPONSE_V1"
ZK_DOMAIN_ENTERPRISE = b"CHIPMUNK_RING_ZK_ENTERPRISE_V1"
ZK_DOMAIN_COORDINATION = b"CHIPMUNK_RING_ZK_COORDINATION_V1"
ZK_DOMAIN_AGGREGATION = b"CHIPMUNK_RING_ZK_AGGREGATION_V1"

ALL_DOMAIN_TAGS = (
    DOMAIN_ACORN_RANDOMNESS,
    DOMAIN_ACORN_COMMITMENT,
    DOMAIN_ACORN_LINKABILITY,
    DOMAIN_SIGNATURE_ZK,
    DOMAIN_COORDINATION,
    DOMAIN_VERIFICATION,
    DOMAIN_MATRIX,
    DOMAIN_HASH_TO_POLY,
    ZK_DOMAIN_MULTI_SIGNER,
    ZK_DOMAIN_SINGLE_SIGNER,
    ZK_DOMAIN_THRESHOLD,
    ZK_DOMAIN_SECRET_SHARING,
    ZK_DOMAIN_COMMITMENT,
    ZK_DOMAIN_RESPONSE,
    ZK_DOMAIN_ENTERPRISE,
    ZK_DOMAIN_COORDINATION,
    ZK_DOMAIN_AGGREGATION,
)


def _is_prime(n: int) -> bool:
    """Trial-division primality check; adequate for 22-bit moduli."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class RingParams:
    """Immutable parameter set; validated at construction.

    proof_size is the per-participant commitment length: 64 bytes in
    single-signer mode, 96 in multi-signer mode. iterations is the hash
    chain length used by the commitment layer.
    """

    n: int = N
    q: int = Q
    sigma: float = SIGMA
    randomness_size: int = 32
    challenge_size: int = 32
    linkability_tag_size: int = 32
    proof_size: int = 64
    iterations: int = 100
    norm_bound: int = NORM_BOUND

    def __post_init__(self):
        if not _is_prime(self.q):
            raise ParameterError(f"q = {self.q} is not prime")
        if self.q % (2 * self.n) != 1:
            raise ParameterError(
                f"q = {self.q} is not 1 mod 2n = {2 * self.n}; no negacyclic NTT"
            )
        if self.proof_size not in (64, 96):
            raise ParameterError(f"proof_size must be 64 or 96, got {self.proof_size}")
        if not 1 <= self.iterations <= 10000:
            raise ParameterError(f"iterations must be in [1, 10000], got {self.iterations}")
        if self.sigma <= 0:
            raise ParameterError("sigma must be positive")
        if self.randomness_size != 32:
            raise ParameterError("randomness_size must be 32")
        if self.challenge_size != 32 or self.linkability_tag_size != 32:
            raise ParameterError("challenge and linkability tag sizes must be 32")
        if self.norm_bound < 1:
            raise ParameterError("norm_bound must be positive")


def preset(mode: str) -> RingParams:
    """Return the named parameter preset: 'single' or 'multi'."""
    if mode == "single":
        return RingParams(proof_size=64, iterations=100)
    if mode == "multi":
        return RingParams(proof_size=96, iterations=1000)
    raise ParameterError(f"unknown parameter mode {mode!r}")


def require_supported(params: RingParams) -> None:
    """Reject parameter sets the arithmetic layer has no tables for."""
    if params.n != N or params.q != Q:
        raise ParameterError(
            f"unsupported ring: n={params.n}, q={params.q}; only n={N}, q={Q}"
        )
