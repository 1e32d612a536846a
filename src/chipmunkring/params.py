"""The ring, its bounds, the two parameter modes and domain-separation constants.

There is one ring, Z_q[X]/(X^512 + 1) with q = 3,168,257 = 3094*1024 + 1,
chosen so q is prime and q == 1 (mod 2n), which guarantees a negacyclic NTT
of length 512 exists. Everything fixed by the scheme is a module constant
here; a RingParams holds only what the two modes differ in.
"""

from dataclasses import dataclass

from .errors import ParameterError

N = 512
Q = 3168257

# Secret coefficients are tail-cut at |x| <= 4; challenge polynomials carry
# exactly 64 nonzero +-1 coefficients. The verification norm bound
# 2 * 64 * 4 = 512 accepts every honest signature (norm <= 64*4 + 4 = 260)
# while rejecting grossly malformed ones.
SECRET_BOUND = 4
CHALLENGE_WEIGHT = 64
NORM_BOUND = 2 * CHALLENGE_WEIGHT * SECRET_BOUND

# Length of per-member randomness, challenge digests and linkability tags.
DIGEST_SIZE = 32

# Ring sizes, and threshold participant counts, that signing and the codec accept.
MIN_RING = 2
MAX_RING = 64
MAX_PARTICIPANTS = 64

# Domain-separation tags (byte-exact, pairwise distinct). Each is hashed
# somewhere; the paper's other named contexts have no constant (see README).
DOMAIN_ACORN_RANDOMNESS = b"ACORN_RANDOMNESS_V1"
DOMAIN_ACORN_COMMITMENT = b"ACORN_COMMITMENT_V1"
DOMAIN_ACORN_LINKABILITY = b"ACORN_LINKABILITY_V1"
DOMAIN_SIGNATURE_ZK = b"ChipmunkRing-Signature-ZK"
DOMAIN_COORDINATION = b"ChipmunkRing-Coordination"

# Expansion tags for key material derivation and dealing.
DOMAIN_MATRIX = b"CHIPMUNK_RING_MATRIX_V1"
DOMAIN_HASH_TO_POLY = b"CHIPMUNK_RING_H2P_V1"
ZK_DOMAIN_SECRET_SHARING = b"CHIPMUNK_RING_ZK_SECRET_SHARING_V1"

ALL_DOMAIN_TAGS = (
    DOMAIN_ACORN_RANDOMNESS,
    DOMAIN_ACORN_COMMITMENT,
    DOMAIN_ACORN_LINKABILITY,
    DOMAIN_SIGNATURE_ZK,
    DOMAIN_COORDINATION,
    DOMAIN_MATRIX,
    DOMAIN_HASH_TO_POLY,
    ZK_DOMAIN_SECRET_SHARING,
)


@dataclass(frozen=True)
class RingParams:
    """Immutable parameter set; validated at construction.

    proof_size is the per-participant commitment length: 64 bytes in
    single-signer mode, 96 in multi-signer mode. iterations is the hash
    chain length used by the commitment layer. Nothing else differs
    between the modes: keys and core signatures are the same in both.
    """

    proof_size: int = 64
    iterations: int = 100

    def __post_init__(self):
        if self.proof_size not in (64, 96):
            raise ParameterError(f"proof_size must be 64 or 96, got {self.proof_size}")
        if not 1 <= self.iterations <= 10000:
            raise ParameterError(f"iterations must be in [1, 10000], got {self.iterations}")


_PRESETS = {
    "single": RingParams(proof_size=64, iterations=100),
    "multi": RingParams(proof_size=96, iterations=1000),
}


def preset(mode: str) -> RingParams:
    """Return the named parameter preset: 'single' or 'multi'."""
    if mode not in _PRESETS:
        raise ParameterError(f"unknown parameter mode {mode!r}")
    return _PRESETS[mode]
