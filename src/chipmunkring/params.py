"""The ring, its bounds, the two parameter modes and domain-separation constants.

There is one ring, Z_q[X]/(X^512 + 1) with q = 3,168,257 = 3094*1024 + 1,
chosen so q is prime and q == 1 (mod 2n), which guarantees a negacyclic NTT
of length 512 exists. Everything fixed by the scheme is a module constant
here; a RingParams member holds only what the two modes differ in.
"""

from enum import Enum

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


class RingParams(Enum):
    """The two parameter sets, one per wire mode byte; no other can be built.

    proof_size is the per-participant commitment length: 64 bytes in
    single-signer mode, 96 in multi-signer mode. iterations is the hash
    chain length used by the commitment layer. Nothing else differs
    between the modes: keys and core signatures are the same in both.
    """

    SINGLE = (64, 100)
    MULTI = (96, 1000)

    @property
    def proof_size(self) -> int:
        return self.value[0]

    @property
    def iterations(self) -> int:
        return self.value[1]


def preset(mode: str) -> RingParams:
    """Return the named parameter set: 'single' or 'multi'."""
    if mode not in ("single", "multi"):
        raise ParameterError(f"unknown parameter mode {mode!r}")
    return RingParams[mode.upper()]
