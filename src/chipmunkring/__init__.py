"""Post-quantum ring signatures over a lattice one-time-signature core.

Single-signer rings prove "one of these k keys signed" with per-member
hash commitments; (t, n)-threshold rings let any t holders of key shares
jointly sign. See README for the security caveats that come with the
construction (public keys that reveal their secret keys, deterministic
commitments, verifier-side deanonymization, one-time key reuse).
"""

from .acorn import (
    constant_time_eq,
    create_proof,
    derive_randomness,
    linkability_tag,
    verify_proof,
)
from .codec import (
    decode_partial,
    decode_polynomial,
    decode_private_key,
    decode_public_key,
    decode_share,
    decode_signature,
    encode_partial,
    encode_polynomial,
    encode_private_key,
    encode_public_key,
    encode_share,
    encode_signature,
)
from .errors import (
    BadKindError,
    BadMagicError,
    BadVersionError,
    ByzantineShareError,
    ChipmunkRingError,
    CodecError,
    FieldError,
    ParameterError,
    RingSizeError,
    SignerNotInRingError,
    ThresholdError,
    TruncatedDataError,
)
from .hots import ChipmunkSignature, PrivateKey, PublicKey, keygen, sign, verify
from .params import RingParams, preset
from .polyring import Polynomial
from .ringsig import (
    MemberEntry,
    Ring,
    RingSignature,
    VerifyReport,
    ring_hash,
    ring_sign,
    ring_verify,
    ring_verify_report,
)
from .threshold import (
    KeyShare,
    LagrangeCoefficients,
    PartialSignature,
    combine,
    deal_shares,
    lagrange_at_zero,
    partial_sign,
    threshold_challenge,
    threshold_verify,
    threshold_verify_report,
    verify_signature,
    verify_signature_report,
)

__version__ = "0.1.0"
