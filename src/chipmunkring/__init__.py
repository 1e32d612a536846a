"""Post-quantum ring signatures over a lattice one-time-signature core.

Single-signer rings prove "one of these k keys signed" with per-member
hash commitments; (t, n)-threshold rings let any t holders of key shares
jointly sign. See README for the security caveats that come with the
construction (public keys that reveal their secret keys, deterministic
commitments, verifier-side deanonymization, one-time key reuse).

Import each public name from its module, e.g. chipmunkring.params.preset.
"""

from . import acorn, codec, errors, hots, params, polyring, ringsig, threshold

__version__ = "0.1.0"
