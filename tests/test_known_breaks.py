"""Known breaks of the construction, pinned so that a fix shows up as a failure.

Key recovery from the public key alone. hots' public element A is a single
ring element, and v0 = A*s0, v1 = A*s1. Whenever NTT(A) has no zero
coefficient (all but about 512/q of keys), A is invertible in R_q, so
s0 = A^-1 * v0 and s1 = A^-1 * v1: pointwise division in the NTT domain.
Anyone holding a ring member's public key can then sign as that member.
A fix needs A with several ring-element columns, which changes keys and
wire bytes; when it lands, this test must be rewritten to show the
recovery failing.

Key recovery from two signatures under one key, single-signer or combined
from shares of one dealing: see recover_from_two_signatures below.
"""

import numpy as np

from chipmunkring import hots
from chipmunkring.params import Q
from chipmunkring.polyring import (
    Polynomial,
    expand_matrix,
    hash_to_poly,
    ntt_forward,
    ntt_inverse,
)
from chipmunkring.ringsig import Ring, ring_sign, ring_verify_report
from chipmunkring.threshold import combine, deal_shares, partial_sign, threshold_challenge


def recover_secrets(pk):
    a_hat = ntt_forward(expand_matrix(pk.rho_seed).coeffs)
    assert np.all(a_hat != 0)  # A is a unit of R_q
    a_inv = np.array([pow(int(x), Q - 2, Q) for x in a_hat], dtype=np.int64)
    return tuple(Polynomial(coeffs=ntt_inverse(ntt_forward(v.coeffs) * a_inv % Q))
                 for v in (pk.v0, pk.v1))


def test_public_key_reveals_the_secret_key(key_pool, single_params):
    for sk, pk in key_pool[:16]:
        assert recover_secrets(pk) == (sk.s0, sk.s1)

    victim = key_pool[20][1]
    s0, s1 = recover_secrets(victim)
    forged_sk, forged_pk = hots.keypair_from_secrets(victim.rho_seed, s0, s1)
    assert forged_pk == victim

    ring = Ring(members=(key_pool[21][1], victim, key_pool[22][1]))
    message = b"never signed by the holder of this key"
    sig = ring_sign(forged_sk, 1, message, ring, b"\x5a" * 32, single_params)
    assert ring_verify_report(sig, message, ring, single_params).ok


# Key reuse. A core signature is sigma = s0*H(c) + s1, linear in the secret
# pair, so two signatures under one key on different challenges give, in
# the NTT domain, s0 = (sigma1 - sigma2) / (H1 - H2) and s1 = sigma1 - s0*H1
# wherever H1 - H2 has no zero coefficient. Keys are one-time keys; nothing
# in the library stops a second signature yet.

def recover_from_two_signatures(sig1, sig2):
    sigma = ntt_forward((sig1.chipmunk_sig.sigma.coeffs, sig2.chipmunk_sig.sigma.coeffs))
    h = ntt_forward((hash_to_poly(sig1.challenge).coeffs,
                     hash_to_poly(sig2.challenge).coeffs))
    dh = (h[0] - h[1]) % Q
    assert np.all(dh != 0)  # H1 - H2 is a unit, so the division is defined
    dh_inv = np.array([pow(int(x), Q - 2, Q) for x in dh], dtype=np.int64)
    s0 = (sigma[0] - sigma[1]) % Q * dh_inv % Q
    s1 = (sigma[0] - s0 * h[0]) % Q
    return Polynomial(coeffs=ntt_inverse(s0)), Polynomial(coeffs=ntt_inverse(s1))


def forge_and_verify(rho_seed, s0, s1, victim, ring, params):
    forged_sk, forged_pk = hots.keypair_from_secrets(rho_seed, s0, s1)
    assert forged_pk == victim
    message = b"never signed by the holder of this key"
    sig = ring_sign(forged_sk, ring.members.index(victim), message, ring,
                    b"\x5c" * 32, params)
    assert ring_verify_report(sig, message, ring, params).ok


def test_two_signatures_under_one_key_reveal_it(key_pool, single_params):
    sk, pk = key_pool[24]
    ring = Ring(members=(key_pool[23][1], pk, key_pool[25][1]))
    sigs = [ring_sign(sk, 1, message, ring, b"\x5b" * 32, single_params)
            for message in (b"first message", b"second message")]
    s0, s1 = recover_from_two_signatures(*sigs)
    assert (s0, s1) == (sk.s0, sk.s1)
    forge_and_verify(pk.rho_seed, s0, s1, pk, ring, single_params)


def test_two_combined_signatures_reveal_the_master_key(key_pool, multi_params):
    master_sk, master_pk = key_pool[26]
    ring = Ring(members=(key_pool[27][1], key_pool[28][1], master_pk))
    shares = deal_shares(master_sk, 2, 3, b"\x5d" * 32)
    sigs = []
    for message, signers in ((b"first message", shares[:2]), (b"second message", shares[1:])):
        challenge, _ = threshold_challenge(message, ring, multi_params)
        partials = [partial_sign(share, challenge, multi_params) for share in signers]
        sigs.append(combine(partials, message, ring, 2, multi_params))
    s0, s1 = recover_from_two_signatures(*sigs)
    assert (s0, s1) == (master_sk.s0, master_sk.s1)
    forge_and_verify(master_pk.rho_seed, s0, s1, master_pk, ring, multi_params)
