"""Known breaks of the construction, pinned so that a fix shows up as a failure.

Key recovery from the public key alone. hots' public element A is a single
ring element, and v0 = A*s0, v1 = A*s1. Whenever NTT(A) has no zero
coefficient (all but about 512/q of keys), A is invertible in R_q, so
s0 = A^-1 * v0 and s1 = A^-1 * v1: pointwise division in the NTT domain.
Anyone holding a ring member's public key can then sign as that member.
A fix needs A with several ring-element columns, which changes keys and
wire bytes; when it lands, this test must be rewritten to show the
recovery failing.
"""

import numpy as np

from chipmunkring import hots
from chipmunkring.params import Q
from chipmunkring.polyring import Polynomial, expand_matrix, ntt_forward, ntt_inverse
from chipmunkring.ringsig import Ring, ring_sign, ring_verify


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
    assert ring_verify(sig, message, ring, single_params)
