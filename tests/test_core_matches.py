"""The stacked core check against a per-member oracle.

ringsig.core_matches tests the norm once and then the identity for all
ring members as one (k, n) comparison over cached transform rows. The
oracle below is the definition, run member by member in the coefficient
domain: ||sigma|| <= bound and A*sigma == v0*H(c) + v1. Both must name the
same members, and so must hots.verify called once per member.
"""

import pickle
import random

import pytest

import numpy as np

from chipmunkring import codec, hots
from chipmunkring.params import NORM_BOUND
from chipmunkring.polyring import (
    add,
    expand_matrix,
    hash_to_poly,
    infinity_norm,
    monomial,
    mul,
    ntt_forward,
)
from chipmunkring.ringsig import Ring, RingSignature, core_matches

rng = random.Random(0xC04E)


def oracle_matches(sig, ring, params):
    sigma, h = sig.chipmunk_sig.sigma, hash_to_poly(sig.challenge)
    return [
        j for j, pk in enumerate(ring.members)
        if infinity_norm(sigma) <= NORM_BOUND
        and mul(expand_matrix(pk.rho_seed), sigma) == add(mul(pk.v0, h), pk.v1)
    ]


def core_signature(challenge, core):
    # core_matches reads only the challenge and the core signature
    return RingSignature(ring_size=0, required_signers=1, challenge=challenge,
                         per_member=(), chipmunk_sig=core, threshold_zk_proofs=b"")


def check(sig, ring, params, expected):
    got = core_matches(sig, ring)
    assert got == expected
    assert got == oracle_matches(sig, ring, params)
    assert got == [j for j, pk in enumerate(ring.members)
                   if hots.verify(pk, sig.challenge, sig.chipmunk_sig, params)]
    assert all(type(j) is int for j in got)


@pytest.mark.parametrize("k", [2, 8, 64])
def test_honest_signature_at_every_position(key_pool, single_params, k):
    ring = Ring(members=tuple(pk for _, pk in key_pool[:k]))
    for pos in range(k):
        challenge = rng.randbytes(32)
        core = hots.sign(key_pool[pos][0], challenge, single_params)
        check(core_signature(challenge, core), ring, single_params, [pos])


@pytest.mark.parametrize("k", [2, 8, 64])
def test_signer_key_twice(key_pool, single_params, k):
    i, j = 0, k - 1
    members = [pk for _, pk in key_pool[:k]]
    members[j] = members[i] = key_pool[0][1]
    challenge = rng.randbytes(32)
    core = hots.sign(key_pool[0][0], challenge, single_params)
    check(core_signature(challenge, core), Ring(members=tuple(members)),
          single_params, [i, j])


@pytest.mark.parametrize("k", [2, 8, 64])
def test_sigma_outside_norm_bound(key_pool, single_params, k):
    # big_pk's signatures meet the identity but not the norm bound, so only
    # the norm gate can reject them
    big_sk, big_pk = hots.keypair_from_secrets(
        b"\x7d" * 32, monomial(0, 0), monomial(NORM_BOUND + 1, 0))
    pos = k // 2
    members = [pk for _, pk in key_pool[:k]]
    members[pos] = big_pk
    ring = Ring(members=tuple(members))
    challenge = rng.randbytes(32)
    sig = core_signature(challenge, hots.sign(big_sk, challenge, single_params))
    assert hots.identity_holds((big_pk,), challenge, sig.chipmunk_sig)[0]
    check(sig, ring, single_params, [])


@pytest.mark.parametrize("k", [2, 8, 64])
def test_wrong_challenge(key_pool, single_params, k):
    ring = Ring(members=tuple(pk for _, pk in key_pool[:k]))
    challenge = rng.randbytes(32)
    core = hots.sign(key_pool[k - 1][0], challenge, single_params)
    check(core_signature(challenge, core), ring, single_params, [k - 1])
    check(core_signature(rng.randbytes(32), core), ring, single_params, [])


def test_transform_rows(key_pool):
    pk = key_pool[9][1]
    rows = hots.transform_rows(pk)
    assert rows.shape == (3, 512) and not rows.flags.writeable
    want = [ntt_forward(expand_matrix(pk.rho_seed).coeffs), ntt_forward(pk.v0.coeffs),
            ntt_forward(pk.v1.coeffs)]
    assert np.array_equal(rows, np.stack(want))
    # kept on the key, and decoding the same bytes again returns that key
    decoded = hots.transform_rows(codec.decode_public_key(pk.encoded))
    assert decoded is hots.transform_rows(codec.decode_public_key(pk.encoded))
    assert np.array_equal(decoded, rows)


def test_rows_of_one_batch_are_separate_copies(key_pool, single_params, monkeypatch):
    # pickling drops the rows, so these keys have none until the check below
    a, b = (pickle.loads(pickle.dumps(key_pool[i][1])) for i in (10, 11))
    a_again = pickle.loads(pickle.dumps(a))
    assert "_transform_rows" not in a.__dict__ and "_transform_rows" not in b.__dict__

    shapes = []
    real = hots.ntt_forward

    def counted(x):
        shapes.append(np.shape(x))
        return real(x)

    monkeypatch.setattr(hots, "ntt_forward", counted)
    challenge = rng.randbytes(32)
    sig = hots.sign(key_pool[10][0], challenge, single_params)
    held = hots.identity_holds((a, b, a, a_again), challenge, sig)
    assert held.tolist() == [True, False, True, True]
    # one transform for the keys (equal keys once), one for sigma and H(c)
    assert shapes == [(2, 3, 512), (2, 512)]

    ra, rb = hots.transform_rows(a), hots.transform_rows(b)
    assert not np.shares_memory(ra, rb)
    assert ra.flags.owndata and rb.flags.owndata  # not views of the batch
    assert not ra.flags.writeable and not rb.flags.writeable
    assert hots.transform_rows(a_again) is ra
    assert np.array_equal(ra, hots.transform_rows(key_pool[10][1]))
    assert np.array_equal(rb, hots.transform_rows(key_pool[11][1]))
