"""The core check against a per-member oracle.

ringsig.core_matches tests the norm once and then the identity for all
ring members: one (k,) comparison at the root psi over each key's root
values, then a full transform-domain check on the keys that pass there.
The oracle below is the definition, run member by member in the
coefficient domain: ||sigma|| <= bound and A*sigma == v0*H(c) + v1. Both
must name the same members, and so must hots.verify called once per
member.
"""

import pickle
import random

import pytest

import numpy as np

from chipmunkring import codec, hots
from chipmunkring.params import NORM_BOUND, Q
from chipmunkring.polyring import (
    PSI,
    Polynomial,
    add,
    eval_at_psi,
    expand_matrix,
    hash_to_poly,
    infinity_norm,
    mul,
    ntt_forward,
    sample_secret,
)
from chipmunkring.ringsig import Ring, RingSignature, core_matches
from polyref import monomial

rng = random.Random(0xC04E)


def oracle_matches(sig, ring):
    sigma, h = sig.chipmunk_sig.sigma, hash_to_poly(sig.challenge)
    return [
        j for j, pk in enumerate(ring.members)
        if infinity_norm(sigma) <= NORM_BOUND
        and mul(expand_matrix(pk.rho_seed), sigma) == add(mul(pk.v0, h), pk.v1)
    ]


def core_signature(challenge, core):
    # core_matches reads only the challenge and the core signature
    return RingSignature(required_signers=1, challenge=challenge,
                         per_member=(), chipmunk_sig=core, threshold_zk_proofs=b"")


def check(sig, ring, expected):
    got = core_matches(sig, ring)
    assert got == expected
    assert got == oracle_matches(sig, ring)
    assert got == [j for j, pk in enumerate(ring.members)
                   if hots.verify(pk, sig.challenge, sig.chipmunk_sig)]
    assert all(type(j) is int for j in got)


@pytest.mark.parametrize("k", [2, 8, 64])
def test_honest_signature_at_every_position(key_pool, k):
    ring = Ring(members=tuple(pk for _, pk in key_pool[:k]))
    for pos in range(k):
        challenge = rng.randbytes(32)
        core = hots.sign(key_pool[pos][0], challenge)
        check(core_signature(challenge, core), ring, [pos])


@pytest.mark.parametrize("k", [2, 8, 64])
def test_signer_key_twice(key_pool, k):
    i, j = 0, k - 1
    members = [pk for _, pk in key_pool[:k]]
    members[j] = members[i] = key_pool[0][1]
    challenge = rng.randbytes(32)
    core = hots.sign(key_pool[0][0], challenge)
    check(core_signature(challenge, core), Ring(members=tuple(members)), [i, j])


@pytest.mark.parametrize("k", [2, 8, 64])
def test_sigma_outside_norm_bound(key_pool, k):
    # big_pk's signatures meet the identity but not the norm bound, so only
    # the norm gate can reject them
    big_sk, big_pk = hots.keypair_from_secrets(
        b"\x7d" * 32, monomial(0, 0), monomial(NORM_BOUND + 1, 0))
    pos = k // 2
    members = [pk for _, pk in key_pool[:k]]
    members[pos] = big_pk
    ring = Ring(members=tuple(members))
    challenge = rng.randbytes(32)
    sig = core_signature(challenge, hots.sign(big_sk, challenge))
    assert hots.identity_holds((big_pk,), challenge, sig.chipmunk_sig)[0]
    check(sig, ring, [])


@pytest.mark.parametrize("k", [2, 8, 64])
def test_wrong_challenge(key_pool, k):
    ring = Ring(members=tuple(pk for _, pk in key_pool[:k]))
    challenge = rng.randbytes(32)
    core = hots.sign(key_pool[k - 1][0], challenge)
    check(core_signature(challenge, core), ring, [k - 1])
    check(core_signature(rng.randbytes(32), core), ring, [])


def test_root_values(key_pool):
    pk = key_pool[9][1]
    values = pk.root_values
    want = ntt_forward((expand_matrix(pk.rho_seed).coeffs, pk.v0.coeffs, pk.v1.coeffs))
    assert list(values) == want[:, 0].tolist()
    assert list(values) == eval_at_psi((expand_matrix(pk.rho_seed).coeffs, pk.v0.coeffs,
                                        pk.v1.coeffs)).tolist()
    # kept on the key, and decoding the same bytes again returns that key
    decoded = codec.decode_public_key(pk.encoded).root_values
    assert decoded is codec.decode_public_key(pk.encoded).root_values
    assert decoded == values


@pytest.fixture()
def transforms(monkeypatch):
    """Shapes of the ntt_forward calls hots makes, in order."""
    shapes = []
    real = hots.ntt_forward

    def counted(x):
        shapes.append(np.shape(x))
        return real(x)

    monkeypatch.setattr(hots, "ntt_forward", counted)
    return shapes


def test_root_values_are_per_key(key_pool, transforms):
    # pickling drops the root values, so these keys have none until the check
    a, b = (pickle.loads(pickle.dumps(key_pool[i][1])) for i in (10, 11))
    a_again = pickle.loads(pickle.dumps(a))
    assert not any("root_values" in vars(k) for k in (a, b, a_again))

    challenge = rng.randbytes(32)
    sig = hots.sign(key_pool[10][0], challenge)
    held = hots.identity_holds((a, b, a, a_again), challenge, sig)
    assert held.tolist() == [True, False, True, True]
    # one transform: sigma, H(c) and the one distinct key of the three
    # positions that pass at psi
    assert transforms == [(2 + 3, 512)]
    assert all("root_values" in vars(k) for k in (a, b, a_again))
    assert a_again.root_values == a.root_values
    assert a.root_values == key_pool[10][1].root_values
    assert b.root_values == key_pool[11][1].root_values


def test_full_check_runs_only_on_keys_that_pass_at_psi(key_pool, transforms):
    ring = tuple(pk for _, pk in key_pool)
    challenge = rng.randbytes(32)
    sig = hots.sign(key_pool[37][0], challenge)
    assert np.flatnonzero(hots.identity_holds(ring, challenge, sig)).tolist() == [37]
    assert transforms == [(2 + 3, 512)]  # one full check, for the signer's key
    # no key passes at psi for another challenge, so nothing is transformed
    assert not hots.identity_holds(ring, rng.randbytes(32), sig).any()
    assert transforms == [(2 + 3, 512)]


def test_clone_ring_gets_one_batched_full_check(transforms):
    # distinct keys from one (s0, s1): one sigma meets the identity for all
    s0, s1 = (sample_secret(b"\x3c" * 32, c) for c in (b"s0", b"s1"))
    clones = [hots.keypair_from_secrets(bytes([i]) * 32, s0, s1) for i in range(8)]
    ring = Ring(members=tuple(pk for _, pk in clones))
    challenge = rng.randbytes(32)
    sig = core_signature(challenge, hots.sign(clones[5][0], challenge))
    transforms.clear()  # keypair_from_secrets and sign transform too
    assert core_matches(sig, ring) == list(range(8))
    assert transforms == [(2 + 3 * 8, 512)]
    check(sig, ring, list(range(8)))


def test_repeated_key_gets_one_full_check(key_pool, transforms, monkeypatch):
    # one key listed 64 times: one transform of 2 + 3 rows and one expansion
    # of A in the full check, and the result at every position
    sk, pk = key_pool[13]
    pk.root_values  # the root test's own expansion, made beforehand
    challenge = rng.randbytes(32)
    sig = hots.sign(sk, challenge)
    expansions = []
    real = hots.expand_matrix
    monkeypatch.setattr(hots, "expand_matrix",
                        lambda seed: expansions.append(seed) or real(seed))
    transforms.clear()
    assert hots.identity_holds((pk,) * 64, challenge, sig).tolist() == [True] * 64
    assert transforms == [(2 + 3, 512)]
    assert expansions == [pk.rho_seed]
    # an equal key object, rebuilt from the same bytes, shares that check too
    twin = pickle.loads(pickle.dumps(pk))
    ring = (key_pool[14][1], pk, twin) * 21 + (pk,)
    transforms.clear()
    held = hots.identity_holds(ring, challenge, sig)
    assert np.flatnonzero(held).tolist() == [j for j in range(64) if j % 3 or j == 63]
    assert transforms == [(2 + 3, 512)]


def test_passing_at_psi_alone_is_not_enough(key_pool, transforms):
    # sigma + (X - psi) has the same value at psi as sigma, but A*(X - psi)
    # is not zero, so the identity fails at the other roots
    sk, pk = key_pool[12]
    challenge = rng.randbytes(32)
    sigma = hots.sign(sk, challenge).sigma
    forged = hots.ChipmunkSignature(
        sigma=add(sigma, Polynomial(coeffs=[(-PSI) % Q, 1] + [0] * 510)))
    assert eval_at_psi(forged.sigma.coeffs) == eval_at_psi(sigma.coeffs)
    assert hots.identity_holds((pk,), challenge, forged).tolist() == [False]
    assert transforms == [(2 + 3, 512)]  # it reached the full check
    assert not hots.verify(pk, challenge, forged)
