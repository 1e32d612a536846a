import dataclasses
import hashlib
import random
import re

import pytest

from chipmunkring import codec, hots
from chipmunkring.errors import FieldError
from chipmunkring.hots import (
    ChipmunkSignature,
    PrivateKey,
    keygen,
    keypair_from_secrets,
    sign,
    verify,
)
from chipmunkring.params import Q, RingParams
from chipmunkring.polyring import (
    add,
    expand_matrix,
    hash_to_poly,
    infinity_norm,
    mul,
    sample_secret,
)
from polyref import zero

rng = random.Random(0x4075)


def test_keygen_deterministic(single_params):
    sk1, pk1 = keygen(b"\x42" * 32, single_params)
    sk2, pk2 = keygen(b"\x42" * 32, single_params)
    assert codec.encode_private_key(sk1) == codec.encode_private_key(sk2)
    assert codec.encode_public_key(pk1) == codec.encode_public_key(pk2)


def test_keygen_entropy_length(single_params):
    with pytest.raises(ValueError):
        keygen(b"\x42" * 31, single_params)


def test_keypair_from_secrets_rho_seed_length():
    s = sample_secret(b"\x43" * 32, b"s0")
    with pytest.raises(ValueError, match="rho_seed must be 32 bytes"):
        keypair_from_secrets(b"\x43" * 31, s, s)


def test_keygen_unsupported_params():
    # the ring is fixed: another (n, q) cannot even be expressed
    with pytest.raises(TypeError):
        RingParams(n=256, q=7681)


def test_public_key_construction(key_pool):
    sk, pk = key_pool[0]
    a = expand_matrix(pk.rho_seed)
    assert pk.v0 == mul(a, sk.s0)
    assert pk.v1 == mul(a, sk.s1)


def test_rho_seed_collision_scan(single_params):
    seeds = set()
    for i in range(100):
        _, pk = keygen(rng.randbytes(32), single_params)
        seeds.add(pk.rho_seed)
    assert len(seeds) == 100


def test_sign_s1_zero_reduction():
    # with s1 = 0 the signing equation collapses to s0 * H(M)
    s0 = sample_secret(b"\x31" * 32, b"s0")
    sk, _ = keypair_from_secrets(b"\x30" * 32, s0, zero())
    msg = b"identity reduction"
    assert sign(sk, msg).sigma == mul(s0, hash_to_poly(msg))


def test_sign_norm_bound(key_pool):
    # |sigma| <= 64*4 + 4 = 260 by the sampler tail cuts; the 1000-pair
    # sweep lives in test_completeness_and_norm_1000
    for i, (sk, _) in enumerate(key_pool[:20]):
        sig = sign(sk, b"norm trial %d" % i)
        assert infinity_norm(sig.sigma) <= 260


def test_completeness_and_norm_1000(single_params):
    keys = [keygen(rng.randbytes(32), single_params) for _ in range(200)]
    for i, (sk, pk) in enumerate(keys):
        for j in range(5):
            msg = b"completeness %d %d" % (i, j)
            sig = sign(sk, msg)
            assert infinity_norm(sig.sigma) <= 260
            assert verify(pk, msg, sig)


def test_verify_message_bitflip(key_pool):
    sk, pk = key_pool[0]
    sig = sign(sk, b"original message")
    assert verify(pk, b"original message", sig)
    assert not verify(pk, b"priginal message", sig)


def test_verify_norm_violation(key_pool):
    sk, pk = key_pool[1]
    msg = b"norm violation"
    sig = sign(sk, msg)
    coeffs = list(sig.sigma.coeffs)
    coeffs[0] = Q // 2
    big = ChipmunkSignature(sigma=sig.sigma.__class__(coeffs=tuple(coeffs)))
    assert not hots.norm_within_bound(big)


def test_verify_wrong_key(key_pool):
    sk, _ = key_pool[2]
    _, other_pk = key_pool[3]
    msg = b"wrong key"
    sig = sign(sk, msg)
    assert hots.norm_within_bound(sig)
    assert not hots.identity_holds((other_pk,), msg, sig)[0]


def test_zero_signature_never_accepted(key_pool):
    z = ChipmunkSignature(sigma=zero())
    for sk, pk in key_pool[:20]:
        assert not verify(pk, b"zero signature probe", z)


def test_homomorphic_linearity():
    rho = b"\x77" * 32
    s0a = sample_secret(b"\x01" * 32, b"la0")
    s1a = sample_secret(b"\x01" * 32, b"la1")
    s0b = sample_secret(b"\x02" * 32, b"lb0")
    s1b = sample_secret(b"\x02" * 32, b"lb1")
    ska, _ = keypair_from_secrets(rho, s0a, s1a)
    skb, _ = keypair_from_secrets(rho, s0b, s1b)
    skc, _ = keypair_from_secrets(rho, add(s0a, s0b), add(s1a, s1b))
    msg = b"linearity"
    siga = sign(ska, msg)
    sigb = sign(skb, msg)
    sigc = sign(skc, msg)
    assert sigc.sigma == add(siga.sigma, sigb.sigma)


def test_verify_matches_literal_identity(key_pool):
    # the transform-domain check equals the plain product identity
    sk, pk = key_pool[4]
    a = expand_matrix(pk.rho_seed)
    for j in range(5):
        msg = b"literal identity %d" % j
        sig = sign(sk, msg)
        lhs = mul(a, sig.sigma)
        rhs = add(mul(pk.v0, hash_to_poly(msg)), pk.v1)
        assert (lhs == rhs) == verify(pk, msg, sig)
        bad = ChipmunkSignature(sigma=add(sig.sigma, hash_to_poly(b"noise %d" % j)))
        lhs_bad = mul(a, bad.sigma)
        assert (lhs_bad == rhs) == verify(pk, msg, bad)


def test_tr_is_derived_from_the_public_key(key_pool):
    sk, other = key_pool[0][0], key_pool[1][1]
    moved = dataclasses.replace(sk, pk=other)  # replace() rebuilds the key: tr follows pk
    assert moved.tr == hashlib.sha3_384(other.encoded).digest()
    blob = codec.encode_private_key(moved)
    with pytest.raises(FieldError, match="embedded public key is not the one the secrets"):
        codec.decode_private_key(blob)  # key 0's secrets beside key 1's public key
    text = repr(moved)
    assert f"tr={moved.tr!r}" in text
    assert not re.search(r"\b(seed|s0|s1)=", text)  # rho_seed= is public
    stale = bytearray(blob)
    stale[codec.HEADER_BYTES + 32] ^= 1  # first byte of the stored tr
    with pytest.raises(FieldError, match="tr digest does not match the embedded public key"):
        codec.decode_private_key(bytes(stale))
    with pytest.raises(TypeError):
        PrivateKey(seed=sk.seed, tr=moved.tr, s0=sk.s0, s1=sk.s1, pk=other)
