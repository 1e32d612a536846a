import dataclasses

import pytest

from chipmunkring import params
from chipmunkring.errors import ParameterError
from chipmunkring.params import RingParams, preset


def test_preset_single():
    p = preset("single")
    assert p.proof_size == 64
    assert p.iterations == 100
    assert p.n == 512
    assert p.q == 3168257


def test_preset_multi():
    p = preset("multi")
    assert p.proof_size == 96
    assert p.iterations == 1000
    assert p.n == 512
    assert p.q == 3168257


def test_preset_unknown_mode():
    with pytest.raises(ParameterError):
        preset("enterprise")


def test_modulus_congruence():
    # 3094 * 1024 = 3,168,256, so q = 3,168,257 is 1 mod 1024
    assert 3094 * 1024 == 3168256
    for mode in ("single", "multi"):
        assert preset(mode).q % 1024 == 1


def test_nonprime_q_rejected():
    # 2049 = 3 * 683 satisfies the congruence but is composite
    with pytest.raises(ParameterError):
        RingParams(q=2049)


def test_wrong_congruence_rejected():
    with pytest.raises(ParameterError):
        RingParams(q=7)  # prime, but 7 != 1 mod 1024


def test_bad_proof_size_rejected():
    with pytest.raises(ParameterError):
        RingParams(proof_size=80)


def test_bad_iterations_rejected():
    with pytest.raises(ParameterError):
        RingParams(iterations=0)
    with pytest.raises(ParameterError):
        RingParams(iterations=10001)


def test_bad_sigma_rejected():
    with pytest.raises(ParameterError):
        RingParams(sigma=0.0)


def test_bad_randomness_size_rejected():
    with pytest.raises(ParameterError):
        RingParams(randomness_size=16)


def test_params_immutable():
    p = preset("single")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.iterations = 5


def test_iterations_configurable_via_replace():
    p = dataclasses.replace(preset("multi"), iterations=10000)
    assert p.iterations == 10000
    assert p.proof_size == 96


def test_domain_tags_byte_exact():
    assert params.DOMAIN_ACORN_RANDOMNESS == b"ACORN_RANDOMNESS_V1"
    assert params.DOMAIN_ACORN_COMMITMENT == b"ACORN_COMMITMENT_V1"
    assert params.DOMAIN_ACORN_LINKABILITY == b"ACORN_LINKABILITY_V1"
    assert params.DOMAIN_SIGNATURE_ZK == b"ChipmunkRing-Signature-ZK"
    assert params.DOMAIN_COORDINATION == b"ChipmunkRing-Coordination"
    assert params.DOMAIN_VERIFICATION == b"CHIPMUNK_RING_ZK_VERIFY"


def test_domain_tags_pairwise_distinct():
    assert len(set(params.ALL_DOMAIN_TAGS)) == len(params.ALL_DOMAIN_TAGS)


def test_norm_bound_value():
    # 2 * hash weight * secret tail cut
    assert preset("single").norm_bound == 2 * 64 * 4 == 512
