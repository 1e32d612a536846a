import dataclasses
import math

import pytest

from chipmunkring import params
from chipmunkring.errors import ParameterError
from chipmunkring.params import RingParams, preset


def test_preset_single():
    p = preset("single")
    assert p.proof_size == 64
    assert p.iterations == 100


def test_preset_multi():
    p = preset("multi")
    assert p.proof_size == 96
    assert p.iterations == 1000


def test_preset_unknown_mode():
    with pytest.raises(ParameterError):
        preset("enterprise")


def test_presets_are_built_once():
    assert preset("single") == RingParams(proof_size=64, iterations=100)
    for mode in ("single", "multi"):
        assert preset(mode) is preset(mode)


def test_modulus_congruence():
    # 3094 * 1024 = 3,168,256, so q = 3,168,257 is 1 mod 2n = 1024
    assert 3094 * 1024 == 3168256
    assert params.N == 512
    assert params.Q % (2 * params.N) == 1
    assert all(params.Q % d for d in range(2, math.isqrt(params.Q) + 1))  # prime


def test_fields_are_the_mode_differences():
    names = [f.name for f in dataclasses.fields(RingParams)]
    assert names == ["proof_size", "iterations"]


def test_nonprime_q_rejected():
    # 2049 = 3 * 683 satisfies the congruence but is composite; q is not a
    # field, so no parameter set with it can be built
    with pytest.raises(TypeError):
        RingParams(q=2049)
    assert params.Q != 2049


def test_wrong_congruence_rejected():
    # 7 is prime, but 7 != 1 mod 1024
    with pytest.raises(TypeError):
        RingParams(q=7)
    assert params.Q % (2 * params.N) == 1


@pytest.mark.parametrize("field", ["n", "sigma", "randomness_size", "challenge_size",
                                   "linkability_tag_size", "norm_bound"])
def test_fixed_values_are_not_settable(field):
    # the ring, its bounds and the digest lengths are params constants
    with pytest.raises(TypeError):
        RingParams(**{field: 1})


def test_bad_proof_size_rejected():
    with pytest.raises(ParameterError):
        RingParams(proof_size=80)


def test_bad_iterations_rejected():
    with pytest.raises(ParameterError):
        RingParams(iterations=0)
    with pytest.raises(ParameterError):
        RingParams(iterations=10001)


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


def test_domain_tags_pairwise_distinct():
    assert len(set(params.ALL_DOMAIN_TAGS)) == len(params.ALL_DOMAIN_TAGS)


def test_norm_bound_value():
    # 2 * hash weight * secret tail cut
    assert params.NORM_BOUND == 2 * 64 * 4 == 512
