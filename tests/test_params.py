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
    for mode in ("enterprise", "Single", "SINGLE"):
        with pytest.raises(ParameterError):
            preset(mode)


def test_presets_are_built_once():
    for mode in ("single", "multi"):
        assert preset(mode) is RingParams[mode.upper()]
        assert preset(mode) is preset(mode)


def test_modulus_congruence():
    # 3094 * 1024 = 3,168,256, so q = 3,168,257 is 1 mod 2n = 1024
    assert 3094 * 1024 == 3168256
    assert params.N == 512
    assert params.Q % (2 * params.N) == 1
    assert all(params.Q % d for d in range(2, math.isqrt(params.Q) + 1))  # prime


def test_fields_are_the_mode_differences():
    # exactly two parameter sets, one per wire mode byte
    assert [(m.name, m.value) for m in RingParams] == [("SINGLE", (64, 100)),
                                                       ("MULTI", (96, 1000))]
    for m in RingParams:
        assert (m.proof_size, m.iterations) == m.value


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
    # the set is closed: a pair that is no member is found nowhere
    with pytest.raises(TypeError):
        RingParams(proof_size=80)
    with pytest.raises(ValueError):
        RingParams((80, 100))
    with pytest.raises(TypeError):
        RingParams(80, 100)


def test_bad_iterations_rejected():
    for pair in ((64, 1), (64, 1000), (96, 100), (96, 10000)):
        with pytest.raises(ValueError):
            RingParams(pair)
    with pytest.raises(TypeError):
        RingParams(proof_size=96, iterations=10000)


def test_params_immutable():
    p = preset("single")
    for name in ("iterations", "proof_size", "value"):
        with pytest.raises(AttributeError):
            setattr(p, name, 5)
    with pytest.raises(AttributeError):
        RingParams.SINGLE = RingParams.MULTI
    assert (p.proof_size, p.iterations) == (64, 100)


def test_replace_is_refused():
    with pytest.raises(TypeError):
        dataclasses.replace(preset("multi"), iterations=10000)
    assert preset("multi").iterations == 1000


def domain_tags() -> dict:
    """Every domain-separation tag in params, by name."""
    return {name: value for name, value in vars(params).items()
            if name.startswith(("DOMAIN_", "ZK_DOMAIN_"))}


def test_domain_tags_byte_exact():
    assert domain_tags() == {
        "DOMAIN_ACORN_RANDOMNESS": b"ACORN_RANDOMNESS_V1",
        "DOMAIN_ACORN_COMMITMENT": b"ACORN_COMMITMENT_V1",
        "DOMAIN_ACORN_LINKABILITY": b"ACORN_LINKABILITY_V1",
        "DOMAIN_SIGNATURE_ZK": b"ChipmunkRing-Signature-ZK",
        "DOMAIN_COORDINATION": b"ChipmunkRing-Coordination",
        "DOMAIN_MATRIX": b"CHIPMUNK_RING_MATRIX_V1",
        "DOMAIN_HASH_TO_POLY": b"CHIPMUNK_RING_H2P_V1",
        "ZK_DOMAIN_SECRET_SHARING": b"CHIPMUNK_RING_ZK_SECRET_SHARING_V1",
    }


def test_domain_tags_pairwise_distinct():
    tags = list(domain_tags().values())
    assert len(tags) == 8
    assert len(set(tags)) == len(tags)


def test_norm_bound_value():
    # 2 * hash weight * secret tail cut
    assert params.NORM_BOUND == 2 * 64 * 4 == 512
