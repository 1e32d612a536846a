import random

import numpy as np
import pytest

from chipmunkring import polyring
from chipmunkring.params import N, Q
from chipmunkring.polyring import (
    Polynomial,
    add,
    expand_matrix,
    from_centered,
    hash_to_poly,
    infinity_norm,
    monomial,
    mul,
    ntt_forward,
    ntt_inverse,
    sample_secret,
    scalar_mul,
    zero,
)

rng = random.Random(0xC41)


def random_poly():
    return Polynomial(coeffs=tuple(rng.randrange(Q) for _ in range(N)))


#   Oracles. Both compute negacyclic convolution straight from the
#   definition, independent of the NTT path under test.

def schoolbook_mul(f, g):
    """Pure-Python O(n^2) negacyclic convolution of coefficient lists."""
    t = [0] * (2 * N)
    for i in range(N):
        fi = f[i]
        if fi == 0:
            continue
        for j in range(N):
            t[i + j] += fi * g[j]
    return [(t[i] - t[i + N]) % Q for i in range(N)]


def convolve_mul(f, g):
    """numpy full convolution folded negacyclically; exact in int64."""
    t = np.convolve(np.array(f, dtype=np.int64), np.array(g, dtype=np.int64))
    t = np.concatenate([t, np.zeros(2 * N - len(t), dtype=np.int64)])
    return ((t[:N] - t[N:2 * N]) % Q).tolist()


def test_polynomial_validation():
    with pytest.raises(ValueError):
        Polynomial(coeffs=(0,) * (N - 1))
    with pytest.raises(ValueError):
        Polynomial(coeffs=(Q,) + (0,) * (N - 1))


def test_add_identity():
    p = random_poly()
    assert add(p, zero()) == p


def test_add_inverse():
    p = random_poly()
    q_minus_p = Polynomial(coeffs=tuple((Q - c) % Q for c in p.coeffs))
    assert add(p, q_minus_p) == zero()


def test_add_wraparound():
    all_qm1 = Polynomial(coeffs=(Q - 1,) * N)
    all_one = Polynomial(coeffs=(1,) * N)
    assert add(all_qm1, all_one) == zero()


def test_mul_identity():
    p = random_poly()
    assert mul(p, monomial(1, 0)) == p


def test_mul_negacyclic_wrap():
    # X^(n-1) * X = X^n = -1
    assert mul(monomial(1, N - 1), monomial(1, 1)) == monomial(Q - 1, 0)


def test_mul_matches_schoolbook_low_degree():
    for _ in range(10):
        f = [rng.randrange(Q) if i < 8 else 0 for i in range(N)]
        g = [rng.randrange(Q) if i < 8 else 0 for i in range(N)]
        got = mul(Polynomial(coeffs=tuple(f)), Polynomial(coeffs=tuple(g)))
        assert list(got.coeffs) == schoolbook_mul(f, g)


def test_mul_matches_convolution_oracle():
    for _ in range(20):
        f = random_poly()
        g = random_poly()
        assert list(mul(f, g).coeffs) == convolve_mul(f.coeffs, g.coeffs)


def test_ntt_roundtrip_1000():
    for _ in range(1000):
        p = random_poly()
        assert ntt_inverse(ntt_forward(p)) == p


def test_ring_laws():
    for _ in range(10):
        a, b, c = random_poly(), random_poly(), random_poly()
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_scalar_mul_matches_mul_by_constant():
    p = random_poly()
    k = rng.randrange(1, Q)
    assert scalar_mul(k, p) == mul(p, monomial(k, 0))


def test_sample_secret_deterministic():
    a = sample_secret(b"\x05" * 32, b"s0")
    b = sample_secret(b"\x05" * 32, b"s0")
    assert a == b
    assert a != sample_secret(b"\x05" * 32, b"s1")
    assert a != sample_secret(b"\x06" * 32, b"s0")


def test_sample_secret_tail_cut():
    for i in range(20):
        p = sample_secret(bytes([i]) * 32, b"tail")
        assert infinity_norm(p) <= 4


def test_sample_secret_moments():
    # >= 1e5 samples; the tail-cut discrete Gaussian has variance 0.636508,
    # within the 10% envelope around sigma^2 = 2/pi = 0.636620.
    total = 0
    total_sq = 0
    count = 0
    for i in range(196):
        p = sample_secret(i.to_bytes(32, "little"), b"moments")
        half = Q // 2
        for c in p.coeffs:
            v = c - Q if c > half else c
            total += v
            total_sq += v * v
            count += 1
    assert count >= 100_000
    mean = total / count
    var = total_sq / count - mean * mean
    assert abs(mean) < 0.05
    assert abs(var - 0.6366) / 0.6366 < 0.10


def test_hash_to_poly_deterministic():
    assert hash_to_poly(b"msg") == hash_to_poly(b"msg")


def test_hash_to_poly_weight_and_values():
    p = hash_to_poly(b"weight check")
    nonzero = [c for c in p.coeffs if c != 0]
    assert len(nonzero) == 64
    assert set(nonzero) <= {1, Q - 1}


def test_hash_to_poly_empty_message_rejected():
    with pytest.raises(ValueError):
        hash_to_poly(b"")


def test_hash_to_poly_support_collisions():
    # distinct messages give distinct support sets
    def support(msg):
        return frozenset(
            i for i, c in enumerate(hash_to_poly(msg).coeffs) if c != 0
        )

    seen = {}
    for i in range(1000):
        msg = b"collision scan %d" % i
        s = support(msg)
        assert s not in seen, f"support collision between {seen.get(s)} and {msg}"
        seen[s] = msg


def test_expand_matrix_deterministic():
    a = expand_matrix(b"\x11" * 32)
    b = expand_matrix(b"\x11" * 32)
    assert a == b


def test_expand_matrix_seed_sensitivity():
    seed = bytearray(b"\x22" * 32)
    a = expand_matrix(bytes(seed))
    seed[0] ^= 0x01
    b = expand_matrix(bytes(seed))
    assert a.a.coeffs != b.a.coeffs


def test_expand_matrix_range():
    a = expand_matrix(b"\x33" * 32)
    assert all(0 <= c < Q for c in a.a.coeffs)


def test_from_centered_and_norm():
    p = from_centered([-4, 3] + [0] * (N - 2))
    assert p.coeffs[0] == Q - 4
    assert infinity_norm(p) == 4


def test_psi_is_primitive_2n_root():
    assert pow(polyring.PSI, N, Q) == Q - 1
    assert pow(polyring.PSI, 2 * N, Q) == 1
