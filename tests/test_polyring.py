import copy
import hashlib
import pickle
import random

import numpy as np
import pytest

from chipmunkring import polyring
from chipmunkring.params import CHALLENGE_WEIGHT, DOMAIN_HASH_TO_POLY, DOMAIN_MATRIX, N, Q
from chipmunkring.polyring import (
    Polynomial,
    add,
    expand_matrix,
    hash_to_poly,
    infinity_norm,
    mul,
    ntt_forward,
    ntt_inverse,
    sample_secret,
)
import polyref
from polyref import monomial, scalar_mul, zero

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


@pytest.fixture(scope="module")
def ntt_matrices():
    """The transform from its definition, one (n, n) matrix each way.

    Output i of ntt_forward is f evaluated at psi^(2 * bitrev(i) + 1), so
    the forward transform is one matrix product, and the inverse is the
    inverse Vandermonde matrix n^-1 * r^-j. Exact in int64: a row sums 512
    products below q^2 < 2^44.
    """
    roots = [pow(polyring.PSI, 2 * int(f"{i:09b}"[::-1], 2) + 1, Q) for i in range(N)]
    n_inv = pow(N, -1, Q)
    forward = np.array([[pow(r, j, Q) for j in range(N)] for r in roots], dtype=np.int64)
    inverse = np.array([[n_inv * pow(r, -j, Q) % Q for r in roots] for j in range(N)],
                       dtype=np.int64)
    return forward, inverse


def test_polynomial_validation():
    with pytest.raises(ValueError, match=rf"^polynomial needs {N} coefficients, got {N - 1}$"):
        Polynomial(coeffs=(0,) * (N - 1))
    with pytest.raises(ValueError, match=rf"^coefficient {Q} out of range \[0, {Q}\)$"):
        Polynomial(coeffs=(Q,) + (0,) * (N - 1))
    with pytest.raises(ValueError, match=r"^coefficient -1 out of range"):
        Polynomial(coeffs=np.array([5] * (N - 1) + [-1]))

    # the constructor copies: the source can change, the polynomial cannot
    source = np.arange(N, dtype=np.int64)
    p = Polynomial(coeffs=source)
    source[0] = 7
    assert p.coeffs[0] == 0
    assert p.coeffs.dtype == np.int64 and p.coeffs.shape == (N,)
    for held in (p, pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        with pytest.raises(ValueError):
            held.coeffs[0] = 1

    # equality and hashing by value, whatever sequence built the polynomial
    same = Polynomial(coeffs=tuple(range(N)))
    assert p == same and hash(p) == hash(same)
    assert p == Polynomial(coeffs=list(range(N)))
    assert p != add(p, monomial(1, 0))
    assert len({p, same, Polynomial(coeffs=np.arange(N, dtype=np.uint64))}) == 1


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
        assert Polynomial(coeffs=ntt_inverse(ntt_forward(p.coeffs))) == p


def per_row(transform, a):
    return np.stack([transform(row) for row in a.reshape(-1, N)]).reshape(a.shape)


def module_tables():
    """Every numpy array polyring holds at module level, tuples opened."""
    for value in vars(polyring).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield item


# (194, N) is the most rows one core check transforms: sigma, H(c) and
# (A, v0, v1) for each of 64 distinct keys
@pytest.mark.parametrize("shape", [(N,), (3, N), (64, 3, N), (2, N), (5, N), (194, N)])
def test_batched_ntt_matches_per_row(ntt_matrices, shape):
    forward, inverse = ntt_matrices
    nprng = np.random.default_rng(len(shape))
    # all q - 1 gives the largest sum in every matrix product, both directions
    for a in (nprng.integers(0, Q, size=shape), np.zeros(shape, dtype=np.int64),
              np.full(shape, Q - 1, dtype=np.int64)):
        before = a.copy()
        f, g = ntt_forward(a), ntt_inverse(a)
        for out in (f, g):
            assert out.flags.writeable
            assert not any(np.shares_memory(out, t) for t in (a, *module_tables()))
        assert f.shape == g.shape == shape and f.dtype == g.dtype == np.int64
        assert np.array_equal(f, per_row(ntt_forward, a))
        assert np.array_equal(f, per_row(lambda row: forward @ row % Q, a))
        assert np.array_equal(g, per_row(ntt_inverse, a))
        assert np.array_equal(g, per_row(lambda row: inverse @ row % Q, a))
        assert np.array_equal(ntt_inverse(f), a)
        assert np.array_equal(ntt_forward(g), a)
        assert np.array_equal(a, before)


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
    assert a != b


@pytest.mark.parametrize("sample, error", [
    (expand_matrix, "matrix seed must be 32 bytes"),
    (lambda seed: sample_secret(seed, b"s0"), "secret seed must be 32 bytes"),
], ids=["expand_matrix", "sample_secret"])
@pytest.mark.parametrize("length", [0, 31, 33])
def test_seeds_must_be_32_bytes(sample, error, length):
    with pytest.raises(ValueError, match=error):
        sample(b"\x33" * length)


def test_expand_matrix_range():
    a = expand_matrix(b"\x33" * 32)
    assert all(0 <= c < Q for c in a.coeffs)


def test_from_centered_and_norm():
    p = Polynomial(coeffs=np.array([-4, 3] + [0] * (N - 2)) % Q)
    assert p.coeffs[0] == Q - 4
    assert infinity_norm(p) == 4


def test_psi_is_primitive_2n_root():
    assert pow(polyring.PSI, N, Q) == Q - 1
    assert pow(polyring.PSI, 2 * N, Q) == 1


#   Scalar references: the original per-word loops. The library samples with
#   numpy; these pin its coefficients exactly.

_REFERENCE_THRESHOLDS = (
    32164831727160,
    7885242684442114,
    406460509248310393,
    4611718169563505816,
    13835025904146045800,
    18040283564461241223,
    18438858831025109502,
    18446711908877824456,
    18446744073709551616,
)


def reference_sample_secret(seed, context):
    buf = polyring._xof(context + seed, 8 * N)
    coeffs = []
    for i in range(N):
        u = int.from_bytes(buf[8 * i:8 * i + 8], "little")
        k = 0
        while u >= _REFERENCE_THRESHOLDS[k]:
            k += 1
        coeffs.append((k - 4) % Q)
    return np.array(coeffs, dtype=np.int64)


def reference_expand_matrix(seed):
    limit = (1 << 32) // Q * Q
    data = DOMAIN_MATRIX + seed
    length = 4 * N + 256
    coeffs = []
    pos = 0
    buf = polyring._xof(data, length)
    while len(coeffs) < N:
        if pos + 4 > len(buf):
            length *= 2
            buf = polyring._xof(data, length)
        word = int.from_bytes(buf[pos:pos + 4], "little")
        pos += 4
        if word < limit:
            coeffs.append(word % Q)
    return np.array(coeffs, dtype=np.int64)


def test_sample_secret_matches_reference():
    for i in range(120):
        seed = random.Random(i).randbytes(32)
        context = (b"s0", b"s1", b"ctx %d" % i)[i % 3]
        got = sample_secret(seed, context).coeffs
        assert np.array_equal(got, reference_sample_secret(seed, context))


def test_sample_secret_threshold_words_match_reference(monkeypatch):
    # words on, just below and just above every threshold, where a loop
    # comparing u >= T and a search with the wrong side disagree
    words = [0, (1 << 64) - 1]
    for t in _REFERENCE_THRESHOLDS[:-1]:
        words += [t - 1, t, t + 1]
    words = (words * N)[:N]
    stream = b"".join(w.to_bytes(8, "little") for w in words)
    monkeypatch.setattr(polyring, "_xof", lambda data, length: stream[:length])
    got = sample_secret(b"\x00" * 32, b"edge").coeffs
    assert np.array_equal(got, reference_sample_secret(b"\x00" * 32, b"edge"))


def test_expand_matrix_matches_reference():
    for i in range(120):
        seed = random.Random(1000 + i).randbytes(32)
        got = expand_matrix(seed).coeffs
        assert np.array_equal(got, reference_expand_matrix(seed))


def test_expand_matrix_doubling_matches_reference(monkeypatch):
    # 300 words above the rejection limit leave fewer than n accepted words
    # in the first read, so both versions must double the stream length
    shake = polyring._xof
    lengths = []

    def rejecting_xof(data, length):
        lengths.append(length)
        return (b"\xff" * 4 * 300 + shake(data, length))[:length]

    monkeypatch.setattr(polyring, "_xof", rejecting_xof)
    seed = b"\x44" * 32
    got = expand_matrix(seed).coeffs
    assert max(lengths) > 4 * N + 256
    assert np.array_equal(got, reference_expand_matrix(seed))


def test_hash_to_poly_doubling_matches_stream(monkeypatch):
    # 128 attempts at index 5 place one term in the first 384-byte read, so
    # the stream must be read again at twice the length
    stream = b"\x05\x00\x00" * 128 + hashlib.shake_256(b"tail").digest(1024)
    lengths = []

    def crafted_xof(data, length):
        assert data == DOMAIN_HASH_TO_POLY + b"doubling"
        lengths.append(length)
        return stream[:length]

    monkeypatch.setattr(polyring, "_xof", crafted_xof)
    got = hash_to_poly(b"doubling").coeffs
    assert lengths == [384, 768]
    # the placement rule, read straight off the stream
    want = [0] * N
    placed = 0
    for pos in range(0, len(stream) - 2, 3):
        idx = int.from_bytes(stream[pos:pos + 2], "little") % N
        if want[idx] == 0:
            want[idx] = Q - 1 if stream[pos + 2] & 1 else 1
            placed += 1
            if placed == CHALLENGE_WEIGHT:
                break
    assert placed == CHALLENGE_WEIGHT
    assert np.array_equal(got, want)


def test_hash_to_poly_matches_reference_loop():
    for i in range(3000):
        message = random.Random(2000 + i).randbytes(1 + i % 96)
        assert hash_to_poly(message) == polyref.hash_to_poly(message)


# 128 attempts at one index need a second read, 300 a third
@pytest.mark.parametrize("repeats, reads", [(128, [384, 768]), (300, [384, 768, 1536])])
def test_hash_to_poly_doubling_matches_reference_loop(monkeypatch, repeats, reads):
    stream = b"\x05\x00\x01" * repeats + hashlib.shake_256(b"tail").digest(2048)
    lengths = []

    def crafted_xof(data, length):
        assert data == DOMAIN_HASH_TO_POLY + b"doubling"
        lengths.append(length)
        return stream[:length]

    monkeypatch.setattr(polyring, "_xof", crafted_xof)
    got = hash_to_poly(b"doubling")
    assert lengths == reads
    assert got == polyref.hash_to_poly(b"doubling")
    assert lengths == reads * 2

