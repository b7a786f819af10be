"""``generators.Stream`` against ``numpy.random.default_rng``: every call
sequence the program makes, replayed draw for draw and compared with ==."""

import math
import random

import numpy as np
import pytest

from bohrlab.errors import DomainError
from bohrlab.generators import (Stream, random_large_function,
                                random_mobius_bounded, random_polynomial,
                                random_schwarz)
from bohrlab.sweeps import _harmonic_mu

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64,
              random.Random(300).getrandbits(300) | 2**299]
SEEDS = EDGE_SEEDS + [random.Random(2026).getrandbits(64)
                      for _ in range(2000)]


def numpy_schwarz(seed, depth, inner_only=False):
    """``random_schwarz`` as it drew from numpy: (kind, param) per factor."""
    rng = np.random.default_rng(seed)
    kinds = ["identity", "rotation", "power", "blaschke"]
    if not inner_only:
        kinds.append("contraction")
    factors = []
    for _ in range(depth):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "rotation":
            param = complex(2 * math.pi * rng.random())
        elif kind == "power":
            param = complex(int(rng.integers(2, 4)))
        elif kind == "contraction":
            param = complex(rng.uniform(0.3, 0.7))
        elif kind == "blaschke":
            rad = 0.8 * math.sqrt(rng.random())
            ang = 2 * math.pi * rng.random()
            param = rad * np.exp(1j * ang)
        else:
            param = 0j
        factors.append((kind, param))
    return factors


def numpy_large_function(seed):
    """The draws of ``random_large_function``: inner_only, a, b, alpha,
    and the seed and depth of phi."""
    rng = np.random.default_rng(seed)
    inner_only = bool(rng.random() < 0.5)
    while True:
        a = complex(*rng.uniform(-1.5, 1.5, 2))
        b = complex(*rng.uniform(-1.5, 1.5, 2))
        if abs(a - b) >= 0.3:
            break
    alpha = float(rng.uniform(0.8, math.pi))
    return (inner_only, a, b, alpha, int(rng.integers(2**32)),
            int(rng.integers(1, 5)))


def test_seeds_cover_the_edges():
    assert len(SEEDS) >= 2000
    assert max(SEEDS).bit_length() == 300


@pytest.mark.parametrize("depth", [1, 4, 8])
def test_random_schwarz_replays_numpy(depth):
    for seed in SEEDS:
        for inner_only in (False, True):
            phi = random_schwarz(seed, depth, inner_only)
            assert [(f.kind, f.param) for f in phi.factors] \
                == numpy_schwarz(seed, depth, inner_only)


def test_random_large_function_replays_numpy():
    for seed in SEEDS:
        inner_only, a, b, alpha, phi_seed, depth = numpy_large_function(seed)
        spec = random_large_function(seed, order=1)
        assert (spec.a, spec.b, spec.alpha.alpha) == (a, b, alpha)
        assert spec.phi == random_schwarz(phi_seed, depth, inner_only)


def test_random_polynomial_replays_numpy():
    for seed in SEEDS:
        degree = seed % 17
        rng = np.random.default_rng(seed)
        rad = np.sqrt(rng.random(degree + 1))
        ang = 2 * np.pi * rng.random(degree + 1)
        coeffs = random_polynomial(seed, degree).coeffs
        assert (coeffs == rad * np.exp(1j * ang)).all()


def test_random_mobius_and_harmonic_mu_replay_numpy():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        rad = 0.9 * math.sqrt(rng.random())
        c = rad * np.exp(2j * np.pi * rng.random())
        u = np.exp(2j * np.pi * rng.random())
        h = np.cumprod(np.concatenate(([1.0], np.full(3, -np.conj(c) * u))))
        coeffs = c * h
        coeffs[1:] += u * h[:-1]
        assert (random_mobius_bounded(seed, 3).coeffs == coeffs).all()
        rng = np.random.default_rng(seed)
        c = math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        assert _harmonic_mu(seed, 1).coeffs.tolist() == [c]


def test_vectors_replay_numpy():
    """density-distance's four vectors, then algebra's uniform vectors."""
    for seed in SEEDS:
        ours, theirs = Stream(seed), np.random.default_rng(seed)
        for n in (100, 100, 200, 200):
            assert (ours.random(n) == theirs.random(n)).all()
        for _ in range(4):
            assert (ours.uniform(-1.0, 1.0, 9)
                    == theirs.uniform(-1.0, 1.0, 9)).all()


def test_vector_is_its_scalar_draws():
    """random(n) draws what n scalar draws do, bit for bit, and leaves
    the stream where they leave it, also after a kept 32-bit half."""
    for seed in SEEDS[:200]:
        vector, scalars = Stream(seed), Stream(seed)
        for n in (0, 1, 9, 100):
            got = vector.random(n)
            want = [scalars.random() for _ in range(n)]
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tolist() == want
            assert vector.random() == scalars.random()
            assert vector.integers(7) == scalars.integers(7)


def test_integers_interleave_with_doubles():
    """32-bit draws take the lower half of a 64-bit output first and keep
    the upper one; a double draw leaves the kept half for the next."""
    for seed in SEEDS[:200]:
        ours, theirs = Stream(seed), np.random.default_rng(seed)
        for size in (1, 2, 3, 5, 7, 2**31 + 1, 2**32, 1, 6):
            assert ours.integers(size) == theirs.integers(size)
            assert ours.random() == theirs.random()
            assert ours.integers(-3, size - 3) \
                == theirs.integers(-3, size - 3)


@pytest.mark.parametrize("seed", [-1, -2**70, 7.0, "7", None])
def test_seed_outside_the_domain(seed):
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        Stream(seed)


def test_integer_seeds_of_any_type():
    assert Stream(np.uint64(2**64 - 1)).random() \
        == np.random.default_rng(2**64 - 1).random()
    assert Stream(True).random() == Stream(1).random()


@pytest.mark.parametrize("low, high", [(0, None), (5, 5), (0, 2**32 + 1)])
def test_integer_range_outside_the_domain(low, high):
    with pytest.raises(DomainError, match="high - low"):
        Stream(7).integers(low, high)

