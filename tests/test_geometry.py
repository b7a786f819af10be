import math

import numpy as np
import pytest

import bohrlab.geometry
import bohrlab.modular
from bohrlab.errors import DomainError
from bohrlab.generators import (Factor, SchwarzFunction, identity_schwarz,
                                make_large_function)
from bohrlab.geometry import boundary_distance, density_distance_products
from bohrlab.modular import q_deriv, q_eval
from bohrlab.series import unit_ring
from bohrlab.sweeps import (_trial_seed, run_density_distance, run_theorem4,
                            theorem4_spec)


def test_disk_identity_closed_form():
    rng = np.random.default_rng(1)
    z = 0.97 * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
    prods = density_distance_products(z)
    assert np.abs(prods - 1.0 / (1.0 + np.abs(z))).max() <= 1e-14


def test_density_at_center_is_inverse_derivative():
    q0 = complex(q_eval(math.pi, 0.0))
    prod = density_distance_products(0.0, math.pi)
    assert prod.shape == (1,)
    assert prod[0] == pytest.approx(min(abs(q0), abs(q0 - 1.0))
                                    / abs(complex(q_deriv(math.pi, 0.0))),
                                    rel=1e-14)


def test_density_rotation_invariance():
    # On the disk, lambda * d at |z| depends only on |z|.
    for r in (0.2, 0.7):
        vals = density_distance_products(
            r * np.exp(1j * np.linspace(0, 2 * np.pi, 17)))
        assert vals.max() - vals.min() <= 1e-8


def test_density_domain_and_singularity():
    with pytest.raises(DomainError):
        density_distance_products([0.5, 1.0])
    with pytest.raises(DomainError):
        density_distance_products([0.5, 1.0], math.pi)
    # At alpha = 1000 the nome e^{-1000} underflows, so Q' flushes to 0.
    with pytest.raises(DomainError, match="derivative vanished"):
        density_distance_products([0.1], 1000.0)


def test_density_distance_bound_on_q_cover():
    rng = np.random.default_rng(2)
    z = 0.8 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    assert density_distance_products(z, math.pi).max() <= 1.0 + 1e-6


def _old_products(points):
    """lambda * d of the Q_pi cover, one scalar J and J' point at a time."""
    out = []
    for z in points:
        lam = 1.0 / (abs(complex(q_deriv(math.pi, complex(z))))
                     * (1.0 - abs(z) ** 2))
        w = complex(q_eval(math.pi, complex(z)))
        out.append(lam * min(abs(w), abs(w - 1.0)))
    return np.array(out)


def test_density_products_match_the_pointwise_formula():
    rng = np.random.default_rng(7)
    rng.random(200)                 # the disk-identity points of the suite
    z = 0.8 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    old = _old_products(z)
    # Array and scalar J' differ by a few ulps (4.6e-16 here), so the
    # products agree to about 1e-15, not bit for bit.
    assert np.abs(density_distance_products(z, math.pi) / old - 1).max() \
        <= 2e-15
    assert old.max() == pytest.approx(0.1999335499854826, rel=1e-15)


def test_density_suite_calls_q_once_each(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(alpha, z):
            calls.append((name, np.size(z)))
            return fn(alpha, z)
        return wrapped

    monkeypatch.setattr(bohrlab.geometry, "q_eval",
                        counting("q_eval", q_eval))
    monkeypatch.setattr(bohrlab.geometry, "q_deriv",
                        counting("q_deriv", q_deriv))
    res = run_density_distance(7, 200)
    assert res.passed
    assert sorted(calls) == [("q_deriv", 200), ("q_eval", 200)]


def test_boundary_distance_exact_for_inner():
    spec = make_large_function(0.0, 1.0, math.pi, identity_schwarz(), 48)
    d = boundary_distance(spec)
    assert type(d) is float
    f0 = spec.series[0]
    assert d == min(abs(f0), abs(f0 - 1.0))


def _circle_distance(spec, k):
    """min |F - F(0)| on |z| = 1 - 2^-k at 4096 nodes."""
    r = 1.0 - 2.0 ** (-k)
    return float(np.abs(spec.eval(r * unit_ring(4096))
                        - spec.series[0]).min())


def test_boundary_distance_sampled_for_contraction():
    phi = SchwarzFunction((Factor("contraction", 0.5),))
    spec = make_large_function(0.0, 1.0, math.pi, phi, 48)
    d = boundary_distance(spec)
    f0 = spec.series[0]
    omitted = min(abs(f0), abs(f0 - 1.0))
    assert 0 < d <= omitted
    # A strict contraction shrinks the image, so the distance from F(0) to
    # the image boundary is strictly below the omitted-point distance.
    assert d < omitted - 1e-6
    # The circle |z| = 1 - 2^-12 gives nearly the same distance.
    assert abs(d - _circle_distance(spec, 12)) < 0.05 * d


def _eleven_circle_distance(spec):
    """The distance as sampled on all eleven circles |z| = 1 - 2^-k,
    k = 4..14, of which only the finest is read."""
    f0 = spec.series[0]
    omitted = min(abs(f0 - spec.a), abs(f0 - spec.b))
    history = [_circle_distance(spec, k) for k in range(4, 15)]
    return min(omitted, history[-1])


def _sampled_specs():
    specs = [theorem4_spec(_trial_seed(7, t), t) for t in (7, 9, 75)]
    phi = SchwarzFunction((Factor("contraction", 0.5),))
    specs.append(make_large_function(0.0, 1.0, math.pi, phi, 48))
    return specs


def test_boundary_distance_matches_eleven_circles():
    for spec in _sampled_specs():
        assert not spec.phi.is_inner
        assert boundary_distance(spec) == _eleven_circle_distance(spec)


def test_boundary_distance_evaluates_one_circle(monkeypatch):
    points = []
    j_eval = bohrlab.modular.j_eval
    sampled = _sampled_specs()[0]
    inner = make_large_function(0.0, 1.0, math.pi, identity_schwarz(), 48)

    def counting(w):
        points.append(np.size(w))
        return j_eval(w)

    monkeypatch.setattr(bohrlab.modular, "j_eval", counting)
    boundary_distance(sampled)
    assert sum(points) == 4096
    points.clear()
    boundary_distance(inner)
    assert points == []


def test_theorem4_failure_record_has_no_delta_diag():
    res = run_theorem4(seed=7, trials=3)       # trial 2 fails at seed 7
    assert [f["trial"] for f in res.failures] == [2]
    assert "delta_diag" not in res.failures[0]
