import math

import numpy as np
import pytest

from bohrlab.bohr import TheoremReport
from bohrlab.errors import DomainError, SingularDerivative
from bohrlab.generators import (Factor, SchwarzFunction, identity_schwarz,
                                make_large_function, random_large_function)
from bohrlab.geometry import (Cover, boundary_distance, delta_diagnostic,
                              density_distance_check,
                              density_distance_products, disk_identity_cover,
                              hyperbolic_density, q_cover, spec_cover)
from bohrlab.sweeps import run_theorem4, theorem4_spec


def test_disk_identity_closed_form():
    cover = disk_identity_cover()
    rng = np.random.default_rng(1)
    z = 0.97 * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
    prods = density_distance_products(cover, z)
    assert np.abs(prods - 1.0 / (1.0 + np.abs(z))).max() <= 1e-14


def test_density_at_center_is_inverse_derivative():
    cover = q_cover(math.pi)
    lam = hyperbolic_density(cover, 0.0)
    assert lam == pytest.approx(1.0 / abs(complex(cover.deriv(0.0))),
                                rel=1e-14)


def test_density_rotation_invariance():
    # The density of the disk at |z| depends only on |z|.
    cover = disk_identity_cover()
    for r in (0.2, 0.7):
        vals = [hyperbolic_density(cover, r * np.exp(1j * t))
                for t in np.linspace(0, 2 * np.pi, 17)]
        assert max(vals) - min(vals) <= 1e-8


def test_density_domain_and_singularity():
    cover = disk_identity_cover()
    with pytest.raises(DomainError):
        hyperbolic_density(cover, 1.0)
    flat = Cover(lambda z: z * 0, lambda z: np.zeros_like(
        np.asarray(z, complex)), lambda w: 1.0)
    with pytest.raises(SingularDerivative):
        hyperbolic_density(flat, 0.1)


def test_density_distance_bound_on_q_cover():
    rng = np.random.default_rng(2)
    z = 0.8 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    rep = density_distance_check(q_cover(math.pi), z)
    assert rep["pass"]
    assert rep["lhs"] <= 1.0 + 1e-6


def test_boundary_distance_exact_for_inner():
    spec = make_large_function(0.0, 1.0, math.pi, identity_schwarz(), 48)
    d = boundary_distance(spec)
    assert d.method == "omitted-points-exact"
    assert d.error == 0.0
    assert d.value == pytest.approx(
        min(abs(spec.f0), abs(spec.f0 - 1.0)), abs=1e-15)


def test_boundary_distance_sampled_for_contraction():
    phi = SchwarzFunction((Factor("contraction", 0.5),))
    spec = make_large_function(0.0, 1.0, math.pi, phi, 48)
    d = boundary_distance(spec)
    assert d.method == "circle-sampling"
    omitted = min(abs(spec.f0), abs(spec.f0 - 1.0))
    assert 0 < d.value <= omitted
    # A strict contraction shrinks the image, so the distance from F(0) to
    # the image boundary is strictly below the omitted-point distance.
    assert d.value < omitted - 1e-6
    assert d.error < 0.05 * d.value


def test_spec_cover_distance():
    spec = random_large_function(4, order=48)
    cover = spec_cover(spec)
    w = complex(spec.eval(0.1))
    assert cover.boundary_dist(w) == pytest.approx(
        min(abs(w - spec.a), abs(w - spec.b)), abs=1e-15)


def test_delta_diagnostic_finite():
    spec = random_large_function(4, order=48)
    v = delta_diagnostic(spec)
    assert np.isfinite(v) and v >= 0


def test_delta_diagnostic_only_in_theorem4_failures():
    assert "delta_diag" not in TheoremReport.__dataclass_fields__
    res = run_theorem4(seed=7, trials=3)       # trial 2 fails at seed 7
    assert [f["trial"] for f in res.failures] == [2]
    fail = res.failures[0]
    assert fail["delta_diag"] == delta_diagnostic(
        theorem4_spec(fail["seed"], 2))
