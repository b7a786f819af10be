import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from bohrlab.errors import DomainError
from bohrlab.generators import (Factor, LargeFunctionSpec, SchwarzFunction,
                                identity_schwarz, make_large_function,
                                random_large_function, random_mobius_bounded,
                                random_polynomial, random_schwarz)
from bohrlab.series import TruncatedSeries, inverse


def disk_points(seed, n=200, rmax=0.95):
    rng = np.random.default_rng(seed)
    return rmax * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


# -- factors -----------------------------------------------------------------


def test_factor_validation():
    with pytest.raises(DomainError):
        Factor("power", 1.0)
    with pytest.raises(DomainError):
        Factor("contraction", 1.5)
    with pytest.raises(DomainError):
        Factor("blaschke", 1.0 + 0j)
    with pytest.raises(DomainError):
        Factor("frob")


def phi_series(phi, order):
    """phi's series: the coefficients of z pulled back through phi."""
    z = (np.arange(order + 1) == 1).astype(complex)
    return TruncatedSeries(phi.pull_back(z, order))


def factor_series(f, order):
    """A factor's series, read as the series of the one-factor chain."""
    return phi_series(SchwarzFunction((f,)), order)


def test_factor_series_matches_eval():
    z = disk_points(0, 50, 0.5)
    for f in (Factor("rotation", 1.3), Factor("power", 3),
              Factor("contraction", 0.5), Factor("blaschke", 0.3 + 0.2j)):
        s = factor_series(f, 24)
        assert np.allclose(s.eval(z), f.eval(z), atol=1e-9), f.kind


def _over_degree_one(num, den1, order):
    """num / (1 + den1 z) to ``order`` by the series reciprocal: the
    route the closed forms replaced."""
    n = np.zeros(order + 1, dtype=complex)
    n[: len(num)] = num
    d = np.zeros(order + 1, dtype=complex)
    d[0], d[1] = 1.0, den1
    return np.convolve(n, inverse(d, order))[: order + 1]


def test_blaschke_series_is_the_geometric_closed_form():
    eps = np.finfo(float).eps
    z = disk_points(3, 64, 0.5)
    for c in (0.3 + 0.2j, -0.79j, 0.5, -0.7 + 0.1j, 0j):
        f = Factor("blaschke", c)
        got = factor_series(f, 64).coeffs
        old = _over_degree_one([0, c, 1], np.conj(c), 64)
        # Each coefficient is c g_{j-1} + g_{j-2}; a few ulps of its terms.
        g = np.abs(c) ** np.arange(65.0)
        scale = np.zeros(65)
        scale[1:] += np.abs(c) * g[:-1]
        scale[2:] += g[:-2]
        assert np.all(np.abs(got - old) <= 4 * eps * scale), c
        assert np.abs(factor_series(f, 64).eval(z) - f.eval(z)).max() \
            <= 1e-15, c
    f = Factor("blaschke", 0.3j)
    assert factor_series(f, 0).coeffs.tolist() == [0]
    assert np.array_equal(factor_series(f, 1).coeffs, [0, 0.3j])


def test_mobius_series_is_the_geometric_closed_form():
    eps = np.finfo(float).eps
    for seed in range(6):
        f = random_mobius_bounded(seed, order=64)
        c, u = (complex(v) for v in re.findall(r"=([^,)]+)", f.label))
        old = _over_degree_one([c, u], np.conj(c) * u, 64)
        h = np.abs(c) ** np.arange(65.0)
        scale = np.abs(c) * h
        scale[1:] += h[:-1]
        assert np.all(np.abs(f.coeffs - old) <= 4 * eps * scale), seed
        z = disk_points(seed, 64, 0.5)
        direct = (c + u * z) / (1 + np.conj(c) * u * z)
        assert np.abs(f.eval(z) - direct).max() <= 1e-15, seed


# -- Schwarz compositions ----------------------------------------------------


def test_schwarz_lemma_sampled():
    for seed in range(8):
        phi = random_schwarz(seed, 1 + seed % 4)
        z = disk_points(seed + 100)
        w = phi.eval(z)
        assert np.all(np.abs(w) <= np.abs(z) + 1e-12)
        assert complex(phi.eval(0.0)) == 0


def test_schwarz_series_matches_eval():
    phi = random_schwarz(11, 3)
    s = phi_series(phi, 32)
    z = disk_points(5, 50, 0.4)
    assert np.allclose(s.eval(z), phi.eval(z), atol=1e-8)


def test_valuation_bounds_the_zero_at_0():
    """v(phi) is the product of the factors' valuations, and phi's series
    vanishes below degree v; for a chain without Blaschke factors, v is
    exactly the first nonzero degree."""
    assert [Factor(k, p).valuation for k, p in (
        ("identity", 0), ("rotation", 1.0), ("power", 3),
        ("contraction", 0.5), ("blaschke", 0.0), ("blaschke", 0.5j))] == \
        [1, 1, 3, 1, 1, 1]
    for seed in range(30):
        phi = random_schwarz(seed, 1 + seed % 4)
        v = phi.valuation
        assert v == np.prod([f.valuation for f in phi.factors])
        c = phi_series(phi, 64).coeffs
        first = int(np.flatnonzero(c)[0])
        assert first >= v
        if all(f.kind != "blaschke" for f in phi.factors):
            assert first == v


def test_schwarz_determinism_and_text():
    a, b = random_schwarz(42, 4), random_schwarz(42, 4)
    assert a.text() == b.text()
    assert a.text() != random_schwarz(43, 4).text()


def test_inner_detection():
    assert identity_schwarz().is_inner
    assert not SchwarzFunction((Factor("contraction", 0.5),)).is_inner
    assert random_schwarz(1, 3, inner_only=True).is_inner


# -- large-function specs ----------------------------------------------------


def test_spec_omits_its_two_values():
    spec = random_large_function(9, order=48)
    z = disk_points(9, 400)
    w = spec.eval(z)
    assert np.abs(w - spec.a).min() > 0
    assert np.abs(w - spec.b).min() > 0


def test_spec_series_matches_eval():
    spec = random_large_function(21, order=64)
    for z in (0.05, -0.02 + 0.03j):
        assert spec.series.eval(z) == pytest.approx(complex(spec.eval(z)),
                                                    abs=1e-9)


def test_spec_f0_consistency():
    spec = random_large_function(13, order=48)
    assert spec.series[0] == pytest.approx(complex(spec.eval(0.0)),
                                           abs=1e-13)


@pytest.mark.parametrize("alpha", [1e-3, 0.8, math.pi, 10.0, 1e4])
def test_spec_f0_matches_theta_oracle(alpha):
    """F(0) = a + (b - a) J(e^-alpha), J from 40-digit theta functions."""
    a, b = 0.3 - 0.2j, -1.1 + 0.7j
    spec = make_large_function(a, b, alpha, identity_schwarz(), 64)
    with mpmath.workdps(40):
        q = mpmath.exp(-mpmath.mpf(alpha))
        j = (mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4
        want = mpmath.mpc(a) + (mpmath.mpc(b) - mpmath.mpc(a)) * j
        assert abs(spec.series[0] - want) <= 1e-14 * abs(b - a)


def test_spec_degenerate_rejected():
    with pytest.raises(DomainError, match="must be distinct"):
        make_large_function(1.0, 1.0, 2.0, identity_schwarz(), 16)


@pytest.mark.parametrize("a, b", [(complex(1.7e308, 1.7e308), 0.0),
                                  (0.5, math.inf), (-1.7e308, 1.7e308)])
def test_spec_built_directly_checks_its_omitted_points(a, b):
    """The spec checks a, b and b - a itself, however it is built: |a|
    (parts finite), b or b - a past the double range is a DomainError that
    names the omitted point, with no numpy warning."""
    spec = random_large_function(5, order=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            LargeFunctionSpec(a, b, spec.alpha, spec.phi, spec.series)
    assert str(err.value) == "an omitted point of F exceeds the double range"


@pytest.mark.parametrize("a, b", [(0.0, 1.7e308), (-1.7e308, 1.7e308)])
def test_coefficients_beyond_the_double_range_are_a_domain_error(a, b):
    """(b - a) times a coefficient of Q(phi) overflows: no numpy warning
    escapes, and the error names the double range."""
    phi = SchwarzFunction((Factor("contraction", 0.5),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="double range"):
            make_large_function(a, b, 3.0, phi, 64)


def test_spec_transforms():
    spec = random_large_function(5, order=32)
    s = spec.scaled(2.0)
    assert s.series[0] == pytest.approx(2 * spec.series[0], abs=1e-12)
    with pytest.raises(DomainError, match="must be nonzero"):
        spec.scaled(0.0)


@pytest.mark.parametrize("c", [1e308, 1e308j, complex(1e308, 1e308),
                               math.inf, math.nan])
def test_scaling_beyond_the_double_range_is_a_domain_error(c):
    """c times a coefficient or an omitted point of F overflows, or c is
    not finite: no numpy warning escapes, and the error names the double
    range, also for 1e308 then 100."""
    spec = random_large_function(5, order=32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="double range"):
            spec.scaled(c)
        with pytest.raises(DomainError, match="double range"):
            spec.scaled(1e308).scaled(100)
        assert np.isfinite(spec.scaled(1e300).series.coeffs).all()


def test_spec_text_roundtrip_fields():
    """A spec's order is its series' order, also where phi is a power
    chain, holds a Blaschke factor or vanishes beyond the order (v(phi) =
    81 > 32), and after scaling; the text records it."""
    phis = [SchwarzFunction((Factor("power", 2), Factor("identity"),
                             Factor("power", 3))),
            SchwarzFunction((Factor("blaschke", 0.3 - 0.2j),
                             Factor("contraction", 0.5))),
            SchwarzFunction((Factor("power", 3),) * 4)]
    specs = [random_large_function(3, order=32)]
    specs += [make_large_function(0.2, 1.1j, 1.7, phi, 32) for phi in phis]
    for spec in specs + [s.scaled(-0.5j) for s in specs]:
        assert spec.order == spec.series.order == 32, spec.phi.text()
        txt = spec.text()
        assert "alpha=" in txt and "phi=[" in txt and "order=32" in txt


# -- auxiliary draws ---------------------------------------------------------


def test_random_polynomial_caps_degree():
    with pytest.raises(DomainError):
        random_polynomial(0, 17)
    p = random_polynomial(0, 5)
    assert p.order == 5
    assert np.abs(p.coeffs).max() <= 1.0


def test_random_mobius_is_bounded():
    f = random_mobius_bounded(8, order=64)
    z = disk_points(8, 300, 0.95)
    assert np.abs(f.eval(z)).max() < 1.0 + 1e-6
