"""The robustness contract: any finite input returns finite values or raises
``DomainError``, with no numpy warning (pytest turns ``RuntimeWarning`` into
an error) and within a deadline.

Inputs are drawn over the whole double range: subnormals, alpha from
5e-324 to the largest double, |a| and |b| up to it, and points within one
ulp of |z| = 1.  The draws are derandomized, so every run sees the same
cases.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab.bohr import (bohr_operator, littlewood_check, main_theorem_check,
                         von_neumann_check)
from bohrlab.errors import DomainError
from bohrlab.generators import (Factor, SchwarzFunction, identity_schwarz,
                                make_large_function, modulus_bounds,
                                random_large_function, random_mobius_bounded,
                                random_polynomial, random_schwarz)
from bohrlab.geometry import boundary_distance, density_distance_products
from bohrlab.harmonic import (build_pair, harmonic_bohr_check,
                              majorant_domination_check)
from bohrlab.modular import (j_deriv, j_eval, q_deriv, q_eval, q_series,
                             starlike_certificate)
from bohrlab.series import TruncatedSeries, unit_ring

CONTRACT = settings(derandomize=True, database=None, max_examples=100,
                    deadline=2000)

BIG = sys.float_info.max
TINY = sys.float_info.min                  # smallest normal double

finite = st.floats(allow_nan=False, allow_infinity=False)
subnormal = st.floats(min_value=-TINY, max_value=TINY)
alphas = st.floats(min_value=5e-324, max_value=BIG)
angles = st.floats(-4.0, 4.0) | finite
#: 1 - k ulp for k = 0..3; the ulp below 1 is 2^-53.
near_one = st.integers(0, 3).map(lambda k: 1.0 - k * 2.0 ** -53)


def _polar(r, theta):
    return complex(r * math.cos(theta), r * math.sin(theta))


points = st.one_of(
    st.builds(complex, finite, finite),
    st.builds(complex, subnormal, subnormal),
    st.builds(_polar, near_one, angles),
    st.builds(_polar, st.floats(0.0, 1.0, exclude_max=True), angles),
    st.sampled_from([1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53),
                     1j * (1.0 - 2.0 ** -53), 5e-324, -5e-324j]),
)
disk_radii = st.floats(0.0, 1.0, exclude_max=True) | near_one
factors = st.one_of(
    st.just(Factor("identity")),
    st.builds(lambda t: Factor("rotation", t), finite),
    st.builds(lambda k: Factor("power", k), st.integers(2, 8)),
    st.builds(lambda s: Factor("contraction", s),
              st.floats(min_value=5e-324, max_value=1.0)),
    st.builds(_polar, disk_radii, angles).filter(lambda c: abs(c) < 1).map(
        lambda c: Factor("blaschke", c)),
)
schwarz = st.lists(factors, min_size=1, max_size=4).map(
    lambda fs: SchwarzFunction(tuple(fs)))
omitted = st.one_of(
    st.builds(complex, finite, finite),
    st.builds(complex, subnormal, subnormal),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
#: Polynomials: a dilatation mu for the harmonic checks, a p for von Neumann;
#: None where a coefficient's modulus is past the double range.
polynomials = st.lists(omitted, min_size=1, max_size=4).map(
    lambda coeffs: _holds(TruncatedSeries, coeffs))


def _finite(*values):
    for v in values:
        assert np.isfinite(np.asarray(v)).all(), values


def _finite_row(row):
    """A check's row, or None for a DomainError, has finite numbers."""
    if row is not None:
        _finite(row.lhs, row.rhs, row.slack)


def _holds(call, *args):
    """call(*args), or None when it raises DomainError."""
    try:
        return call(*args)
    except DomainError:
        return None


@CONTRACT
@given(points)
def test_j_and_j_prime(z):
    for call in (j_eval, j_deriv):
        value = _holds(call, z)
        if value is not None:
            _finite(value)


@CONTRACT
@given(alphas, points)
def test_q_and_q_prime(alpha, z):
    for call in (q_eval, q_deriv):
        value = _holds(call, alpha, z)
        if value is not None:
            _finite(value)


@CONTRACT
@given(alphas, st.integers(1, 64))
def test_q_series(alpha, order):
    coeffs = _holds(q_series, alpha, order)
    if coeffs is not None:
        _finite(coeffs)


@CONTRACT
@given(omitted, omitted, alphas, schwarz, st.integers(0, 64), finite)
def test_large_function_and_its_checks(a, b, alpha, phi, order, c):
    spec = _holds(make_large_function, a, b, alpha, phi, order)
    if spec is None:
        return
    _finite(spec.series.coeffs)
    for s in (spec, _holds(spec.scaled, c)):
        if s is None:
            continue
        _finite(s.a, s.b, s.series.coeffs)
        distance = _holds(boundary_distance, s)
        bounds = _holds(modulus_bounds, [s])
        if distance is None or bounds is None:
            continue
        _finite(distance, bounds)
        row = _holds(main_theorem_check, s, *bounds, distance)
        if row is not None:
            _finite(row.lhs, row.rhs, row.slack)


@CONTRACT
@given(omitted, omitted, alphas, schwarz, st.integers(0, 64), polynomials,
       disk_radii, st.floats(0.0, 1.0))
def test_harmonic_and_von_neumann_checks(a, b, alpha, phi, order, poly, r,
                                         distance):
    """``poly`` is mu for the harmonic pair and p for von Neumann;
    ``distance`` stands in for a boundary distance below one.  The two
    checks that take a bound on |F| are skipped where computing it raised."""
    spec = _holds(make_large_function, a, b, alpha, phi, order)
    if spec is None or poly is None:
        return
    bounds = _holds(modulus_bounds, [spec])
    if bounds is not None:
        _finite(bounds)
    pair = _holds(build_pair, spec, poly)
    if pair is not None:
        _finite(pair.g.coeffs)
        if bounds is not None:
            _finite_row(_holds(harmonic_bohr_check, pair, *bounds, distance))
        _finite_row(_holds(majorant_domination_check, pair, r))
    if bounds is not None:
        _finite_row(_holds(von_neumann_check, spec, poly, *bounds, distance))


@CONTRACT
@given(polynomials | st.lists(finite, min_size=1, max_size=4).map(
    TruncatedSeries), disk_radii, st.integers(0, 1))
def test_bohr_operator(f, r, from_degree):
    if f is None:
        return
    total = _holds(bohr_operator, f, r, from_degree)
    if total is not None:
        _finite(total)


#: The four seeded generators as functions of the seed alone, each giving
#: the numbers it drew or built.
SEEDED = (lambda s: [f.param for f in random_schwarz(s, 3).factors],
          lambda s: random_large_function(s, 8).series.coeffs,
          lambda s: random_polynomial(s, 4).coeffs,
          lambda s: random_mobius_bounded(s).coeffs)


@CONTRACT
@given(st.integers(max_value=-1) | finite | st.just(math.nan)
       | st.builds(complex, finite, finite) | st.just("7"))
def test_seeds_outside_the_stream_are_domain_errors(seed):
    for draw in SEEDED:
        with pytest.raises(DomainError, match="seed must be"):
            draw(seed)


@CONTRACT
@given(st.integers(0, 2**70))
def test_seeded_generators(seed):
    for draw in SEEDED:
        _finite(draw(seed))


@CONTRACT
@given(st.lists(points, min_size=1, max_size=4), st.none() | alphas)
def test_density_distance_products(zs, alpha):
    products = _holds(density_distance_products, np.array(zs), alpha)
    if products is not None:
        _finite(products)


@CONTRACT
@given(schwarz, st.integers(1, 64), st.none() | st.integers(-2, 64))
def test_littlewood(phi, order, kmax):
    row = _holds(littlewood_check, phi, order, kmax)
    if row is not None:
        _finite(row.lhs, row.rhs, row.slack)


@CONTRACT
@given(disk_radii | subnormal | finite, st.integers(-1, 4096))
def test_starlike_certificate(r, nodes):
    """The tail is +inf, and the margin -inf, exactly where the tail's
    geometric series does not converge: a certificate of nothing."""
    cert = _holds(starlike_certificate, r, nodes)
    if cert is None:
        return
    _finite(cert.min_re, cert.discretisation, cert.rounding)
    assert cert.tail >= 0
    assert (cert.tail == math.inf) == (cert.margin == -math.inf)
    assert not math.isnan(cert.margin)


# -- inputs the draws found past the double range, each pinned ---------------


def test_q_prime_past_the_double_range_is_a_domain_error():
    with pytest.raises(DomainError, match="Q' is not finite"):
        q_deriv(8.98846567431158e307, 0.0)


def test_nome_below_the_double_range_is_zero():
    """alpha Re (1+z)/(1-z) overflows: the nome is 0 with no warning, and
    Q' there is a DomainError."""
    assert q_eval(1.1990082795948867e307, 0.875) == 0
    for z, alpha in ((0.9375, 5.799010112459083e306),
                     (0.75, 5.617791046444737e306)):
        with pytest.raises(DomainError, match="Q' is not finite"):
            density_distance_products([z], alpha)
    spec = make_large_function(0.0, 1j, 1.1990082795948867e307,
                               SchwarzFunction((Factor("contraction",
                                                       0.875),)), 1)
    assert boundary_distance(spec) == 0


@pytest.mark.parametrize("order, c", [(4, None),
                                      (1, 1.1523652145772287e292)])
def test_scaling_past_the_double_range_is_a_domain_error(order, c):
    """c F overflows in a coefficient (order 4) or in b alone (order 1).
    At order 4, c is twice the scale at which the largest coefficient
    reaches the double range, read from the spec, while c b stays inside
    it: a pinned c at the last-bit edge would follow the rounding of Q's
    series."""
    spec = make_large_function(0.0, 1.5600029505592464e16j, 1.0,
                               identity_schwarz(), order)
    if c is None:
        top = np.finfo(float).max
        c = top / np.abs(spec.series.coeffs).max() * 2.0
        assert abs(c * spec.b) < top
    with pytest.raises(DomainError, match="double range"):
        spec.scaled(c)


def test_coefficient_modulus_past_the_double_range_is_a_domain_error():
    """Both parts are finite, |c| is not: a DomainError, with no overflow
    warning from taking the modulus."""
    with pytest.raises(DomainError, match="double range"):
        TruncatedSeries([0.5, complex(1.7e308, 1.7e308)])


def test_omitted_points_past_the_double_range_are_a_domain_error():
    """|b - a| is past the double range though b - a is finite."""
    with pytest.raises(DomainError, match="double range"):
        make_large_function(1.2711610061536464e308j, 1.2711610061536462e308,
                            40.0, identity_schwarz(), 1)


def test_distance_to_an_omitted_point_past_the_double_range():
    """|b - a| is finite, but |F(0) - b| rounds past the double range."""
    spec = make_large_function(2.9014286139642017e307 + 2.8452914858559906e307j,
                               -9.933743077279331e307 - 9.74154403262961e307j,
                               45.0, identity_schwarz(), 1)
    with pytest.raises(DomainError, match="distance from F"):
        boundary_distance(spec)


def test_sampled_circle_past_the_double_range_is_skipped():
    """F overflows at some nodes of the sampled circle; those nodes are far
    from F(0), so the minimum over the others is the distance."""
    phi = SchwarzFunction((Factor("contraction", 0.99),))
    spec = make_large_function(0.0, 1e300, 0.3, phi, 8)
    with np.errstate(over="ignore", invalid="ignore"):
        values = spec.eval((1.0 - 2.0 ** -14) * unit_ring(4096))
    assert not np.isfinite(values).all()
    f0 = spec.series[0]
    assert 0 < boundary_distance(spec) <= min(abs(f0), abs(f0 - spec.b))


def test_harmonic_pair_past_the_double_range_is_a_domain_error():
    """h' = n a_n overflows."""
    spec = make_large_function(0, 1e297, 3.0, identity_schwarz(), 64)
    with pytest.raises(DomainError, match="past the double range"):
        build_pair(spec, TruncatedSeries([0.5]))


def test_majorant_past_the_double_range_is_a_domain_error():
    with pytest.raises(DomainError, match="majorant sum exceeds"):
        bohr_operator(TruncatedSeries([1e308, 1e308]), 0.99)


def test_harmonic_tail_past_the_double_range_is_a_domain_error():
    """g is finite, but the tail bound of M(g), M(mu)(0.3) = 3e300 times
    the Cauchy tail of an |F| near 1e10, overflows."""
    spec = make_large_function(1e10, 1e10 + 1j, 2.0, identity_schwarz(), 1)
    pair = build_pair(spec, TruncatedSeries([1e301]))
    with pytest.raises(DomainError, match="harmonic-bohr: a side is past"):
        harmonic_bohr_check(pair, *modulus_bounds([spec]), 0.0)


@pytest.mark.parametrize("a, alpha, order, p", [
    (0, 1.0, 1, [1.7551462404758813e308j]),
    (4.238626339115439e-35, 1.9, 6, [0, 0, -1.7976931348623157e308j])])
def test_von_neumann_past_the_double_range_is_a_domain_error(a, alpha,
                                                             order, p):
    """The tail bound overflows to inf (a constant p), or p(F) and the
    sampled sup of |p| do (p = c w^2)."""
    b = 1j if a == 0 else 0
    spec = make_large_function(a, b, alpha, identity_schwarz(), order)
    with pytest.raises(DomainError, match="double range"):
        von_neumann_check(spec, TruncatedSeries(p), *modulus_bounds([spec]),
                          0.5)
