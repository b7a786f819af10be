import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohrlab.bohr
import bohrlab.generators
import bohrlab.geometry
import bohrlab.modular
import bohrlab.sweeps
from bohrlab.bohr import (BASE_SLACK, InequalityCheck,
                          algebra_properties_check, bohr_operator,
                          bohr_radius_solve, cauchy_tail_bound,
                          classical_bohr_check, littlewood_check,
                          main_theorem_check, von_neumann_check)
from bohrlab.errors import DomainError
from bohrlab.generators import (TAIL_RHO, Factor, SchwarzFunction,
                                _blaschke_powers, identity_schwarz,
                                make_large_function, random_large_function,
                                random_mobius_bounded, random_polynomial,
                                random_schwarz)
from bohrlab.geometry import boundary_distance
from bohrlab.harmonic import build_pair, harmonic_bohr_check
from bohrlab.modular import E_PI, j_series, q_series
from bohrlab.reporting import apply_tolerance_override
from bohrlab.series import (TOEPLITZ_MAX_ORDER, TruncatedSeries,
                            _compose_powers, _truncmul, circle_sup, compose,
                            inverse, unit_ring)
from bohrlab.sweeps import SuiteResult, run_von_neumann


# -- the verdict rule --------------------------------------------------------

#: (rhs, slack) pairs over many magnitudes; lhs sits at rhs + slack.
VERDICT_EDGES = [(0.5, 1e-9), (3.0, 1e-9), (1e-12, 1e-9), (1e-3, 1e-14),
                 (1e6, 1e-6), (1e200, 1e190), (2.0, 0.25), (0.7, 0.0),
                 (0.0, 1e-10), (1.0, -0.5)]


@pytest.mark.parametrize("rhs, slack", VERDICT_EDGES)
def test_verdict_edge_is_lhs_equal_to_rhs_plus_slack(rhs, slack):
    """A row passes at lhs = rhs + slack and fails one ulp above it, also
    when ``apply_tolerance_override`` re-judges it with ``slack``."""
    edge = rhs + slack
    above = math.nextafter(edge, math.inf)
    assert InequalityCheck("edge", edge, rhs, slack).passed
    assert not InequalityCheck("edge", above, rhs, slack).passed
    result = SuiteResult("edge", 2, rows=[
        {"check": "edge", "lhs": lhs, "rhs": rhs, "slack": 1.0,
         "pass": lhs <= rhs, "trial": t}
        for t, lhs in enumerate((edge, above))])
    apply_tolerance_override(result, slack)
    assert [row["pass"] for row in result.rows] == [True, False]
    assert [row["trial"] for row in result.failures] == [1]


# -- majorant operator -------------------------------------------------------


def test_operator_oracle():
    f = TruncatedSeries([1.0, -2.0, 4.0j])
    assert bohr_operator(f, 0.5) == pytest.approx(1 + 1 + 1)
    assert bohr_operator(f, 0.5, from_degree=1) == pytest.approx(2.0)


def test_operator_validation():
    f = TruncatedSeries([1.0])
    with pytest.raises(DomainError):
        bohr_operator(f, 1.0)
    with pytest.raises(DomainError):
        bohr_operator(f, 0.5, from_degree=2)


@given(st.floats(0, 0.9), st.lists(st.floats(-3, 3), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_operator_monotone_in_r(r, coeffs):
    f = TruncatedSeries(coeffs)
    assert bohr_operator(f, r) <= bohr_operator(f, 0.95) + 1e-12


def test_tail_bound_dominates_geometric_tail():
    # f = 1/(1-z): the degree->order tail at r = e^-pi is r^{order+1}/(1-r),
    # and 1/(1-rho) is the exact max of |f| on |z| = rho = TAIL_RHO.
    order = 10
    true_tail = E_PI ** (order + 1) / (1 - E_PI)
    bound = cauchy_tail_bound(1.0 / (1.0 - TAIL_RHO), order)
    assert true_tail <= bound
    assert bound < 1e-3


def _sampled_max(spec):
    return float(np.abs(spec.eval(TAIL_RHO * unit_ring(4096))).max())


def test_modulus_bound_dominates_sampled_max():
    for s in range(200):
        spec = random_large_function(s)
        assert spec.modulus_bound >= _sampled_max(spec), s
    for alpha in (1e-3, 0.1, math.pi, 10.0, 50.0):
        spec = make_large_function(0.0, 1.0, alpha, identity_schwarz(), 16)
        bound = spec.modulus_bound
        assert np.isfinite(bound), alpha
        assert bound >= _sampled_max(spec), alpha


def test_modulus_bound_beyond_the_double_range_is_a_domain_error():
    # At alpha = 1 the closed form is about 1.08 |b - a|, so b = 1.7e308
    # has no finite bound, and no theorem-main row is written for it.
    phi = SchwarzFunction((Factor("contraction", 0.5),))
    spec = make_large_function(0.0, 1.7e308, 1.0, phi, 64)
    with pytest.raises(DomainError, match="double range"):
        spec.modulus_bound
    with pytest.raises(DomainError, match="double range"):
        main_theorem_check(spec, boundary_distance(spec))
    spec = make_large_function(0.0, 1e307, 1.0, phi, 64)
    rep = main_theorem_check(spec, boundary_distance(spec))
    assert np.isfinite([rep.lhs, rep.rhs]).all()


def test_closed_form_tail_dominates_true_tail():
    for seed in (3, 11):
        spec = random_large_function(seed, order=200)
        mags = np.abs(spec.series.coeffs[65:201])
        true_tail = float(np.dot(mags, E_PI ** np.arange(65, 201)))
        bound = cauchy_tail_bound(spec.modulus_bound, 64)
        assert true_tail <= bound, seed


def _count_j_points(monkeypatch):
    """Sizes of the calls to the kernel that J and Q share; a J point
    inside the reduced radius is summed without it."""
    points = []
    kernel = bohrlab.modular._lambda_at

    def counting(sigma, g, deriv):
        points.append(np.size(sigma))
        return kernel(sigma, g, deriv)

    monkeypatch.setattr(bohrlab.modular, "_lambda_at", counting)
    return points


def test_inner_checks_evaluate_a_few_j_points(monkeypatch):
    """On an inner spec each check evaluates one J point, its modulus
    bound, and the boundary distance none: F(0) is the series' constant."""
    spec = make_large_function(0.0, 1.0, math.pi, identity_schwarz(), 64)
    small = spec.scaled(0.3)
    pair = build_pair(spec, TruncatedSeries([0.25j]))
    points = _count_j_points(monkeypatch)
    distance = boundary_distance(spec)
    assert points == []
    main_theorem_check(spec, distance)
    assert points == [1]
    points.clear()
    von_neumann_check(small, TruncatedSeries([0.0, 1.0]), 0.15)
    assert points == [1]
    points.clear()
    harmonic_bohr_check(pair, distance)
    assert points == [1]


def test_main_check_small_alpha_stays_finite():
    for alpha in (1e-3, 0.02, 0.1):
        spec = make_large_function(0.0, 1.0, alpha, identity_schwarz(), 64)
        rep = main_theorem_check(spec, boundary_distance(spec))
        tail = cauchy_tail_bound(spec.modulus_bound, spec.order)
        assert np.isfinite([rep.lhs, rep.rhs, tail]).all(), alpha
        assert rep.passed, alpha


def test_von_neumann_sweep_samples_each_distance_once(monkeypatch):
    calls = []
    original = bohrlab.geometry.boundary_distance

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(bohrlab.geometry, "boundary_distance", counting)
    bohrlab.sweeps._spec_and_distance.cache_clear()
    run_von_neumann(seed=7, trials=50)
    assert len(calls) == 50


# -- radius solver -----------------------------------------------------------


def test_radius_recovers_exp_minus_pi():
    res = bohr_radius_solve()
    assert abs(res.radius - math.exp(-math.pi)) < 1e-9
    assert abs(res.residual) < 1e-12


def test_radius_bad_bracket():
    with pytest.raises(DomainError):
        bohr_radius_solve(order=50)


# -- subordination / coefficient domination ----------------------------------


def test_littlewood_identity_is_tight():
    rep = littlewood_check(identity_schwarz(), 40)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)


def test_littlewood_random_schwarz():
    for seed in range(6):
        phi = random_schwarz(seed, 1 + seed % 4)
        rep = littlewood_check(phi, 64, kmax=40)
        assert rep.passed, phi.text()
        assert rep.max_ratio <= 1.0 + BASE_SLACK


@pytest.mark.parametrize("kmax", [0, -3])
def test_littlewood_rejects_kmax_below_one(kmax):
    with pytest.raises(DomainError):
        littlewood_check(identity_schwarz(), 64, kmax)


def _phi_series(phi, order):
    """phi's series: the coefficients of z pulled back through phi."""
    z = (np.arange(order + 1) == 1).astype(complex)
    return TruncatedSeries(phi.pull_back(z, order))


def _majorant_series(order):
    """-J(-z) to ``order``, as littlewood_check reads it: |J_k|."""
    return TruncatedSeries(np.abs(j_series(order).coeffs))


@pytest.mark.parametrize("factors", [
    (Factor("identity"),),
    (Factor("rotation", 2.1), Factor("power", 2)),
    (Factor("contraction", 0.6), Factor("blaschke", 0.5 - 0.3j)),
    (Factor("blaschke", 0.7j), Factor("power", 3), Factor("rotation", 0.4)),
    (Factor("power", 2), Factor("blaschke", -0.4 + 0.2j),
     Factor("contraction", 0.45), Factor("blaschke", 0.2 + 0.6j)),
])
def test_littlewood_at_kmax_matches_full_order(factors):
    """Composing only to kmax reads the ratios of the order-64 composition
    up to rounding: each side is within 3 (N+1)(top+1) eps of the majorant
    (|outer| o |inner|)_n of the exact composition, the budget of
    test_compose_within_rounding_budget_of_exact, at N = top = kmax and at
    N = top = 64.  Every kmax up to 40 is checked, since the largest ratio
    tends to sit at a low degree; the budget at kmax = 40 covers them all."""
    order, kmax = 64, 40
    phi = SchwarzFunction(factors)
    major = _majorant_series(order)
    inner = _phi_series(phi, order)
    full = compose(major.coeffs, inner.coeffs, order)
    ratios = np.abs(full[1 : kmax + 1]) / major.coeffs[1 : kmax + 1].real
    majorant = np.zeros(order + 1)
    for c in major.coeffs[::-1]:
        majorant = np.convolve(majorant, np.abs(inner.coeffs))[: order + 1]
        majorant[0] += abs(c)
    eps = np.finfo(float).eps
    budget = 3 * eps * ((kmax + 1) ** 2 + (order + 1) ** 2) \
        * majorant[1 : kmax + 1] / major.coeffs[1 : kmax + 1].real
    for k in range(1, kmax + 1):
        got = littlewood_check(phi, order, k).lhs
        assert (ratios[:k] - budget[:k]).max() <= got \
            <= (ratios[:k] + budget[:k]).max(), k


@pytest.mark.parametrize("factors,blaschke", [
    ((Factor("identity"),), 0),
    ((Factor("rotation", 2.1), Factor("power", 2),
      Factor("contraction", 0.6)), 0),
    ((Factor("blaschke", 0.5 - 0.3j),), 1),
    ((Factor("power", 3), Factor("blaschke", 0.7j), Factor("identity"),
      Factor("blaschke", -0.2 + 0.1j)), 2),
    ((Factor("power", 2), Factor("blaschke", 0.1 + 0.4j)), 1),
])
def test_only_blaschke_factors_compose(monkeypatch, factors, blaschke):
    """Q and -J(-z) are pulled back through phi one factor at a time; only
    a Blaschke factor costs a general series composition, last factor
    first, at the degree the factors applied before it keep: order over
    the product of their power exponents (for (power(2), blaschke), 32
    for Q at order 64 and 20 for -J(-z) at kmax 40).  At these degrees
    each composition reads the factor's shared power table, built once
    per Blaschke parameter across both pull-backs, and none calls
    ``compose``."""
    calls = []

    def counting(outer, powers, order):
        calls.append(order)
        return _compose_powers(outer, powers, order)

    def refuse(*args):
        raise AssertionError("a pull-back at degree <= 64 called compose")

    def stage_degrees(order):
        degrees, v = [], 1
        for f in factors:
            if f.kind == "blaschke":
                degrees.append(order // v)
            elif f.kind == "power":
                v *= int(f.param.real)
        return degrees[::-1]

    monkeypatch.setattr(bohrlab.generators, "_compose_powers", counting)
    monkeypatch.setattr(bohrlab.generators, "compose", refuse)
    _blaschke_powers.cache_clear()
    phi = SchwarzFunction(factors)
    make_large_function(0.0, 1.0, 1.7, phi, 64)
    assert len(calls) == blaschke
    assert calls == stage_degrees(64)
    calls.clear()
    littlewood_check(phi, 64, 40)
    assert len(calls) == blaschke
    assert calls == stage_degrees(40)
    info = _blaschke_powers.cache_info()
    assert (info.misses, info.hits) == (blaschke, blaschke)


def _seed7_blaschke_parameters(ops):
    """The Blaschke parameters of the first ``ops`` seed-7 spec-build
    operations, in the order their pull-backs read them, after running
    each operation's two pull-backs."""
    params = []
    for i in range(ops):
        spec = random_large_function(7 * 1_000_003 + i, 64)
        littlewood_check(spec.phi, 64, 40)
        params += [f.param for f in spec.phi.factors[::-1]
                   if f.kind == "blaschke"]
    return params


def test_blaschke_power_tables_are_bounded():
    """Pull-backs keep the power tables of the last eight Blaschke
    parameters, each exactly the (isqrt(64) + 1) x 65 rows u^0..u^8 and
    no O(N^2) array; a pull-back above ``TOEPLITZ_MAX_ORDER`` keeps
    none."""
    cache = _blaschke_powers
    assert cache.cache_info().maxsize == 8
    cache.cache_clear()
    params = _seed7_blaschke_parameters(300)
    info = cache.cache_info()
    assert info.currsize <= 8 and info.misses > 8
    kept = list(dict.fromkeys(params[::-1]))[:8]
    for c in kept:
        table = cache(c)
        assert table.shape == (math.isqrt(64) + 1, 65)
        assert table.dtype == complex and table.base is None
        assert not table.flags.writeable
    assert cache.cache_info().hits == info.hits + len(kept)
    before = cache.cache_info()
    outer = np.ones(TOEPLITZ_MAX_ORDER + 2, dtype=complex)
    Factor("blaschke", 0.3 + 0.2j).pull_back(outer, TOEPLITZ_MAX_ORDER + 1)
    assert cache.cache_info() == before


def test_blaschke_pull_back_bits_do_not_depend_on_the_cache():
    """A pull-back reads the same table bits whichever call built it: each
    degree gives the same array with the table cold and warm, and
    ``littlewood_check`` and ``make_large_function`` give the same bits
    before and after each other on one phi."""
    f = Factor("blaschke", 0.45 - 0.6j)
    rng = np.random.default_rng(5)
    outer = rng.standard_normal(65) + 1j * rng.standard_normal(65)
    degrees = (64, 40, 21, 8, 7, 1)
    cold = {}
    for d in degrees:
        _blaschke_powers.cache_clear()
        cold[d] = f.pull_back(outer, d)
    for d in degrees[::-1]:
        assert np.array_equal(f.pull_back(outer, d), cold[d]), d
    phi = SchwarzFunction((Factor("blaschke", 0.3 + 0.5j), Factor("power", 2),
                           Factor("blaschke", -0.6 + 0.1j)))
    _blaschke_powers.cache_clear()
    lhs = littlewood_check(phi, 64, 40).lhs
    spec = make_large_function(0.2, 1.1j, 1.7, phi, 64)
    assert littlewood_check(phi, 64, 40).lhs == lhs
    _blaschke_powers.cache_clear()
    again = make_large_function(0.2, 1.1j, 1.7, phi, 64)
    assert np.array_equal(again.series.coeffs, spec.series.coeffs)


@pytest.mark.parametrize("factors,q_order", [
    ((Factor("power", 2), Factor("identity"), Factor("power", 3)), 10),
    ((Factor("blaschke", 0.3 - 0.2j), Factor("power", 2)), 32),
    ((Factor("rotation", 0.4), Factor("blaschke", 0.5j),
      Factor("contraction", 0.5), Factor("identity")), 64),
])
def test_q_is_built_only_to_the_degree_phi_keeps(monkeypatch, factors,
                                                 q_order):
    """F reads Q only to degree order // v(phi), so Q's coefficient array
    is built to it, by ``generators.q_series``: the one route to Q's
    series, which ``benchmarks/tracer.py`` counts."""
    orders = []

    def recording(alpha, order):
        orders.append(order)
        return q_series(alpha, order)

    monkeypatch.setattr(bohrlab.generators, "q_series", recording)
    make_large_function(0.0, 1.0, 1.7, SchwarzFunction(factors), 64)
    assert orders == [q_order]


def test_valuation_above_the_order_keeps_only_q0():
    """power(3) four times is O(z^81): at order 64 only Q(0) reaches F."""
    order, a, b = 64, 0.2 - 0.1j, 1.5 + 0.3j
    phi = SchwarzFunction((Factor("power", 3),) * 4)
    assert phi.valuation == 81
    spec = make_large_function(a, b, 1.3, phi, order)
    assert spec.order == spec.series.order == order
    want = np.zeros(order + 1, dtype=complex)
    want[0] = a + (b - a) * q_series(1.3, 1)[0]
    assert np.array_equal(spec.series.coeffs, want)
    assert np.array_equal(_phi_series(phi, order).coeffs,
                          np.zeros(order + 1, dtype=complex))
    assert littlewood_check(phi, order, 40).lhs == 0.0


def _factor_series(f, order):
    """A factor's series, read as the series of the one-factor chain."""
    return _phi_series(SchwarzFunction((f,)), order)


def _factor_series_route(outer, phi, order):
    """outer(phi(z)) by composing the factor series into phi's series and
    then composing outer with it."""
    inner = _factor_series(phi.factors[0], order)
    for f in phi.factors[1:]:
        inner = TruncatedSeries(compose(_factor_series(f, order).coeffs,
                                        inner.coeffs, order))
    return compose(outer.coeffs, inner.coeffs, order)


def test_pull_back_matches_the_factor_series_route():
    """Q(phi) and -J(-phi) against the factor-series route over seeded
    recipes of depth 1..4 covering all five kinds, within the budget of
    test_compose_within_rounding_budget_of_exact at N = top = 64:
    3 (N+1)^2 eps of the majorant, here |outer| pulled back through the
    factors' |series|, which bounds the rounding of both routes."""
    order, eps = 64, np.finfo(float).eps
    major = _majorant_series(order)
    kinds = set()
    for seed in range(40):
        phi = random_schwarz(seed, 1 + seed % 4)
        kinds.update(f.kind for f in phi.factors)
        alpha = 0.8 + 0.06 * seed
        q = TruncatedSeries(q_series(alpha, order))
        got = (make_large_function(0.0, 1.0, alpha, phi, order).series.coeffs,
               phi.pull_back(major.coeffs, order))
        for outer, new in zip((q, major), got):
            old = _factor_series_route(outer, phi, order)
            majorant = np.abs(outer.coeffs)
            for f in reversed(phi.factors):
                majorant = compose(
                    majorant, np.abs(_factor_series(f, order).coeffs),
                    order).real
            budget = 3 * (order + 1) ** 2 * eps * majorant
            assert np.all(np.abs(new - old) <= budget), (seed, phi.text())
    assert kinds == {"identity", "rotation", "power", "contraction",
                     "blaschke"}


def test_power_chain_moves_coefficients_exactly():
    """power(2) . identity . power(3) sends [z^j] to degree 6 j, bit for
    bit, for Q and for -J(-z).  F reads Q only to degree order // 6, so
    Q's reference is built to that degree."""
    order = 64
    phi = SchwarzFunction((Factor("power", 2), Factor("identity"),
                           Factor("power", 3)))
    for outer, got in (
            (TruncatedSeries(q_series(1.3, order // 6)),
             make_large_function(0.0, 1.0, 1.3, phi, order).series),
            (_majorant_series(order),
             TruncatedSeries(phi.pull_back(
                 np.abs(j_series(order).coeffs), order)))):
        want = np.zeros(order + 1, dtype=complex)
        want[::6] = outer.coeffs[: order // 6 + 1]
        assert np.array_equal(got.coeffs, want)


# -- the main inequality -----------------------------------------------------


def test_main_check_passes_for_central_spec():
    spec = make_large_function(0.0, 1.0, math.pi, identity_schwarz(), 64)
    rep = main_theorem_check(spec, boundary_distance(spec))
    assert rep.passed
    assert rep.rhs == pytest.approx(0.5, abs=1e-12)


def test_main_check_fails_near_puncture():
    # With a small covering parameter the base point sits close to an
    # omitted value and the coefficient sum overshoots the distance: the
    # asserted inequality is genuinely false there, and the check must
    # report that rather than mask it.
    spec = make_large_function(0.0, 1.0, 1.0, identity_schwarz(), 64)
    rep = main_theorem_check(spec, boundary_distance(spec))
    assert not rep.passed
    assert rep.lhs > rep.rhs * 1.2


def test_main_check_scale_invariance():
    spec = make_large_function(0.0, 1.0, math.pi, identity_schwarz(), 64)
    scaled = spec.scaled(3.0)
    rep1 = main_theorem_check(spec, boundary_distance(spec))
    rep2 = main_theorem_check(scaled, boundary_distance(scaled))
    assert rep2.lhs == pytest.approx(3 * rep1.lhs, rel=1e-10)
    assert rep2.rhs == pytest.approx(3 * rep1.rhs, rel=1e-10)


# -- polynomial calculus -----------------------------------------------------


def test_von_neumann_series_is_p_of_f(monkeypatch):
    """The series whose majorant the check takes is p(F): near 0 it sums
    to p(F(z)) for the identity, w^2 and a random polynomial, the three
    kinds the von-neumann suite draws."""
    composed = []
    operator = bohrlab.bohr.bohr_operator

    def capture(f, r, from_degree=0):
        composed.append(f)
        return operator(f, r, from_degree)

    monkeypatch.setattr(bohrlab.bohr, "bohr_operator", capture)
    z = np.concatenate([r * unit_ring(64) for r in (0.01, 0.03, 0.05)])
    for seed in (1, 2, 5):          # phi inner for 1 and 2, not for 5
        spec = random_large_function(seed, 64)
        d = boundary_distance(spec)
        c = 0.3 / max(operator(spec.series, E_PI), d)
        spec = spec.scaled(c)
        f_z = spec.eval(z)
        for p in (TruncatedSeries([0.0, 1.0]),
                  TruncatedSeries([0.0, 0.0, 1.0]),
                  random_polynomial(seed, 2 + seed)):
            composed.clear()
            von_neumann_check(spec, p, d * c)
            assert len(composed) == 1 and composed[0].order == 64
            want = np.polyval(p.coeffs[::-1], f_z)
            gap = np.abs(composed[0].eval(z) - want).max()
            assert gap <= 1e-14 * max(1.0, np.abs(want).max()), (seed, p)


def test_polynomial_sup_oracle():
    p = TruncatedSeries([1.0, 1.0])
    assert circle_sup(p, 1.0, 4096) == pytest.approx(2.0, rel=1e-6)


def test_von_neumann_normalized_spec():
    spec = make_large_function(0.0, 1.0, math.pi, identity_schwarz(), 64)
    m = bohr_operator(spec.series, E_PI)
    d = boundary_distance(spec)
    c = 0.3 / max(m, d)
    spec = spec.scaled(c)
    for p in (TruncatedSeries([0.0, 1.0]), TruncatedSeries([0.0, 0.0, 1.0]),
              TruncatedSeries([0.5, -0.25, 0.125])):
        rep = von_neumann_check(spec, p, d * c)
        assert rep.passed, rep


def test_von_neumann_hypothesis_guard():
    spec = make_large_function(0.0, 1.0, math.pi, identity_schwarz(), 64)
    d = boundary_distance(spec)
    with pytest.raises(DomainError, match="is not < 1"):
        von_neumann_check(spec.scaled(10.0), TruncatedSeries([0.0, 1.0]),
                          10.0 * d)


def _von_neumann_trials(monkeypatch, seed=7):
    """(spec, p, row) of each von-neumann trial of a seed's sweep, with the
    spec as the sweep scaled it."""
    trials = []
    check = bohrlab.bohr.von_neumann_check

    def capture(spec, p, distance):
        rep = check(spec, p, distance)
        trials.append((spec, p, rep))
        return rep

    monkeypatch.setattr(bohrlab.bohr, "von_neumann_check", capture)
    run_von_neumann(seed)
    return trials


def test_von_neumann_sides_for_the_identity_and_the_square(monkeypatch):
    """For p = w the lhs is M(F)(e^-pi), constant term included, plus the
    Cauchy tail of |F| <= ``modulus_bound``, bit for bit; for p = w and
    p = w^2 the rhs, |p| sampled on the unit circle, is 1 up to rounding."""
    seen = {"w": 0, "w^2": 0}
    for spec, p, rep in _von_neumann_trials(monkeypatch):
        if p.label not in seen:
            continue
        seen[p.label] += 1
        assert abs(rep.rhs - 1.0) <= 4e-16, p.label
        if p.label == "w":
            assert rep.lhs == (bohr_operator(spec.series, E_PI, 0)
                               + cauchy_tail_bound(spec.modulus_bound,
                                                   spec.order))
    assert seen == {"w": 17, "w^2": 17}


def test_von_neumann_rhs_samples_drawn_polynomials_from_below(monkeypatch):
    """The rhs of a drawn polynomial, |p| at 4096 nodes, is at most the
    sample at 65,536 nodes, whose every 16th node is one of the 4096, and
    that is at most sum |p_k|."""
    assert np.array_equal(unit_ring(65536)[::16], unit_ring(4096))
    drawn = 0
    for _, p, rep in _von_neumann_trials(monkeypatch):
        if p.label in ("w", "w^2"):
            continue
        drawn += 1
        fine = float(np.abs(p.eval(unit_ring(65536))).max())
        assert rep.rhs <= fine <= float(np.abs(p.coeffs).sum()), p.coeffs
    assert drawn == 16


# -- classical sanity and algebra -------------------------------------------


def test_classical_bohr_on_mobius():
    for seed in range(10):
        rep = classical_bohr_check(random_mobius_bounded(seed))
        assert rep.passed
        assert rep.lhs <= 1.0 + BASE_SLACK


@pytest.mark.parametrize("order", [1, 4, 16])
def test_classical_bohr_tail_bounds_the_dropped_terms(order):
    """The lhs is the prefix's majorant plus r^{N+1} / (1 - r) at r = 1/3,
    and so at least the majorant of the whole map (read at order 200)."""
    r = 1.0 / 3.0
    for seed in range(10):
        f = random_mobius_bounded(seed, order)
        lhs = classical_bohr_check(f).lhs
        assert lhs == bohr_operator(f, r) + r ** (order + 1) / (1.0 - r)
        assert lhs >= bohr_operator(random_mobius_bounded(seed, 200), r)


def test_classical_bohr_is_sharp_near_one():
    # f = (c - z)/(1 - c z) with c -> 1 pushes M(f)(1/3) to 1.
    c = 0.995
    num = np.array([c, -1.0])
    den = inverse(np.array([1.0, -c]), 200)
    f = TruncatedSeries(_truncmul(num, den, 200))
    rep = classical_bohr_check(f)
    assert rep.passed
    assert rep.lhs > 0.99


@given(st.lists(st.floats(-2, 2), min_size=1, max_size=6),
       st.lists(st.floats(-2, 2), min_size=1, max_size=6),
       st.floats(0.05, 0.9))
@settings(max_examples=60, deadline=None)
def test_algebra_properties(a, b, r):
    f, g = TruncatedSeries(a), TruncatedSeries(b)
    for rep in algebra_properties_check(f, g, r):
        assert rep.passed, rep
