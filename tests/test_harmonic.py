import math

import numpy as np
import pytest

import bohrlab.generators
import bohrlab.geometry
import bohrlab.harmonic
import bohrlab.sweeps
from bohrlab.bohr import bohr_operator, cauchy_tail_bound, main_theorem_check
from bohrlab.generators import (TAIL_RHO, identity_schwarz,
                                make_large_function, random_large_function,
                                random_mobius_bounded)
from bohrlab.geometry import boundary_distance
from bohrlab.harmonic import (HarmonicPair, build_pair, harmonic_bohr_check,
                              majorant_domination_check)
from bohrlab.modular import E_PI
from bohrlab.reporting import apply_tolerance_override
from bohrlab.series import TruncatedSeries
from bohrlab.sweeps import (SuiteResult, _trial_seed, harmonic_trial,
                            run_suite)


def central_spec(order=64):
    return make_large_function(0.0, 1.0, math.pi, identity_schwarz(), order)


def test_g_is_integral_of_mu_h_prime():
    spec = central_spec()
    mu = TruncatedSeries([0.3 + 0.1j])
    pair = build_pair(spec, mu)
    assert pair.g[0] == 0
    n = np.arange(1, spec.order + 1)
    gprime = pair.g.coeffs[1:] * n
    hprime = spec.series.coeffs[1:] * n
    assert np.allclose(gprime, np.convolve(mu.coeffs, hprime)[: spec.order])


def test_pair_requires_vanishing_g():
    spec = central_spec()
    with pytest.raises(ValueError):
        HarmonicPair(spec, TruncatedSeries([1.0]), TruncatedSeries([0.0]))


def test_zero_dilatation_reduces_to_analytic_case():
    spec = central_spec()
    pair = build_pair(spec, TruncatedSeries([0.0]))
    rep = harmonic_bohr_check(pair, boundary_distance(spec))
    base = main_theorem_check(spec, boundary_distance(spec))
    assert rep.passed
    assert bohr_operator(pair.g, E_PI, from_degree=1) == 0.0
    assert rep.lhs == base.lhs
    assert rep.rhs == pytest.approx(base.rhs, abs=1e-15)


def test_constant_dilatation_scales_the_bound():
    spec = central_spec()
    c = 0.6
    rep0 = harmonic_bohr_check(build_pair(spec, TruncatedSeries([0.0])),
                               boundary_distance(spec))
    pair = build_pair(spec, TruncatedSeries([c]))
    rep = harmonic_bohr_check(pair, boundary_distance(spec))
    assert rep.passed
    # The rhs is (1 + sup|mu|) d, and sup|mu| = c.
    assert rep.rhs / rep0.rhs - 1 == pytest.approx(c, abs=1e-12)
    assert rep.rhs == pytest.approx((1 + c) * rep0.rhs, rel=1e-12)
    # g = c (h - a_0), so the co-analytic majorant is exactly c times the
    # analytic one.
    assert bohr_operator(pair.g, E_PI, from_degree=1) == pytest.approx(
        c * bohr_operator(pair.spec.series, E_PI, from_degree=1), rel=1e-12)


def test_mobius_dilatation_passes_for_good_specs():
    for seed in (1, 2, 3):
        spec = random_large_function(seed, order=64)
        base = main_theorem_check(spec, boundary_distance(spec))
        if not base.passed:
            continue  # inherits the genuine counterexample of the base case
        mu = random_mobius_bounded(seed + 50, order=64)
        rep = harmonic_bohr_check(build_pair(spec, mu),
                                  boundary_distance(spec))
        assert rep.passed, (seed, rep)


def test_g_tail_bound_dominates_coefficients_and_true_tail():
    """On the seed-7 harmonic trials, |g_n| <= M(mu)(rho) M / rho^n for the
    stored g, and rebuilt at order 300 the tail of M(g) past the spec's
    order N is at most M(mu)(rho) times h's Cauchy tail, as
    ``harmonic_bohr_check`` adds."""
    for t in range(50):
        spec, mu = harmonic_trial(_trial_seed(7, t), t)
        order = spec.order
        n = np.arange(1, order + 1)
        m, m_mu = spec.modulus_bound, bohr_operator(mu, TAIL_RHO)
        g = build_pair(spec, mu).g.coeffs
        assert np.all(np.abs(g[1:]) <= m_mu * m / TAIL_RHO ** n), t
        spec300 = make_large_function(spec.a, spec.b, spec.alpha, spec.phi,
                                      300)
        g300 = build_pair(spec300, mu).g.coeffs
        tail = float(np.dot(np.abs(g300[order + 1:]),
                            E_PI ** np.arange(order + 1, 301)))
        assert tail <= m_mu * cauchy_tail_bound(m, order), t


def test_g_tail_is_the_mu_majorant_times_h_tail(monkeypatch):
    """The tails are below an ulp of the lhs, so h's is forced to 1: the
    lhs then adds 1 + M(mu)(TAIL_RHO) to the two majorant sums."""
    monkeypatch.setattr(bohrlab.harmonic, "cauchy_tail_bound",
                        lambda m_rho, order: 1.0)
    mu = random_mobius_bounded(9, order=64)
    pair = build_pair(central_spec(), mu)
    sums = (bohr_operator(pair.spec.series, E_PI, from_degree=1)
            + bohr_operator(pair.g, E_PI, from_degree=1))
    assert harmonic_bohr_check(pair, 0.0).lhs - sums == pytest.approx(
        1.0 + bohr_operator(mu, TAIL_RHO), rel=1e-12)


def test_majorant_domination_for_a_mobius_dilatation():
    spec = central_spec()
    mu = random_mobius_bounded(9, order=64)
    pair = build_pair(spec, mu)
    rep = majorant_domination_check(pair, 0.2)
    assert rep.passed
    assert rep.rhs == 0.0
    # |mu| <= 1 forces M(g) <= M(h - a_0) termwise after integration.
    assert rep.lhs == bohr_operator(pair.g, 0.2, from_degree=1) \
        - bohr_operator(pair.spec.series, 0.2, from_degree=1)
    assert rep.lhs < 0


def test_identity_row_holds_the_domination():
    """g = 2 (h - h_0) with mu = 0 breaks M(g) <= M(h - h_0).  The row
    must say so in its own numbers, so that re-judging it at its own slack
    keeps it failing."""
    spec = central_spec()
    h = spec.series
    g = 2.0 * h.coeffs
    g[0] = 0.0
    pair = HarmonicPair(spec, TruncatedSeries(g), TruncatedSeries([0.0]))
    rep = majorant_domination_check(pair, 0.2)
    assert not rep.passed
    assert rep.lhs == pytest.approx(bohr_operator(pair.g, 0.2, from_degree=1)
                                    - bohr_operator(h, 0.2, from_degree=1))
    result = SuiteResult("harmonic", 1, [rep.row()])
    apply_tolerance_override(result, rep.slack)
    assert result.rows == [rep.row()]
    assert not result.passed


@pytest.mark.parametrize("seed", [7, 8, 11])
def test_every_dilatation_the_sweep_draws_is_bounded_by_one(seed):
    """mu = 0, a constant c with |c| < 1, or a Moebius map whose
    coefficients are those of (c + u z)/(1 + conj(c) u z) with |c| < 1 and
    |u| = 1, read back as c = mu_0 and u = mu_1/(1 - |c|^2)."""
    kinds = []
    for row in run_suite("harmonic", seed).rows[::2]:
        mu = np.array(row["mu_coeffs"])
        kind = row["mu"].split("(")[0]
        kinds.append(kind)
        if kind == "mu=0":
            assert list(mu) == [0.0]
        elif kind == "mu=const":
            assert mu.size == 1 and abs(mu[0]) < 1
        else:
            assert kind == "mu=mobius"
            c = mu[0]
            u = mu[1] / (1 - abs(c) ** 2)
            assert abs(c) < 1
            assert abs(u) == pytest.approx(1.0, abs=1e-15)
            n = np.arange(1, mu.size)
            assert np.allclose(mu[1:], u * (1 - abs(c) ** 2)
                               * (-np.conj(c) * u) ** (n - 1),
                               rtol=1e-13, atol=0)
    assert set(kinds) == {"mu=0", "mu=const", "mu=mobius"}


@pytest.mark.parametrize("seed", [7, 8, 11])
def test_every_stored_dilatation_has_majorant_at_most_one(seed):
    """The hypothesis of the domination row: M(mu_N)(t) <= 1 for t <= 1/3,
    mu_N the stored prefix of each drawn mu.  M grows with t, so t = 1/3
    decides it; the worst is 0.99907, at seed 7 trial 28, while the
    Moebius prefixes exceed 1 on the unit circle."""
    for t in range(50):
        mu = harmonic_trial(_trial_seed(seed, t), t)[1]
        assert bohr_operator(mu, 1.0 / 3.0) <= 1.0, t


@pytest.mark.parametrize("seed", [7, 8, 11])
def test_majorant_domination_is_checked_on_every_trial(seed):
    """One majorant-domination row per trial, each M(g)(0.2) - M(h -
    h(0))(0.2) of its own pair and passing; seed 8 trial 41 and seed 11
    trial 47, whose truncated mu exceeds 1 near the circle, among them."""
    rows = [row for row in run_suite("harmonic", seed).rows
            if row["check"] == "majorant-domination"]
    assert [row["trial"] for row in rows] == list(range(50))
    for row in rows:
        pair = build_pair(*harmonic_trial(row["seed"], row["trial"]))
        assert row["lhs"] == bohr_operator(pair.g, 0.2, from_degree=1) \
            - bohr_operator(pair.spec.series, 0.2, from_degree=1)
        assert row["pass"], row
        assert row["lhs"] <= 0.0


def test_harmonic_sweep_reuses_von_neumann_trials(monkeypatch):
    """Both sweeps draw the same spec per trial seed: after von-neumann,
    harmonic builds and samples nothing again, and its rows are those of a
    cold run."""
    bohrlab.sweeps._spec_and_distance.cache_clear()
    cold = run_suite("harmonic", 7).rows
    bohrlab.sweeps._spec_and_distance.cache_clear()
    run_suite("von-neumann", 7)
    calls = []
    for module, name in ((bohrlab.geometry, "boundary_distance"),
                         (bohrlab.generators, "make_large_function")):
        def counting(*args, _original=getattr(module, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(module, name, counting)
    warm = run_suite("harmonic", 7).rows
    assert calls == []
    assert warm == cold
