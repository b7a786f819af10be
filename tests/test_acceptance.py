"""Acceptance gate: one test per criterion, one printed verdict line each.

Criteria 6 and 9 sweep the majorant-vs-distance inequality over randomized
families.  That inequality is genuinely false when the base point sits close
to an omitted value (see the repository notes), so these criteria do not
assert that it holds.  They assert that the sweep's verdicts are right:

- the README counterexample Q_1 is flagged, with lhs/rhs equal to the
  50-digit value 1.2640390933;
- every failing trial replays exactly from its recorded seed;
- an independent 50-digit oracle (mpmath theta functions, no bohrlab
  series or J code) confirms every failure whose boundary distance is
  exact, and the exact-distance pass with the smallest margin;
- failures whose distance comes from circle sampling are reported as
  uncertified: such a distance can fall far below the true one.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from bohrlab.bohr import (BASE_SLACK, bohr_operator, bohr_radius_solve,
                          cauchy_tail_bound, main_theorem_check)
from bohrlab.generators import (identity_schwarz, make_large_function,
                                modulus_bounds)
from bohrlab.geometry import boundary_distance
from bohrlab.harmonic import (build_pair, harmonic_bohr_check,
                              majorant_domination_check)
from bohrlab.modular import E_PI, a_coeffs, j_coeffs_exact, j_eval
from bohrlab.series import TruncatedSeries
from bohrlab.sweeps import harmonic_trial, run_suite, theorem4_spec

try:
    import mpmath
except ImportError:     # criteria 6 and 9 skip without their oracle
    mpmath = None

SEED = 7

#: lhs/rhs of the main inequality for Q_1 = J(exp(-(1+z)/(1-z))) at
#: r = e^-pi, from 50-digit theta-function arithmetic.
README_RATIO = 1.2640390933

#: A float majorant or distance must match the oracle to this relative
#: tolerance (measured: 1e-13).
AGREE_RTOL = 1e-9

#: The harmonic check samples sup|mu| on |z| = r at 1024 points, which
#: undershoots the closed form by up to about 1e-6 relative.
SUP_MU_RTOL = 1e-5

#: The oracle confirms a verdict when lhs - rhs has the verdict's sign and
#: exceeds the float check's own error budget this many times over.
FAR = 1e3


# ---------------------------------------------------------------------------
# 50-digit oracle


@dataclass(frozen=True)
class OracleSides:
    lhs: float      # M(h - h(0))(r) + M(g)(r)
    rhs: float      # (1 + sup_{|z|=r} |mu|) dist(F(0), {a, b})
    err: float      # bound on the oracle's aliasing and truncation in lhs


def _mp_phi(factors, z):
    """The Schwarz recipe evaluated in mpmath, factor by factor."""
    for f in factors:
        if f.kind == "rotation":
            z = mpmath.expj(f.param.real) * z
        elif f.kind == "power":
            z = z ** int(f.param.real)
        elif f.kind == "contraction":
            z = f.param.real * z
        elif f.kind == "blaschke":
            c = mpmath.mpc(f.param)
            z = z * (z + c) / (1 + mpmath.conj(c) * z)
    return z


def _mp_j(q):
    """J in the nome: the elliptic lambda (theta_2 / theta_3)^4."""
    return (mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4


def _mu_closed_form(mu, order: int, r):
    """Exact coefficients of a constant or Moebius dilatation and its
    maximum modulus on |z| = r, identified from the recorded float
    coefficients (mu_0 = c, mu_1 = u (1 - |c|^2))."""
    mu = [complex(m) for m in mu]
    c = mpmath.mpc(mu[0])
    if not any(mu[1:]):
        return [c] + [mpmath.mpc(0)] * order, abs(c)
    u = mu[1] / (1.0 - abs(mu[0]) ** 2)
    u = mpmath.mpc(u / abs(u))
    exact = [c] + [u * (-mpmath.conj(c) * u) ** (n - 1) * (1 - abs(c) ** 2)
                   for n in range(1, order + 1)]
    gap = max(abs(complex(e) - m) for e, m in zip(exact, mu))
    assert gap <= 1e-12, "mu is neither constant nor Moebius (gap %.3g)" % gap
    return exact, (abs(c) + r) / (1 + abs(c) * r)


def oracle(spec, mu=(0.0,), nodes: int = 64) -> OracleSides:
    """Both sides of the harmonic bound (mu = 0: the main inequality) at
    r = e^-pi, at 50 digits and independently of bohrlab's numerics.

    F = a + (b - a) J(exp(-alpha (1 + phi)/(1 - phi))) is sampled through
    theta functions on |z| = 1/4; a discrete Cauchy sum gives h_0..h_K with
    K = nodes/2, and g_n = (1/n) sum_k k h_k mu_{n-k}.  With M_R the sampled
    max of |F - F(0)| on |z| = 1/2 (so |h_n| <= M_R 2^n, and |mu_j| <= 1),
    aliasing and the tail past K are bounded in `err`.
    """
    with mpmath.workdps(50):
        a, b = mpmath.mpc(spec.a), mpmath.mpc(spec.b)
        alpha = mpmath.mpf(spec.alpha.alpha)

        def f(z):
            w = _mp_phi(spec.phi.factors, z)
            return a + (b - a) * _mp_j(mpmath.exp(-alpha * (1 + w) / (1 - w)))

        r, rho, big = mpmath.exp(-mpmath.pi), mpmath.mpf(0.25), mpmath.mpf(0.5)
        roots = [mpmath.expj(2 * mpmath.pi * k / nodes) for k in range(nodes)]
        vals = [f(rho * w) for w in roots]
        K = nodes // 2
        h = [mpmath.fsum(v * mpmath.conj(roots[n * k % nodes])
                         for k, v in enumerate(vals)) / nodes / rho ** n
             for n in range(K + 1)]
        f0 = f(mpmath.mpc(0))
        m_big = max(abs(f(big * w) - f0) for w in roots)
        mu_n, sup_mu = _mu_closed_form(mu, K, r)
        g = [mpmath.fsum(k * h[k] * mu_n[n - k] for k in range(1, n + 1)) / n
             for n in range(1, K + 1)]
        lhs = (mpmath.fsum(abs(h[n]) * r ** n for n in range(1, K + 1))
               + mpmath.fsum(abs(g[n - 1]) * r ** n for n in range(1, K + 1)))
        x, alias = r / big, (rho / big) ** nodes / (1 - (rho / big) ** nodes)
        err = m_big * (
            alias * mpmath.fsum((n + 3) / 2 * x ** n for n in range(1, K + 1))
            + (K + 4) * x ** (K + 1) / (1 - x) ** 2)
        rhs = (1 + sup_mu) * min(abs(f0 - a), abs(f0 - b))
        return OracleSides(float(lhs), float(rhs), float(err))


def confirms(o: OracleSides, lhs: float, rhs: float, budget: float,
             failed: bool, rhs_rtol: float = AGREE_RTOL) -> bool:
    """The oracle reproduces the float sides and agrees with the verdict by
    far more than the float check's error budget."""
    agree = (abs(lhs - o.lhs) <= AGREE_RTOL * o.lhs + o.err
             and abs(rhs - o.rhs) <= rhs_rtol * o.rhs)
    gap = (o.lhs - o.rhs) if failed else (o.rhs - o.lhs)
    return agree and gap > FAR * budget + o.err


def theorem_budget(spec) -> float:
    """Error budget of a theorem-main row: its Cauchy tail plus the
    slack."""
    return cauchy_tail_bound(modulus_bounds([spec])[0],
                             spec.order) + BASE_SLACK


def _bound_and_distance(spec):
    """The bound on |F| and the boundary distance a sweep passes a check."""
    return modulus_bounds([spec])[0], boundary_distance(spec)


def readme_counterexample():
    """The README spec Q_1: flagged, with the 50-digit lhs/rhs."""
    spec = make_large_function(0, 1, 1, identity_schwarz(), 64)
    rep = main_theorem_check(spec, *_bound_and_distance(spec))
    o = oracle(spec)
    ok = (not rep.passed
          and abs(o.lhs / o.rhs - README_RATIO) <= 5e-11
          and abs(rep.lhs / rep.rhs / (o.lhs / o.rhs) - 1) <= AGREE_RTOL
          and confirms(o, rep.lhs, rep.rhs, theorem_budget(spec), True))
    return spec, rep, ok


def replays(rec: dict, row: dict) -> bool:
    """A failure record holds the replayed check's row, key for key."""
    return all(rec[key] == value for key, value in row.items())


def sweep_verdict(res, confirmed, refuted, tight, tight_ok) -> str:
    """Failing trials split into oracle-confirmed, oracle-refuted and
    uncertified (circle-sampled distance), then the tightest exact-distance
    pass."""
    failed = sorted({f["trial"] for f in res.failures})
    checked = set(confirmed) | set(refuted)
    unc = [t for t in failed if t not in checked]
    text = "%d/%d failed: %d confirmed by the oracle %s" % (
        len(failed), res.trials, len(confirmed), confirmed)
    if refuted:
        text += ", %d REFUTED by the oracle %s" % (len(refuted), refuted)
    text += ", %d uncertified (circle-sampled distance) %s" % (len(unc), unc)
    return text + "; tightest exact-distance pass: trial %d, lhs/rhs " \
        "%.11f, oracle %s" % (tight["trial"], tight["lhs"] / tight["rhs"],
                              "agrees" if tight_ok else "DISAGREES")


def tightest_exact_pass(rows: list, check: str) -> dict:
    return max((row for row in rows if row["check"] == check
                and row["pass"] and row["exact_distance"]),
               key=lambda row: row["lhs"] / row["rhs"])


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> bool:
    line = "criterion %2d (%s): %s" % (num, label, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    print(line)
    return ok


def test_criterion_01_bohr_radius_recovery():
    t0 = time.perf_counter()
    res = bohr_radius_solve()
    elapsed = time.perf_counter() - t0
    ok = (abs(res.radius - 0.04321391826377224) < 1e-9
          and abs(res.residual) < 1e-12 and elapsed < 1.0)
    assert _verdict(1, "bohr radius recovery", ok,
                    "r=%.17g residual=%.3g %.3fs"
                    % (res.radius, res.residual, elapsed))


def test_criterion_02_special_values():
    v1 = complex(j_eval(E_PI))
    v2 = complex(j_eval(-E_PI))
    ok = abs(v1 - 0.5) < 1e-12 and abs(abs(v2) - 1.0) < 1e-12
    assert _verdict(2, "special values", ok,
                    "J(e^-pi)=%.17g |J(-e^-pi)|=%.17g" % (v1.real, abs(v2)))


def test_criterion_03_coefficient_structure():
    c = j_coeffs_exact(20)
    signs_ok = c[0] == 0 and all((-1) ** (n + 1) * c[n] > 0
                                 for n in range(1, 21))
    prefix_ok = c[1:4] == (16, -128, 704)
    a = np.array(a_coeffs(100), dtype=float)
    shape_ok = (np.all(a > 0) and np.all(np.diff(a) >= 0)
                and np.all(np.diff(a, 2) >= 0))
    ok = signs_ok and prefix_ok and shape_ok
    assert _verdict(3, "coefficient structure", ok,
                    "J prefix %s, A checked to n=100" % (c[1:4],))


def test_criterion_04_max_modulus():
    res = run_suite("max-modulus", SEED, 20)
    assert _verdict(4, "max modulus on circles", res.passed,
                    "%d radii at 4096 nodes" % (res.trials,))


def test_criterion_05_littlewood_sweep():
    t0 = time.perf_counter()
    res = run_suite("littlewood", SEED, 100)
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 10.0
    assert _verdict(5, "coefficient domination sweep", ok,
                    "max ratio %.12f, %.2fs"
                    % (res.summary["max_ratio"], elapsed))


def test_criterion_06_main_inequality_sweep():
    pytest.importorskip("mpmath")
    readme_ok = readme_counterexample()[2]
    res = run_suite("theorem4", SEED, 100)
    enough_exact = res.summary["exact_distance_trials"] >= 10
    replay_ok, confirmed, refuted = True, [], []
    for rec in res.failures:
        spec = theorem4_spec(rec["seed"], rec["trial"])
        rep = main_theorem_check(spec, *_bound_and_distance(spec))
        replay_ok &= spec.text() == rec["spec"] and replays(rec, rep.row())
        if spec.phi.is_inner:
            budget = theorem_budget(spec)
            ok = confirms(oracle(spec), rec["lhs"], rec["rhs"], budget, True)
            (confirmed if ok else refuted).append(rec["trial"])
    tight = tightest_exact_pass(res.rows, "theorem-main")
    spec = theorem4_spec(tight["seed"], tight["trial"])
    rep = main_theorem_check(spec, *_bound_and_distance(spec))
    tight_ok = confirms(oracle(spec), rep.lhs, rep.rhs,
                        theorem_budget(spec), False)
    ok = (readme_ok and enough_exact and replay_ok and not refuted
          and tight_ok)
    detail = "README %s, replay %s, %d exact-distance trials; %s" % (
        readme_ok, replay_ok, res.summary["exact_distance_trials"],
        sweep_verdict(res, confirmed, refuted, tight, tight_ok))
    assert _verdict(6, "majorant vs boundary distance", ok, detail), (
        "sweep verdicts disagree with the oracle or do not replay; "
        "recipes: %r" % (res.failures,))


def test_criterion_07_classical_bohr():
    res = run_suite("classical-bohr", SEED, 100)
    assert _verdict(7, "classical bohr sanity", res.passed,
                    "max majorant %.12f" % res.summary["max_majorant"])


def test_criterion_08_hyperbolic_identities():
    res = run_suite("density-distance", SEED, 200)
    assert _verdict(8, "hyperbolic density identities", res.passed,
                    "identity gap %.3g, cover worst %.12f"
                    % (res.summary["identity_gap"],
                       res.summary["q_cover_worst"]))


def test_criterion_09_harmonic_extension():
    # Part 1: the mu = 0 reduction must reproduce the analytic check.
    spec = make_large_function(0.0, 1.0, math.pi, identity_schwarz(), 64)
    pair = build_pair(spec, TruncatedSeries([0.0]))
    rep = harmonic_bohr_check(pair, *_bound_and_distance(spec))
    base = main_theorem_check(spec, *_bound_and_distance(spec))
    reduction_ok = (
        rep.lhs == base.lhs
        and bohr_operator(pair.g, E_PI, from_degree=1) == 0.0
        and abs(rep.rhs - base.rhs) < 1e-15
    )
    # Part 2: constant dilatation scales the bound by exactly (1 + |c|),
    # and g = c (h - h(0)) scales the co-analytic majorant by c.
    c = 0.6
    pairc = build_pair(spec, TruncatedSeries([c]))
    repc = harmonic_bohr_check(pairc, *_bound_and_distance(spec))
    constant_ok = (repc.passed
                   and abs(repc.rhs - (1 + c) * rep.rhs) < 1e-12
                   and abs(bohr_operator(pairc.g, E_PI, from_degree=1)
                           - c * bohr_operator(pairc.spec.series, E_PI,
                                              from_degree=1))
                   < 1e-12)
    # Part 3: the README counterexample, then the 50-pair sweep, whose
    # verdicts must replay and agree with the oracle.
    pytest.importorskip("mpmath")
    spec, base, readme_ok = readme_counterexample()
    rep0 = harmonic_bohr_check(build_pair(spec, TruncatedSeries([0.0])),
                               *_bound_and_distance(spec))
    readme_ok = (readme_ok and not rep0.passed
                 and abs(rep0.lhs / rep0.rhs / (base.lhs / base.rhs) - 1)
                 <= AGREE_RTOL)
    res = run_suite("harmonic", SEED, 50)
    replay_ok, confirmed, refuted = True, [], []
    for rec in res.failures:
        spec, mu = harmonic_trial(rec["seed"], rec["trial"])
        pair = build_pair(spec, mu)
        domination = rec["check"] == "majorant-domination"
        rep = (majorant_domination_check(pair, 0.2) if domination
               else harmonic_bohr_check(pair, *_bound_and_distance(spec)))
        replay_ok &= (spec.text() == rec["spec"] and mu.label == rec["mu"]
                      and list(mu.coeffs) == rec["mu_coeffs"]
                      and replays(rec, rep.row()))
        if domination:      # a theorem for |mu| <= 1: no failure is genuine
            refuted.append(rec["trial"])
        elif spec.phi.is_inner:
            ok = confirms(oracle(spec, rec["mu_coeffs"]), rec["lhs"],
                          rec["rhs"], rep.slack, True, SUP_MU_RTOL)
            (confirmed if ok else refuted).append(rec["trial"])
    tight = tightest_exact_pass(res.rows, "harmonic-bohr")
    spec, mu = harmonic_trial(tight["seed"], tight["trial"])
    rep = harmonic_bohr_check(build_pair(spec, mu),
                              *_bound_and_distance(spec))
    tight_ok = confirms(oracle(spec, mu.coeffs), rep.lhs, rep.rhs,
                        rep.slack, False, SUP_MU_RTOL)
    ok = (reduction_ok and constant_ok and readme_ok and replay_ok
          and not refuted and tight_ok)
    detail = "reduction %s, constant-mu %s, README %s, replay %s; %s" % (
        reduction_ok, constant_ok, readme_ok, replay_ok,
        sweep_verdict(res, confirmed, refuted, tight, tight_ok))
    assert _verdict(9, "harmonic extension", ok, detail), (
        "sweep verdicts disagree with the oracle or do not replay; "
        "recipes: %r" % (res.failures,))


def test_criterion_10_univalence_probe():
    res = run_suite("univalence", SEED, 4096)
    margin = res.summary["starlike_margin"]
    assert _verdict(10, "univalence certificate", res.passed and margin > 0,
                    "starlike margin %.5f below, collision gap %.3g above"
                    % (margin, res.summary["collision_gap"]))
