"""Seeded verification sweeps behind the `verify` and `report` commands.

Each suite runs independent trials derived deterministically from a base
seed, collects one row per executed check, and preserves every failing
trial with its full reproduction recipe.  A failing trial is a result, not
a crash: the suite completes and reports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bohr, geometry, harmonic
from . import generators as gen
from .errors import DomainError
from .modular import (E_HALF_PI, E_PI, collision_search, j_eval,
                      j_max_modulus, univalence_probe)
from .series import TruncatedSeries

SUITE_NAMES = (
    "littlewood", "theorem4", "von-neumann", "harmonic", "classical-bohr",
    "algebra", "max-modulus", "density-distance", "univalence",
)


@dataclass
class SuiteResult:
    name: str
    trials: int
    passed: bool
    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _trial_seed(seed: int, t: int) -> int:
    return (seed * 1_000_003 + t) % 2**63


def run_littlewood(seed: int = 7, trials: int = 100, order: int = 64,
                   kmax: int = 40) -> SuiteResult:
    res = SuiteResult("littlewood", trials, True)
    worst = 0.0
    for t in range(trials):
        ts = _trial_seed(seed, t)
        phi = gen.random_schwarz(ts, 1 + t % 4)
        rep = bohr.littlewood_check(phi, order, kmax)
        worst = max(worst, rep.max_ratio)
        res.rows.append(rep.row() | {"trial": t})
        if not rep.passed:
            res.passed = False
            res.failures.append({"trial": t, "seed": ts,
                                 "phi": phi.text(),
                                 "max_ratio": rep.max_ratio})
    res.summary = {"max_ratio": worst, "kmax": kmax, "order": order}
    return res


def theorem4_spec(trial_seed: int, t: int,
                  order: int = 64) -> gen.LargeFunctionSpec:
    """The spec of trial `t` of the theorem4 sweep, from its trial seed.

    Even trials draw an inner phi, so at least half of the trials have an
    exact boundary distance.
    """
    return gen.random_large_function(trial_seed, order,
                                     inner_only=(t % 2 == 0))


def run_theorem4(seed: int = 7, trials: int = 100, order: int = 64,
                 r: float = E_PI) -> SuiteResult:
    res = SuiteResult("theorem4", trials, True)
    exact_trials = 0
    min_margin = math.inf
    for t in range(trials):
        ts = _trial_seed(seed, t)
        spec = theorem4_spec(ts, t, order)
        if spec.phi.is_inner:
            exact_trials += 1
        rep = bohr.main_theorem_check(spec, r=r)
        margin = (rep.rhs + rep.rhs_error) - (rep.lhs + rep.tail_bound)
        min_margin = min(min_margin, margin)
        res.rows.append(rep.row() | {"trial": t, "seed": ts,
                                     "exact_distance": spec.phi.is_inner})
        if not rep.passed:
            res.passed = False
            res.failures.append({
                "trial": t, "seed": ts, "spec": spec.text(),
                "lhs": rep.lhs, "tail_bound": rep.tail_bound,
                "rhs": rep.rhs, "rhs_error": rep.rhs_error,
                "delta_diag": geometry.delta_diagnostic(spec),
            })
    res.summary = {"r": r, "order": order, "min_margin": min_margin,
                   "exact_distance_trials": exact_trials}
    return res


def run_von_neumann(seed: int = 7, trials: int = 50,
                    order: int = 64) -> SuiteResult:
    res = SuiteResult("von-neumann", trials, True)
    for t in range(trials):
        ts = _trial_seed(seed, t)
        spec = gen.random_large_function(ts, order)
        # Normalize: the Banach-algebra reading of the inequality concerns
        # elements of small majorant norm, and the hypothesis needs the
        # boundary distance below one.  Both scale linearly.
        m_f = bohr.bohr_operator(spec.series, E_PI, 0)
        dist = geometry.boundary_distance(spec).value
        spec = spec.scaled(0.3 / max(m_f, dist))
        if t % 3 == 0:
            p = TruncatedSeries([0.0, 1.0], "w")           # identity
        elif t % 3 == 1:
            p = TruncatedSeries([0.0, 0.0, 1.0], "w^2")
        else:
            p = gen.random_polynomial(ts + 1, 2 + t % 5)
        rep = bohr.von_neumann_check(spec, p, r=E_PI)
        res.rows.append(rep.row() | {"trial": t})
        if not rep.passed:
            res.passed = False
            res.failures.append({"trial": t, "seed": ts,
                                 "spec": spec.text(),
                                 "poly": [[c.real, c.imag]
                                          for c in p.coeffs],
                                 "lhs": rep.lhs, "rhs": rep.rhs})
    res.summary = {"r": E_PI, "order": order}
    return res


def _harmonic_mu(ts: int, t: int, order: int) -> TruncatedSeries:
    kind = t % 3
    if kind == 0:
        return TruncatedSeries([0.0], "mu=0")
    if kind == 1:
        rng = np.random.default_rng(ts)
        c = math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        return TruncatedSeries([c], "mu=const(%s)" % gen._fmt(c))
    mu = gen.random_mobius_bounded(ts, order)
    return TruncatedSeries(mu.coeffs, "mu=" + mu.label)


def harmonic_trial(trial_seed: int, t: int, order: int = 64
                   ) -> tuple[gen.LargeFunctionSpec, TruncatedSeries]:
    """The spec and dilatation of trial `t` of the harmonic sweep.

    mu cycles through zero, a constant and a Moebius map with the trial.
    """
    return (gen.random_large_function(trial_seed, order),
            _harmonic_mu(trial_seed + 17, t, order))


def run_harmonic(seed: int = 7, trials: int = 50,
                 order: int = 64) -> SuiteResult:
    res = SuiteResult("harmonic", trials, True)
    for t in range(trials):
        ts = _trial_seed(seed, t)
        spec, mu = harmonic_trial(ts, t, order)
        pair = harmonic.build_pair(spec, mu)
        rep = harmonic.harmonic_bohr_check(pair)
        ident = harmonic.mg_integral_identity_check(pair, 0.2)
        tags = {"trial": t, "seed": ts, "exact_distance": spec.phi.is_inner}
        res.rows.append(rep.row() | tags)
        res.rows.append(ident.row() | tags)
        if not (rep.passed and ident.passed):
            res.passed = False
            res.failures.append({"trial": t, "seed": ts,
                                 "spec": spec.text(), "mu": mu.label,
                                 "mu_coeffs": [complex(c) for c in mu.coeffs],
                                 "lhs": rep.lhs, "rhs": rep.rhs,
                                 "identity_gap": ident.lhs})
    res.summary = {"r": E_PI, "order": order}
    return res


def run_classical_bohr(seed: int = 7, trials: int = 100,
                       order: int = 64) -> SuiteResult:
    res = SuiteResult("classical-bohr", trials, True)
    worst = 0.0
    for t in range(trials):
        ts = _trial_seed(seed, t)
        f = gen.random_mobius_bounded(ts, order)
        rep = bohr.classical_bohr_check(f)
        worst = max(worst, rep.lhs)
        res.rows.append(rep.row() | {"trial": t})
        if not rep.passed:
            res.passed = False
            res.failures.append({"trial": t, "seed": ts, "m": rep.lhs})
    res.summary = {"max_majorant": worst, "r": 1.0 / 3.0}
    return res


def run_algebra(seed: int = 7, trials: int = 100, order: int = 8,
                r: float = 0.5) -> SuiteResult:
    res = SuiteResult("algebra", trials, True)
    for t in range(trials):
        ts = _trial_seed(seed, t)
        rng = np.random.default_rng(ts)
        f = TruncatedSeries(rng.standard_normal(order + 1)
                            + 1j * rng.standard_normal(order + 1))
        g = TruncatedSeries(rng.standard_normal(order + 1)
                            + 1j * rng.standard_normal(order + 1))
        for rep in bohr.algebra_properties_check(f, g, r):
            res.rows.append(rep.row() | {"trial": t})
            if not rep.passed:
                res.passed = False
                res.failures.append({"trial": t, "seed": ts,
                                     "check": rep.name, "lhs": rep.lhs,
                                     "rhs": rep.rhs})
    res.summary = {"r": r, "order": order}
    return res


def run_max_modulus(trials: int = 20, samples: int = 4096) -> SuiteResult:
    """Circle maxima of |J| against |J(-r)| on a ladder of radii."""
    res = SuiteResult("max-modulus", trials, True)
    radii = np.linspace(0.5 / trials, 0.5, trials)
    step = 2 * np.pi / samples
    for t, r in enumerate(radii):
        max_sampled, angle = j_max_modulus(float(r), samples)
        bound = abs(complex(j_eval(-float(r)))) * (1.0 + 1e-12)
        ok = max_sampled <= bound and abs(angle - np.pi) <= step * 1.0001
        res.rows.append({"check": "max-modulus", "lhs": max_sampled,
                         "rhs": bound, "slack": 0.0, "pass": bool(ok),
                         "trial": t})
        if not ok:
            res.passed = False
            res.failures.append({"trial": t, "r": float(r),
                                 "max": max_sampled, "angle": angle})
    max_at_bohr, angle = j_max_modulus(E_PI, samples)
    ok = abs(max_at_bohr - 1.0) <= 1e-10
    res.rows.append({"check": "max-modulus-at-bohr-radius",
                     "lhs": max_at_bohr, "rhs": 1.0, "slack": 1e-10,
                     "pass": bool(ok), "trial": trials})
    if not ok:
        res.passed = False
        res.failures.append({"r": E_PI, "max": max_at_bohr})
    res.summary = {"samples": samples}
    return res


def run_density_distance(seed: int = 7, points: int = 200) -> SuiteResult:
    res = SuiteResult("density-distance", points, True)
    rng = np.random.default_rng(seed)
    # Exact identity on the disk: lambda * d = 1/(1+|w|).
    w = 0.98 * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
    ident = geometry.disk_identity_cover()
    prods = geometry.density_distance_products(ident, w)
    gap = float(np.abs(prods - 1.0 / (1.0 + np.abs(w))).max())
    ok = gap <= 1e-14
    res.rows.append({"check": "disk-identity-product", "lhs": gap,
                     "rhs": 0.0, "slack": 1e-14, "pass": bool(ok)})
    res.passed &= ok
    # The Q cover of the twice-punctured plane.
    z = 0.8 * np.sqrt(rng.random(points)) * np.exp(
        2j * np.pi * rng.random(points))
    rep = geometry.density_distance_check(geometry.q_cover(math.pi), z)
    res.rows.append(rep)
    res.passed &= rep["pass"]
    if not res.passed:
        res.failures.append({"identity_gap": gap,
                             "q_cover_worst": rep["lhs"]})
    res.summary = {"identity_gap": gap, "q_cover_worst": rep["lhs"]}
    return res


def run_univalence(seed: int = 7, trials: int = 100_000) -> SuiteResult:
    res = SuiteResult("univalence", trials, True)
    below = univalence_probe(0.9 * E_HALF_PI, trials, seed)
    ok = below.collision_count == 0
    res.rows.append({"check": "univalence-below-radius",
                     "lhs": float(below.collision_count), "rhs": 0.0,
                     "slack": 0.0, "pass": bool(ok)})
    res.passed &= ok
    above = collision_search(0.35, seed)
    res.rows.append({"check": "collision-above-radius",
                     "lhs": above.value_gap, "rhs": 0.0, "slack": 1e-8,
                     "pass": bool(above.found)})
    res.passed &= above.found
    if not res.passed:
        res.failures.append({
            "collisions_below": below.collision_count,
            "min_ratio_below": below.min_ratio,
            "pair": [[above.z1.real, above.z1.imag],
                     [above.z2.real, above.z2.imag]],
            "gap": above.value_gap,
        })
    res.summary = {"min_ratio_below": below.min_ratio,
                   "collision_gap": above.value_gap,
                   "collision_pair": [[above.z1.real, above.z1.imag],
                                      [above.z2.real, above.z2.imag]]}
    return res


_RUNNERS = {
    "littlewood": run_littlewood,
    "theorem4": run_theorem4,
    "von-neumann": run_von_neumann,
    "harmonic": run_harmonic,
    "classical-bohr": run_classical_bohr,
    "algebra": run_algebra,
    "max-modulus": lambda seed=7, trials=20: run_max_modulus(trials),
    "density-distance":
        lambda seed=7, trials=200: run_density_distance(seed, trials),
    "univalence": run_univalence,
}

_DEFAULT_TRIALS = {
    "littlewood": 100, "theorem4": 100, "von-neumann": 50, "harmonic": 50,
    "classical-bohr": 100, "algebra": 100, "max-modulus": 20,
    "density-distance": 200, "univalence": 100_000,
}


def run_suite(name: str, seed: int = 7,
              trials: int | None = None) -> SuiteResult:
    if name not in _RUNNERS:
        raise DomainError("unknown suite %r (choose from %s)"
                          % (name, ", ".join(SUITE_NAMES)))
    if trials is None:
        trials = _DEFAULT_TRIALS[name]
    if trials < 1:
        raise DomainError("trials must be >= 1")
    return _RUNNERS[name](seed=seed, trials=trials)
