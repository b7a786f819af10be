"""Seeded verification sweeps behind the `verify` and `report` commands.

``SUITES`` maps each suite name to its runner, ``run_<suite>(seed, trials)``,
whose signature holds the suite's default trial count.  Each suite runs
independent trials derived deterministically from a base seed and collects
one row per executed check: ``InequalityCheck.row()`` plus the recipe of its
trial, that is ``trial`` and ``seed`` on every seeded trial, ``phi`` for
littlewood, ``spec`` for theorem4, von-neumann and harmonic, ``poly`` for
von-neumann, ``mu`` and ``mu_coeffs`` for harmonic, and ``r`` for
max-modulus.  The rows alone decide a suite's verdict, and its failure
records are its failing rows, so each one replays from its own keys
(harmonic gives one record per failing row, two rows per trial).  A failing
trial is a result, not a crash: the suite completes and reports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import bohr, geometry, harmonic
from . import generators as gen
from .errors import DomainError
from .modular import (E_HALF_PI, E_PI, collision_search, j_eval,
                      starlike_certificate)
from .series import TruncatedSeries, unit_ring

#: Absolute budget for the Cauchy tail (``bohr.cauchy_tail_bound``) that a
#: theorem-main, von-neumann or harmonic-bohr row adds to its lhs.  A tail
#: bounds the dropped terms from above: it can turn a pass into a fail only.
TAIL_BUDGET = 1e-15
#: Series order of the specs: the smallest multiple of 8 whose tails meet
#: ``TAIL_BUDGET`` at seeds 7, 8 and 11 (at 24 von-neumann's reach 3.6e-15).
ORDER = 32
MOBIUS_ORDER = 64   # classical-bohr's f (own tail) and harmonic's mu

#: Points of each circle on which ``j_max_modulus`` samples |J|.
MAX_MODULUS_SAMPLES = 4096


@dataclass
class SuiteResult:
    name: str
    trials: int
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def failures(self) -> list:
        """The rows whose check failed, each with its trial's recipe."""
        return [row for row in self.rows if not row["pass"]]

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def passed(self) -> bool:
        return self.failed == 0


def _trial_seed(seed: int, t: int) -> int:
    return (seed * 1_000_003 + t) % 2**63


def run_littlewood(seed: int = 7, trials: int = 100) -> SuiteResult:
    res = SuiteResult("littlewood", trials)
    kmax = 40
    for t in range(trials):
        ts = _trial_seed(seed, t)
        phi = gen.random_schwarz(ts, 1 + t % 4)
        rep = bohr.littlewood_check(phi, kmax, kmax)
        res.rows.append(rep.row() | {"trial": t, "seed": ts,
                                     "phi": phi.text()})
    res.summary = {"max_ratio": max(row["lhs"] for row in res.rows),
                   "kmax": kmax}
    return res


def theorem4_spec(trial_seed: int, t: int) -> gen.LargeFunctionSpec:
    """The spec of trial `t` of the theorem4 sweep, from its trial seed.

    Even trials draw an inner phi, so at least half of the trials have an
    exact boundary distance.
    """
    return gen.random_large_function(trial_seed, ORDER,
                                     inner_only=(t % 2 == 0))


def run_theorem4(seed: int = 7, trials: int = 100) -> SuiteResult:
    res = SuiteResult("theorem4", trials)
    for t in range(trials):
        ts = _trial_seed(seed, t)
        spec = theorem4_spec(ts, t)
        rep = bohr.main_theorem_check(spec, geometry.boundary_distance(spec))
        res.rows.append(rep.row() | {"trial": t, "seed": ts,
                                     "spec": spec.text(),
                                     "exact_distance": spec.phi.is_inner})
    res.summary = {
        "r": E_PI, "order": ORDER,
        "min_margin": min(row["rhs"] - row["lhs"] for row in res.rows),
        "exact_distance_trials": sum(row["exact_distance"]
                                     for row in res.rows)}
    return res


@lru_cache(maxsize=64)
def _spec_and_distance(trial_seed: int) -> tuple[gen.LargeFunctionSpec, float]:
    """The spec of a von-neumann or harmonic trial, built at ORDER, and its
    boundary distance.  Both suites draw it for the same trial seeds, so a
    report builds and samples each spec once.  The cache holds more than
    the 50 default trials of a suite; its key is the trial seed alone."""
    spec = gen.random_large_function(trial_seed, ORDER)
    return spec, geometry.boundary_distance(spec)


def run_von_neumann(seed: int = 7, trials: int = 50) -> SuiteResult:
    res = SuiteResult("von-neumann", trials)
    for t in range(trials):
        ts = _trial_seed(seed, t)
        spec, dist = _spec_and_distance(ts)
        # Normalize: the Banach-algebra reading of the inequality concerns
        # elements of small majorant norm, and the hypothesis needs the
        # boundary distance below one.  Both scale linearly.
        m_f = bohr.bohr_operator(spec.series, E_PI, 0)
        c = 0.3 / max(m_f, dist)
        spec = spec.scaled(c)
        if t % 3 == 0:
            p = TruncatedSeries([0.0, 1.0], "w")           # identity
        elif t % 3 == 1:
            p = TruncatedSeries([0.0, 0.0, 1.0], "w^2")
        else:
            p = gen.random_polynomial(ts + 1, 2 + t % 5)
        rep = bohr.von_neumann_check(spec, p, dist * c)
        res.rows.append(rep.row() | {"trial": t, "seed": ts,
                                     "spec": spec.text(),
                                     "poly": [[c.real, c.imag]
                                              for c in p.coeffs]})
    res.summary = {"r": E_PI, "order": ORDER}
    return res


def _harmonic_mu(ts: int, t: int) -> TruncatedSeries:
    """mu = 0, a constant |c| < 1 or ``random_mobius_bounded``'s map, by t
    mod 3, each bounded by 1 in closed form, so by Bohr its stored prefix
    has majorant <= 1 to radius 1/3: ``majorant_domination_check`` needs it."""
    kind = t % 3
    if kind == 0:
        return TruncatedSeries([0.0], "mu=0")
    if kind == 1:
        c = gen.Stream(ts).disk(1.0)
        return TruncatedSeries([c], "mu=const(%s)" % gen._fmt(c))
    mu = gen.random_mobius_bounded(ts, MOBIUS_ORDER)
    return TruncatedSeries(mu.coeffs, "mu=" + mu.label)


def harmonic_trial(trial_seed: int, t: int
                   ) -> tuple[gen.LargeFunctionSpec, TruncatedSeries]:
    """The spec and dilatation of trial `t` of the harmonic sweep.

    mu cycles through zero, a constant and a Moebius map at MOBIUS_ORDER
    with the trial; g reads only its first ORDER coefficients.  The spec
    is the von-neumann suite's spec of the same trial seed, at ORDER.
    """
    return (_spec_and_distance(trial_seed)[0],
            _harmonic_mu(trial_seed + 17, t))


def run_harmonic(seed: int = 7, trials: int = 50) -> SuiteResult:
    res = SuiteResult("harmonic", trials)
    for t in range(trials):
        ts = _trial_seed(seed, t)
        spec, mu = harmonic_trial(ts, t)
        pair = harmonic.build_pair(spec, mu)
        rep = harmonic.harmonic_bohr_check(pair, _spec_and_distance(ts)[1])
        dom = harmonic.majorant_domination_check(pair, 0.2)
        tags = {"trial": t, "seed": ts, "spec": spec.text(),
                "mu": mu.label, "mu_coeffs": [complex(c) for c in mu.coeffs],
                "exact_distance": spec.phi.is_inner}
        res.rows.append(rep.row() | tags)
        res.rows.append(dom.row() | tags)
    res.summary = {"r": E_PI, "order": ORDER}
    return res


def run_classical_bohr(seed: int = 7, trials: int = 100) -> SuiteResult:
    res = SuiteResult("classical-bohr", trials)
    for t in range(trials):
        ts = _trial_seed(seed, t)
        f = gen.random_mobius_bounded(ts, MOBIUS_ORDER)
        res.rows.append(bohr.classical_bohr_check(f).row()
                        | {"trial": t, "seed": ts})
    res.summary = {"max_majorant": max(row["lhs"] for row in res.rows),
                   "r": 1.0 / 3.0}
    return res


def run_algebra(seed: int = 7, trials: int = 100) -> SuiteResult:
    res = SuiteResult("algebra", trials)
    order, r = 8, 0.5
    for t in range(trials):
        ts = _trial_seed(seed, t)
        rng = gen.Stream(ts)
        f, g = (TruncatedSeries(rng.uniform(-1.0, 1.0, order + 1)
                                + 1j * rng.uniform(-1.0, 1.0, order + 1))
                for _ in range(2))
        for rep in bohr.algebra_properties_check(f, g, r):
            res.rows.append(rep.row() | {"trial": t, "seed": ts})
    res.summary = {"r": r, "order": order}
    return res


def j_max_modulus(r: float) -> tuple[float, float]:
    """Maximum of |J| at the MAX_MODULUS_SAMPLES nodes of |z| = r, and |J|
    at the node N/2 of ``unit_ring``, which lies on the negative axis.

    -J(-z) has positive coefficients, so |J(z)| <= |J(-|z|)|: the maximum on
    the circle sits at -r, and the two numbers should be equal.
    """
    if not 0 < r < 1:
        raise DomainError("r must lie in (0, 1)")
    vals = np.abs(j_eval(r * unit_ring(MAX_MODULUS_SAMPLES)))
    return float(vals.max()), float(vals[MAX_MODULUS_SAMPLES // 2])


def run_max_modulus(seed: int = 7, trials: int = 20) -> SuiteResult:
    """Circle maxima of |J| on a ladder of radii, each against the sampled
    |J| at the negative-axis node of its own circle with slack 0, so a row
    passes iff the maximum sits at that node.  Then |max - 1| <= 1e-10 at
    r = e^{-pi}, where -J(-r) = 1.  The ladder is fixed: ``seed`` is taken
    like every runner's and not read."""
    res = SuiteResult("max-modulus", trials)
    radii = np.linspace(0.5 / trials, 0.5, trials)
    for t, r in enumerate(radii):
        res.rows.append(bohr.InequalityCheck(
            "max-modulus", *j_max_modulus(float(r)), 0.0).row()
            | {"trial": t, "r": float(r)})
    max_at_bohr = j_max_modulus(E_PI)[0]
    res.rows.append(bohr.InequalityCheck(
        "max-modulus-at-bohr-radius", abs(max_at_bohr - 1.0), 0.0,
        1e-10).row() | {"trial": trials, "r": E_PI})
    res.summary = {"samples": MAX_MODULUS_SAMPLES}
    return res


def run_density_distance(seed: int = 7, trials: int = 200) -> SuiteResult:
    """lambda * d on the disk identity and at ``trials`` Q-cover points."""
    res = SuiteResult("density-distance", trials)
    rng = gen.Stream(seed)
    # Exact identity on the disk: lambda * d = 1/(1+|w|).
    w = rng.disk(0.98, 100)
    prods = geometry.density_distance_products(w)
    gap = float(np.abs(prods - 1.0 / (1.0 + np.abs(w))).max())
    res.rows.append(bohr.InequalityCheck(
        "disk-identity-product", gap, 0.0, 1e-14).row())
    # The Q cover of the twice-punctured plane: lambda * d <= 1.
    z = rng.disk(0.8, trials)
    worst = float(geometry.density_distance_products(z, math.pi).max())
    res.rows.append(bohr.InequalityCheck(
        "density-distance", worst, 1.0, 1e-6).row())
    res.summary = {"identity_gap": gap, "q_cover_worst": worst}
    return res


def run_univalence(seed: int = 7, trials: int = 4096) -> SuiteResult:
    """J univalent below its univalence radius e^{-pi/2} and not above it.

    Below: ``starlike_certificate`` at 0.9 e^{-pi/2} on ``trials`` nodes,
    passing iff its margin is >= 0.  Above: the closed-form pair of
    ``collision_search``, passing iff its value gap is <= 1e-8.  Nothing is
    drawn at random: ``seed`` is taken like every runner's and not read.
    """
    res = SuiteResult("univalence", trials)
    margin = starlike_certificate(0.9 * E_HALF_PI, trials).margin
    res.rows.append(bohr.InequalityCheck(
        "univalence-below-radius", -margin, 0.0, 0.0).row())
    above = collision_search(0.35)
    res.rows.append(bohr.InequalityCheck(
        "collision-above-radius", above.value_gap, 0.0, 1e-8).row())
    res.summary = {"starlike_margin": margin,
                   "collision_gap": above.value_gap,
                   "collision_pair": [[above.z1.real, above.z1.imag],
                                      [above.z2.real, above.z2.imag]]}
    return res


SUITES = {
    "littlewood": run_littlewood,
    "theorem4": run_theorem4,
    "von-neumann": run_von_neumann,
    "harmonic": run_harmonic,
    "classical-bohr": run_classical_bohr,
    "algebra": run_algebra,
    "max-modulus": run_max_modulus,
    "density-distance": run_density_distance,
    "univalence": run_univalence,
}

#: Suite names in report order.
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, seed: int = 7,
              trials: int | None = None) -> SuiteResult:
    """Run a suite of ``SUITES``; ``trials=None`` is the runner's default.
    The seed is checked before any runner starts, since some never read it."""
    if name not in SUITES:
        raise DomainError("unknown suite %r (choose from %s)"
                          % (name, ", ".join(SUITE_NAMES)))
    gen._checked_seed(seed)
    if trials is None:
        return SUITES[name](seed)
    if trials < 1:
        raise DomainError("trials must be >= 1")
    return SUITES[name](seed, trials)
