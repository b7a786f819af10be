"""The majorant operator M(f) = sum |a_n| r^n, the radius solver, and the
inequality verifiers built on it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import (BracketError, DomainError, HypothesisViolation)
from .generators import LargeFunctionSpec, SchwarzFunction
from .geometry import boundary_distance
from .modular import E_PI, a_coeffs, j_eval, minus_j_minus_series
from .series import TruncatedSeries

#: Fixed absolute slack added to every inequality check on top of any
#: explicit tail bound and distance-oracle error.
BASE_SLACK = 1e-9


def bohr_operator(f: TruncatedSeries, r: float, from_degree: int = 0) -> float:
    """sum_{n >= from_degree} |a_n| r^n over the stored prefix."""
    if not 0 <= r < 1:
        raise DomainError("r must lie in [0, 1)")
    if from_degree not in (0, 1):
        raise DomainError("from_degree must be 0 or 1")
    mags = np.abs(f.coeffs[from_degree:])
    powers = r ** np.arange(from_degree, f.order + 1)
    return float(np.dot(mags, powers))


def cauchy_tail_bound(f_eval, rho: float, order: int, r: float,
                      nodes: int = 4096, inflate: float = 1.01) -> float:
    """Upper bound on sum_{n > order} |a_n| r^n by Cauchy estimates.

    |a_n| <= M_rho / rho^n with M_rho the sampled circle maximum of |f|,
    inflated by 1% to absorb sampling of the maximum.
    """
    if not 0 < r < rho < 1:
        raise DomainError("need 0 < r < rho < 1")
    theta = 2 * np.pi * np.arange(nodes) / nodes
    m_rho = float(np.abs(f_eval(rho * np.exp(1j * theta))).max()) * inflate
    q = r / rho
    return m_rho * q ** (order + 1) / (1.0 - q)


@dataclass(frozen=True)
class BohrRadiusResult:
    radius: float
    residual: float     # -J(-r) - 1 at the returned radius
    iterations: int


def bohr_radius_solve(order: int = 200,
                      bracket: tuple[float, float] = (0.01, 0.1)
                      ) -> BohrRadiusResult:
    """Root of sum_n 16 A_n r^{n+1} = 1 by bisection.

    The coefficients are strictly positive, so the left side is strictly
    increasing and the root in the bracket is unique; it is the Bohr radius
    e^{-pi}.
    """
    if order < 100:
        raise DomainError("order must be >= 100")
    a = a_coeffs(order).a_float
    # polynomial 16 (A_0 r + A_1 r^2 + ...) - 1, highest degree first
    poly = np.concatenate([16.0 * a[::-1], [-1.0]])

    def g(r: float) -> float:
        return float(np.polyval(poly, r))

    lo, hi = bracket
    if not (g(lo) < 0 < g(hi)):
        raise BracketError("no sign change of the majorant sum on %r"
                           % (bracket,))
    iterations = 0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    r = 0.5 * (lo + hi)
    residual = float((-j_eval(-r)).real - 1.0)
    return BohrRadiusResult(r, residual, iterations)


# ---------------------------------------------------------------------------
# Inequality reports


@dataclass(frozen=True)
class InequalityCheck:
    """One verified inequality lhs <= rhs + slack."""

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {"check": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "pass": self.passed}


@dataclass(frozen=True)
class TheoremReport:
    """Main-inequality check: majorant sum against boundary distance."""

    lhs: float              # sum_{n>=1} |a_n| r^n over the prefix
    rhs: float              # boundary distance estimate
    tail_bound: float
    rhs_error: float        # distance-oracle error
    passed: bool

    def row(self) -> dict:
        return {"check": "theorem-main", "lhs": self.lhs + self.tail_bound,
                "rhs": self.rhs + self.rhs_error,
                "slack": BASE_SLACK, "pass": self.passed}


@dataclass(frozen=True)
class LittlewoodReport:
    """Coefficient domination of a subordinate to -J(-z)."""

    max_ratio: float            # max_k |a_k| / (degree-k majorant coeff)
    argmax_degree: int
    literal_max_ratio: float    # |a_k| / (16 A_k), one index later
    passed: bool

    def row(self) -> dict:
        return {"check": "littlewood", "lhs": self.max_ratio, "rhs": 1.0,
                "slack": BASE_SLACK, "pass": self.passed}


def littlewood_check(phi: SchwarzFunction, order: int,
                     kmax: int | None = None) -> LittlewoodReport:
    """Build f = -J(-phi(z)) and compare |a_k| with the majorant coefficient.

    The degree-k coefficient of -J(-z) is 16 A_{k-1}; the comparison at
    matching degree is the form Littlewood's theorem supports.  The ratio
    against 16 A_k (one index later, as in the source inequality chain) is
    reported as a secondary column.
    """
    if kmax is None:
        kmax = order
    kmax = min(kmax, order)
    major = minus_j_minus_series(order)
    f = major.compose(phi.series(order), order)
    mags = np.abs(f.coeffs[1 : kmax + 1])
    ratios = mags / major.coeffs[1 : kmax + 1].real
    k = int(np.argmax(ratios)) + 1
    literal = mags[:-1] / major.coeffs[2 : kmax + 1].real
    return LittlewoodReport(
        float(ratios.max()), k,
        float(literal.max(initial=0.0)),
        bool(ratios.max() <= 1.0 + BASE_SLACK),
    )


def main_theorem_check(spec: LargeFunctionSpec, r: float = E_PI,
                       order: int | None = None,
                       tail_rho: float = 0.3) -> TheoremReport:
    """Verify sum_{n>=1} |a_n| r^n <= dist(F(0), boundary of F(U))."""
    if r > E_PI * (1.0 + 1e-12):
        raise DomainError("the inequality is asserted for r <= e^-pi")
    if order is None:
        order = spec.order
    lhs = bohr_operator(spec.series.truncated(order), r, from_degree=1)
    tail = cauchy_tail_bound(spec.eval, tail_rho, order, r) if r > 0 else 0.0
    dist = boundary_distance(spec)
    passed = lhs + tail <= dist.value + dist.error + BASE_SLACK
    return TheoremReport(lhs, dist.value, tail, dist.error, passed)


def shift_polynomial(p: TruncatedSeries, c: complex) -> TruncatedSeries:
    """Coefficients of w -> p(c + w)."""
    n = p.order
    out = np.zeros(n + 1, dtype=complex)
    for k in range(n + 1):
        pk = p[k]
        if pk == 0:
            continue
        for j in range(k + 1):
            out[j] += pk * comb(k, j) * c ** (k - j)
    return TruncatedSeries(out)


def polynomial_sup(p: TruncatedSeries, nodes: int = 4096) -> float:
    """Sampled sup of |p| on the unit circle."""
    theta = 2 * np.pi * np.arange(nodes) / nodes
    return float(np.abs(p.eval(np.exp(1j * theta))).max())


def von_neumann_check(spec: LargeFunctionSpec, p: TruncatedSeries,
                      r: float = E_PI, order: int | None = None
                      ) -> InequalityCheck:
    """Check M(p(F))(r) <= sup of |p| on the unit circle.

    Requires the boundary distance of F to be below 1.  Both sides are
    reported whether or not the inequality holds.
    """
    if order is None:
        order = spec.order
    dist = boundary_distance(spec)
    if dist.value >= 1.0:
        raise HypothesisViolation(
            "boundary distance %.6g is not < 1" % dist.value
        )
    f0 = spec.f0
    shifted = shift_polynomial(p, f0)
    centered = spec.series.truncated(order) - TruncatedSeries.constant(
        spec.series[0]
    )
    composed = shifted.compose(centered, order)
    lhs = bohr_operator(composed, r, from_degree=0)
    tail = cauchy_tail_bound(lambda z: p.eval(spec.eval(z)), 0.3, order, r)
    rhs = polynomial_sup(p)
    return InequalityCheck(
        "von-neumann", lhs + tail, rhs, BASE_SLACK,
        bool(lhs + tail <= rhs + BASE_SLACK),
        {"distance": dist.value, "tail_bound": tail,
         "majorant_at_r": lhs},
    )


def classical_bohr_check(f: TruncatedSeries, r: float = 1.0 / 3.0,
                         nodes: int = 4096) -> InequalityCheck:
    """Sanity check of the classical theorem: |f| < 1 forces M(f) <= 1 at
    r <= 1/3."""
    theta = 2 * np.pi * np.arange(nodes) / nodes
    sup = float(np.abs(f.eval(0.99 * np.exp(1j * theta))).max())
    m = bohr_operator(f, r)
    ok = (r <= 1.0 / 3.0 + 1e-15) and m <= 1.0 + BASE_SLACK
    return InequalityCheck("classical-bohr", m, 1.0, BASE_SLACK, bool(ok),
                           {"sup_sampled": sup, "r": r})


def algebra_properties_check(f: TruncatedSeries, g: TruncatedSeries,
                             r: float) -> list[InequalityCheck]:
    """M is subadditive, submultiplicative and unital."""
    if not 0 <= r < 1:
        raise DomainError("r must lie in [0, 1)")
    msum = bohr_operator(f + g, r)
    mf, mg = bohr_operator(f, r), bohr_operator(g, r)
    prod = f.mul(g)
    mprod = bohr_operator(prod, r)
    unit = bohr_operator(TruncatedSeries.constant(1.0), r)
    return [
        InequalityCheck("algebra-additive", msum, mf + mg, BASE_SLACK,
                        bool(msum <= mf + mg + BASE_SLACK)),
        InequalityCheck("algebra-multiplicative", mprod, mf * mg,
                        BASE_SLACK, bool(mprod <= mf * mg + BASE_SLACK)),
        InequalityCheck("algebra-unit", unit, 1.0, 0.0, unit == 1.0),
    ]
