"""The majorant operator M(f) = sum |a_n| r^n, the radius solver, and the
inequality verifiers built on it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .generators import TAIL_RHO, LargeFunctionSpec, SchwarzFunction
from .modular import E_PI, a_coeffs, j_eval, j_series
from .series import TruncatedSeries, _truncmul, circle_sup

#: Absolute slack of the checks whose sides are sums of many rounded terms
#: (the Bohr majorants, Littlewood's ratios, the algebra of M and both
#: harmonic rows); any tail bound is added to the lhs.  The other rows
#: carry their own slack: 0, 1e-14, 1e-10, 1e-8 or 1e-6.
BASE_SLACK = 1e-9


def bohr_operator(f: TruncatedSeries, r: float, from_degree: int = 0) -> float:
    """sum_{n >= from_degree} |a_n| r^n over the stored prefix; past the
    double range it raises ``DomainError``."""
    if not 0 <= r < 1:
        raise DomainError("r must lie in [0, 1)")
    if from_degree not in (0, 1):
        raise DomainError("from_degree must be 0 or 1")
    with np.errstate(over="ignore"):
        mags = np.abs(f.coeffs[from_degree:])
        total = float(np.dot(mags, r ** np.arange(from_degree, f.order + 1)))
    if not math.isfinite(total):
        raise DomainError("the majorant sum exceeds the double range")
    return total


def cauchy_tail_bound(m_rho: float, order: int) -> float:
    """Upper bound on sum_{n > order} |a_n| r^n at r = e^-pi by Cauchy
    estimates on |z| = rho = ``TAIL_RHO``.

    |a_n| <= m_rho / rho^n for any upper bound m_rho on |f| over |z| = rho,
    such as the closed form ``LargeFunctionSpec.modulus_bound``; the
    geometric sum of (r/rho)^n past ``order`` is then exact.
    """
    q = E_PI / TAIL_RHO
    return m_rho * q ** (order + 1) / (1.0 - q)


@dataclass(frozen=True)
class BohrRadiusResult:
    radius: float
    residual: float     # -J(-r) - 1 at the returned radius
    iterations: int


def bohr_radius_solve(order: int = 200) -> BohrRadiusResult:
    """Root of sum_n 16 A_n r^{n+1} = 1 by bisection on [0.01, 0.1].

    The coefficients are strictly positive, so the left side is strictly
    increasing, below -J(-0.01) < 1 at 0.01 and above its first term 1.6 at
    0.1: the root is unique, and it is the Bohr radius e^{-pi}.
    """
    if order < 100:
        raise DomainError("order must be >= 100")
    a = np.array(a_coeffs(order), dtype=float)
    # polynomial 16 (A_0 r + A_1 r^2 + ...) - 1, highest degree first
    poly = np.concatenate([16.0 * a[::-1], [-1.0]])
    lo, hi = 0.01, 0.1
    iterations = 0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if np.polyval(poly, mid) < 0:
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
    """One verified inequality lhs <= rhs + slack.  ``row()`` is its report
    row; every row of ``bohr`` and ``sweeps`` is built by it, and its
    verdict is read from the three numbers of the row alone."""

    name: str
    lhs: float
    rhs: float
    slack: float

    def __post_init__(self):
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            raise DomainError("%s: a side is past the double range or NaN"
                              % self.name)

    @property
    def passed(self) -> bool:
        return bool(self.lhs <= self.rhs + self.slack)

    def row(self) -> dict:
        return {"check": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "pass": self.passed}


class LittlewoodReport(InequalityCheck):
    """Coefficient domination of a subordinate to -J(-z): the largest ratio
    of |a_k| to the degree-k majorant coefficient, against 1."""

    @property
    def max_ratio(self) -> float:
        return self.lhs


def littlewood_check(phi: SchwarzFunction, order: int,
                     kmax: int | None = None) -> LittlewoodReport:
    """Build f = -J(-phi(z)) and compare |a_k| with the majorant coefficient.

    The degree-k coefficient of -J(-z) is 16 A_{k-1} = |J_k|, read from
    ``j_series``; comparing at matching degree is the form Littlewood's
    theorem supports.  As phi(0) = 0, degrees 1..kmax need no higher input,
    so f is formed only to kmax, by pulling -J(-z) back through phi's
    factors (``phi.pull_back``), each factor only to the degree the factors
    applied before it keep.
    """
    kmax = order if kmax is None else min(kmax, order)
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    major = np.abs(j_series(kmax).coeffs)
    f = phi.pull_back(major, kmax)
    ratios = np.abs(f[1:]) / major[1:]
    return LittlewoodReport("littlewood", float(ratios.max()), 1.0,
                            BASE_SLACK)


def main_theorem_check(spec: LargeFunctionSpec,
                       distance: float) -> InequalityCheck:
    """Verify sum_{n>=1} |a_n| r^n <= ``distance``, the caller's
    ``geometry.boundary_distance(spec)``, at r = e^-pi; the lhs is the stored
    prefix's sum plus the Cauchy tail bound from ``spec.modulus_bound``."""
    lhs = bohr_operator(spec.series, E_PI, from_degree=1)
    tail = cauchy_tail_bound(spec.modulus_bound, spec.order)
    return InequalityCheck("theorem-main", lhs + tail, distance, BASE_SLACK)


def von_neumann_check(spec: LargeFunctionSpec, p: TruncatedSeries,
                      distance: float) -> InequalityCheck:
    """Check M(p(F))(r) <= sup of |p| on the unit circle at r = e^-pi.

    Requires the boundary distance ``distance`` of F to be below 1.  p(F)
    is Horner's rule over F's coefficients, each step a ``_truncmul`` and
    p_k added in place.  The tail uses
    |p(F)| <= sum_k |p_k| M^k, M = ``spec.modulus_bound``, and the
    right side samples |p| at 4096 points.  Both sides are reported whether
    or not the inequality holds; past the double range it raises
    ``DomainError``.
    """
    if distance >= 1.0:
        raise DomainError("boundary distance %.6g is not < 1" % distance)
    order, f = spec.order, spec.series.coeffs
    composed = p.coeffs[-1:]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(p.order - 1, -1, -1):
            composed = _truncmul(composed, f, order)
            composed[0] += p.coeffs[k]
        m_p = float(np.polyval(np.abs(p.coeffs[::-1]), spec.modulus_bound))
        rhs = circle_sup(p, 1.0, 4096)
    lhs = bohr_operator(TruncatedSeries(composed), E_PI, from_degree=0)
    tail = cauchy_tail_bound(m_p, order)
    return InequalityCheck("von-neumann", lhs + tail, rhs, BASE_SLACK)


def classical_bohr_check(f: TruncatedSeries) -> InequalityCheck:
    """Sanity check of the classical theorem: |f| < 1 forces M(f) <= 1 at
    r = 1/3.  Such f has |a_n| <= 1 (Cauchy), so the lhs adds r^{N+1} /
    (1 - r), N = ``f.order``, which bounds the dropped terms: it errs high."""
    r = 1.0 / 3.0
    m = bohr_operator(f, r) + r ** (f.order + 1) / (1.0 - r)
    return InequalityCheck("classical-bohr", m, 1.0, BASE_SLACK)


def algebra_properties_check(f: TruncatedSeries, g: TruncatedSeries,
                             r: float) -> list[InequalityCheck]:
    """M is subadditive, submultiplicative and unital; the unit check's
    lhs is |M(1) - 1|, which must vanish exactly."""
    if not 0 <= r < 1:
        raise DomainError("r must lie in [0, 1)")
    total = np.zeros(max(f.order, g.order) + 1, dtype=complex)
    total[: f.order + 1] += f.coeffs
    total[: g.order + 1] += g.coeffs
    msum = bohr_operator(TruncatedSeries(total), r)
    mf, mg = bohr_operator(f, r), bohr_operator(g, r)
    prod = _truncmul(f.coeffs, g.coeffs, f.order + g.order)
    mprod = bohr_operator(TruncatedSeries(prod), r)
    unit = bohr_operator(TruncatedSeries([1.0]), r)
    return [
        InequalityCheck("algebra-additive", msum, mf + mg, BASE_SLACK),
        InequalityCheck("algebra-multiplicative", mprod, mf * mg,
                        BASE_SLACK),
        InequalityCheck("algebra-unit", abs(unit - 1.0), 0.0, 0.0),
    ]
