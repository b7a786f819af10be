"""The majorant operator M(f) = sum |a_n| r^n, the radius solver, and the
inequality verifiers built on it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .generators import TAIL_RHO, LargeFunctionSpec, SchwarzFunction
from .geometry import boundary_distance
from .modular import E_PI, a_coeffs, j_eval, minus_j_minus_series
from .series import TruncatedSeries, circle_sup

#: Absolute slack of the checks whose sides are sums of many rounded terms
#: (the Bohr majorants, the algebra of M and the harmonic identity); any
#: tail bound is added to the lhs.  The other rows carry their own slack:
#: 0, 1e-14, 1e-10, 1e-8 or 1e-6.
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
        raise DomainError("no sign change of the majorant sum on %r"
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
    """One verified inequality lhs <= rhs + slack.  ``row()`` is its report
    row; every row of ``bohr`` and ``sweeps`` is built by it, and its
    verdict is read from the three numbers of the row alone."""

    name: str
    lhs: float
    rhs: float
    slack: float
    extra: dict = field(default_factory=dict)

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

    The degree-k coefficient of -J(-z) is 16 A_{k-1}; the comparison at
    matching degree is the form Littlewood's theorem supports.  As phi(0)
    = 0, degrees 1..kmax need no higher input, so f is formed only to kmax,
    by pulling -J(-z) back through phi's factors (``phi.pull_back``), each
    factor only to the degree the factors applied before it keep.
    """
    kmax = order if kmax is None else min(kmax, order)
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    major = minus_j_minus_series(kmax)
    f = phi.pull_back(major.coeffs, kmax)
    ratios = np.abs(f[1:]) / major.coeffs[1:].real
    return LittlewoodReport("littlewood", float(ratios.max()), 1.0,
                            BASE_SLACK)


def main_theorem_check(spec: LargeFunctionSpec) -> InequalityCheck:
    """Verify sum_{n>=1} |a_n| r^n <= dist(F(0), boundary of F(U)) at the
    Bohr radius r = e^-pi; the lhs is the sum over the stored prefix plus
    the Cauchy tail bound of the rest, from ``spec.modulus_bound``."""
    lhs = bohr_operator(spec.series, E_PI, from_degree=1)
    tail = cauchy_tail_bound(spec.modulus_bound, spec.order)
    return InequalityCheck("theorem-main", lhs + tail,
                           boundary_distance(spec), BASE_SLACK)


def von_neumann_check(spec: LargeFunctionSpec, p: TruncatedSeries,
                      distance: float) -> InequalityCheck:
    """Check M(p(F))(r) <= sup of |p| on the unit circle at r = e^-pi.

    Requires the boundary distance ``distance`` of F to be below 1.  p(F)
    is Horner's rule over F's truncated series.  The tail uses
    |p(F)| <= sum_k |p_k| M^k, M = ``spec.modulus_bound``, and the
    right side samples |p| at 4096 points.  Both sides are reported whether
    or not the inequality holds.
    """
    if distance >= 1.0:
        raise DomainError("boundary distance %.6g is not < 1" % distance)
    order, f = spec.order, spec.series
    composed = TruncatedSeries.constant(p[p.order])
    for k in range(p.order - 1, -1, -1):
        composed = composed.mul(f, order) + p[k]
    lhs = bohr_operator(composed, E_PI, from_degree=0)
    m_p = float(np.polyval(np.abs(p.coeffs[::-1]), spec.modulus_bound))
    tail = cauchy_tail_bound(m_p, order)
    rhs = circle_sup(p, 1.0, 4096)
    return InequalityCheck("von-neumann", lhs + tail, rhs, BASE_SLACK)


def classical_bohr_check(f: TruncatedSeries) -> InequalityCheck:
    """Sanity check of the classical theorem: |f| < 1 forces M(f) <= 1 at
    r = 1/3."""
    m = bohr_operator(f, 1.0 / 3.0)
    return InequalityCheck("classical-bohr", m, 1.0, BASE_SLACK)


def algebra_properties_check(f: TruncatedSeries, g: TruncatedSeries,
                             r: float) -> list[InequalityCheck]:
    """M is subadditive, submultiplicative and unital; the unit check's
    lhs is |M(1) - 1|, which must vanish exactly."""
    if not 0 <= r < 1:
        raise DomainError("r must lie in [0, 1)")
    msum = bohr_operator(f + g, r)
    mf, mg = bohr_operator(f, r), bohr_operator(g, r)
    prod = f.mul(g)
    mprod = bohr_operator(prod, r)
    unit = bohr_operator(TruncatedSeries.constant(1.0), r)
    return [
        InequalityCheck("algebra-additive", msum, mf + mg, BASE_SLACK),
        InequalityCheck("algebra-multiplicative", mprod, mf * mg,
                        BASE_SLACK),
        InequalityCheck("algebra-unit", abs(unit - 1.0), 0.0, 0.0),
    ]
