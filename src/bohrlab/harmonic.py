"""Bohr-type bound for harmonic maps f = h + conj(g).

The analytic part h omits two values; the co-analytic part is produced from
a dilatation mu through g' = mu h', g(0) = 0.  The verified estimate is

    M(h - h(0))(r) + M(g)(r) <= (1 + sup_{|z|<=r} |mu|) d(h(0), boundary)

at the Bohr radius r = e^{-pi}, where d is ``geometry.boundary_distance``
of the analytic part.  The sup-of-mu reading is used for the right-hand
side (a pointwise |mu(z)| does not give a single number).  That sampled
sup may undershoot, which only makes a pass harder; the tails of M(h) and
M(g) are closed-form upper bounds from ``LargeFunctionSpec.modulus_bound``.
The identity M(g)(r) = integral_0^r M(g')(t) dt is checked with a
Gauss-Legendre rule, exact for M(g'), in one row with the domination
M(g)(r) <= M(h - h(0))(r) that |mu| <= 1 forces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bohr import (BASE_SLACK, InequalityCheck, bohr_operator,
                   cauchy_tail_bound)
from .generators import TAIL_RHO, LargeFunctionSpec
from .modular import E_PI
from .series import TruncatedSeries, circle_sup


@dataclass(frozen=True)
class HarmonicPair:
    """h + conj(g) with g integrated from the dilatation."""

    spec: LargeFunctionSpec
    h: TruncatedSeries
    g: TruncatedSeries
    mu: TruncatedSeries

    def __post_init__(self):
        if self.g[0] != 0:
            raise ValueError("g must vanish at 0")


def build_pair(spec: LargeFunctionSpec, mu: TruncatedSeries) -> HarmonicPair:
    """g = integral of mu h' with g(0) = 0, both at the spec's order."""
    h = spec.series
    gprime = mu.mul(h.differentiate(), spec.order - 1)
    return HarmonicPair(spec, h, gprime.integrate(), mu)


#: Points of each circle on which sup|mu| is sampled.
_MU_NODES = 1024


def _g_tail_bound(pair: HarmonicPair, m_rho: float) -> float:
    """Tail of M(g) past the stored order at r = e^-pi.

    mu is an exact polynomial, so tail error in g comes from the tail of h:
    |(mu h')_m| <= S sum_{j<=m} (j+1) M_rho / rho^{j+1}, integrated
    termwise, with rho = TAIL_RHO.  M_rho is the closed form
    ``spec.modulus_bound``, and S = M(mu)(0.999) is at least sup|mu|
    on |z| <= 0.999 and at least sum_k |mu_k| rho^k, so neither is sampled.
    The resulting majorant decays like (r/rho)^n and the finite sum below
    overshoots the true tail.
    """
    order, rho = pair.g.order, TAIL_RHO
    mu_bound = bohr_operator(pair.mu, 0.999)
    n = np.arange(order + 1, order + 200)
    terms = (n + 1.0) ** 2 / (1.0 - rho) * m_rho * (E_PI / rho) ** n
    return float(mu_bound * terms.sum())


def harmonic_bohr_check(pair: HarmonicPair,
                        distance: float) -> InequalityCheck:
    """Verify the (1 + sup|mu|) boundary-distance bound at r = e^-pi.

    ``distance`` is ``boundary_distance(pair.spec)``, passed in by the
    caller so that a sweep sharing the spec samples its boundary once.
    """
    h, g, r = pair.h, pair.g, E_PI
    mh = bohr_operator(h, r, from_degree=1)
    mg = bohr_operator(g, r, from_degree=1)
    m_rho = pair.spec.modulus_bound
    tail_h = cauchy_tail_bound(m_rho, h.order)
    tail_g = _g_tail_bound(pair, m_rho)
    sup_mu = circle_sup(pair.mu, r, _MU_NODES)
    lhs = mh + mg + tail_h + tail_g
    rhs = (1.0 + sup_mu) * distance
    return InequalityCheck(
        "harmonic-bohr", lhs, rhs, BASE_SLACK,
        {"analytic_majorant": mh, "coanalytic_majorant": mg,
         "sup_mu": sup_mu},
    )


@lru_cache(maxsize=None)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights moved to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def mg_integral_identity_check(pair: HarmonicPair,
                               r: float) -> InequalityCheck:
    """M(g)(r) equals the integral of M(g') from 0 to r, and M(g)(r) <=
    M(h - h(0))(r) when sup|mu| <= 1 on |z| = 0.999.

    Termwise: integrating |g_n| n t^{n-1} reproduces |g_n| r^n.  M(g') is a
    polynomial with ``size`` coefficients, so Gauss-Legendre with
    size // 2 + 1 nodes integrates it exactly; only rounding is left.  All
    nodes, weights and coefficients are positive, so nothing cancels, and
    ``quad_error`` = 4 size eps |integral| bounds that rounding.  The row's
    lhs is the larger of gap - quad_error and, when the domination applies,
    M(g)(r) - M(h - h(0))(r); it passes when at most ``BASE_SLACK``.
    """
    g = pair.g
    gp_mags = np.abs(g.differentiate().coeffs)
    t, w = _gauss_legendre(gp_mags.size // 2 + 1)
    powers = (r * t)[:, None] ** np.arange(gp_mags.size)
    integral = r * float(w @ (powers @ gp_mags))
    quad_err = 4 * gp_mags.size * float(np.finfo(float).eps) * abs(integral)
    direct = bohr_operator(g, r, from_degree=1)
    lhs = abs(integral - direct) - quad_err
    extra = {"integral": integral, "quad_error": quad_err}
    if circle_sup(pair.mu, 0.999, _MU_NODES) <= 1.0 + 1e-12:
        mh_shifted = bohr_operator(pair.h, r, from_degree=1)
        extra["domination_margin"] = mh_shifted - direct
        lhs = max(lhs, direct - mh_shifted)
    return InequalityCheck("mg-integral-identity", lhs, 0.0, BASE_SLACK,
                           extra)
