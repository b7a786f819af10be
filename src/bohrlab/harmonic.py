"""Bohr-type bound for harmonic maps f = h + conj(g).

The analytic part h omits two values; the co-analytic part is produced from
a dilatation mu through g' = mu h', g(0) = 0.  The verified estimate is

    M(h - h(0))(r) + M(g)(r) <= (1 + sup_{|z|<=r} |mu|) d(h(0), boundary)

at the Bohr radius r = e^{-pi}, where d is ``geometry.boundary_distance``
of the analytic part.  The sup-of-mu reading is used for the right-hand
side (a pointwise |mu(z)| does not give a single number).  That sampled
sup may undershoot, which only makes a pass harder.  The tail of M(h) is
``cauchy_tail_bound`` of ``LargeFunctionSpec.modulus_bound``, and that of
M(g) is the same bound times M(mu)(``TAIL_RHO``); both are upper bounds.
A second row checks the domination M(g)(r) <= M(h - h(0))(r) at r = 0.2,
a theorem when M(mu)(t) <= 1 for t <= 1/3, which the stored prefix of every
dilatation the sweep draws meets; nothing is sampled to decide it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bohr import (BASE_SLACK, InequalityCheck, bohr_operator,
                   cauchy_tail_bound)
from .generators import TAIL_RHO, LargeFunctionSpec
from .modular import E_PI
from .series import TruncatedSeries, _truncmul, circle_sup


@dataclass(frozen=True)
class HarmonicPair:
    """h + conj(g), h = spec.series, g integrated from the dilatation."""

    spec: LargeFunctionSpec
    g: TruncatedSeries
    mu: TruncatedSeries

    def __post_init__(self):
        if self.g[0] != 0:
            raise ValueError("g must vanish at 0")


def build_pair(spec: LargeFunctionSpec, mu: TruncatedSeries) -> HarmonicPair:
    """g = integral of mu h' with g(0) = 0, both at the spec's order, from
    coefficient arrays: g' = mu h' by ``_truncmul``, then g_n = g'_{n-1} / n;
    past the double range it raises ``DomainError``."""
    n = np.arange(1, spec.order + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        gprime = _truncmul(mu.coeffs, spec.series.coeffs[1:] * n, n.size - 1)
        g = np.concatenate(([0.0], gprime / n))
    return HarmonicPair(spec, TruncatedSeries(g), mu)


def harmonic_bohr_check(pair: HarmonicPair,
                        distance: float) -> InequalityCheck:
    """Verify the (1 + sup|mu|) boundary-distance bound at r = e^-pi.

    ``distance`` is the caller's ``boundary_distance(pair.spec)``.

    The tail of M(g) is an upper bound: M = ``spec.modulus_bound`` bounds
    |h| on |z| <= rho = ``TAIL_RHO``, so |h_j| <= M / rho^j (Cauchy), and
    G = integral of mu h' has |G_{m+1}| = |sum_k mu_k (m-k+1) h_{m-k+1}| /
    (m+1) <= M(mu)(rho) M / rho^{m+1}.  As g_n = G_n for n <= N, the tail
    past N is at most M(mu)(rho) ``cauchy_tail_bound``(M, N).
    """
    h, g, r = pair.spec.series, pair.g, E_PI
    mh = bohr_operator(h, r, from_degree=1)
    mg = bohr_operator(g, r, from_degree=1)
    tail_h = cauchy_tail_bound(pair.spec.modulus_bound, h.order)
    tail_g = bohr_operator(pair.mu, TAIL_RHO) * tail_h
    with np.errstate(over="ignore", invalid="ignore"):
        sup_mu = circle_sup(pair.mu, r, 1024)
    lhs = mh + mg + tail_h + tail_g
    rhs = (1.0 + sup_mu) * distance
    return InequalityCheck("harmonic-bohr", lhs, rhs, BASE_SLACK)


def majorant_domination_check(pair: HarmonicPair,
                              r: float) -> InequalityCheck:
    """M(g)(r) <= M(h - h(0))(r) for r <= 1/3: lhs the difference, rhs 0.

    A theorem, so no sample and no tail.  Let H be h, cut at order N, and
    G = integral of mu H', mu the stored prefix of a map bounded by 1: it
    can pass 1 on |z| = 1, but for t <= 1/3 M(mu)(t) is at most the map's
    majorant, <= 1 by Bohr's theorem.  M is submultiplicative, so
    M(G') <= M(H'), and integrating gives M(G)(r) <= M(H - H(0))(r).  The
    stored g is G up to degree N, since g_n reads only mu_0..mu_{n-1}, so
    M(g)(r) <= M(G)(r).  Only the rounding of the two sums is left, inside
    ``BASE_SLACK``."""
    lhs = (bohr_operator(pair.g, r, from_degree=1)
           - bohr_operator(pair.spec.series, r, from_degree=1))
    return InequalityCheck("majorant-domination", lhs, 0.0, BASE_SLACK)
