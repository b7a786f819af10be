"""Hyperbolic density of covering maps and the boundary distance.

A covering parameterization G of a hyperbolic domain induces the density
lambda(G(z)) = 1 / (|G'(z)| (1 - |z|^2)); together with the distance to the
domain boundary it satisfies lambda(w) d(w, boundary) <= 1.  The right side
of the main inequality is one number, ``boundary_distance(spec)`` from
F(0) = ``spec.series[0]``: exact for an inner phi, else sampled on one
circle close to |z| = 1.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .generators import LargeFunctionSpec
from .modular import q_deriv, q_eval
from .series import unit_ring


#: Radius and node count of the circle whose image gives a sampled distance.
_BOUNDARY_RADIUS = 1.0 - 2.0 ** -14
_BOUNDARY_NODES = 4096


def boundary_distance(spec: LargeFunctionSpec) -> float:
    """Distance from F(0) to the boundary of the image of F.

    F(0) is ``spec.series[0]``, a + (b - a) Q(0) from the theta sums of
    ``q_series``, so no J point is evaluated for it.  When the inner
    Schwarz factor is a finite Blaschke product the image is the whole
    plane minus the two omitted points and the distance is exact.
    Otherwise F(0) is compared with the image of the circle
    |z| = 1 - 2^-14, sampled at 4096 nodes; the minimum, capped by the
    distance to the omitted points, is returned.  That minimum measures the
    distance to the image curve, not to the boundary of F(U): the two agree
    in the limit only when F is univalent.  Otherwise the curve can pass
    close to F(0) far inside F(U), so the sampled distance can fall far
    below the true one (seed-7 theorem4 trial 75: 0.00273 against about
    0.065, with the curve winding three times about F(0)).  A distance that
    is too small only makes a majorant inequality harder to pass, so a
    circle-sampled distance certifies a pass and does not certify a fail.
    """
    f0 = spec.series[0]
    omitted = min(abs(f0 - spec.a), abs(f0 - spec.b))
    if spec.phi.is_inner:
        return omitted
    vals = spec.eval(_BOUNDARY_RADIUS * unit_ring(_BOUNDARY_NODES))
    return min(omitted, float(np.abs(vals - f0).min()))


def density_distance_products(points, alpha=None) -> np.ndarray:
    """lambda(G(z)) d(G(z), boundary) = d / (|G'(z)| (1 - |z|^2)) at each
    point of the disk.

    G is the cover Q_alpha of C \\ {0, 1}, with d = min(|Q|, |Q - 1|), from
    one call each of ``q_eval`` and ``q_deriv``; with ``alpha`` None it is
    the identity of the disk, with d = 1 - |z|.
    """
    z = np.atleast_1d(np.asarray(points, dtype=complex))
    if not (np.abs(z) < 1).all():
        raise DomainError("density is defined for |z| < 1")
    if alpha is None:
        dist, speed = 1.0 - np.abs(z), 1.0
    else:
        w = q_eval(alpha, z)
        dist = np.minimum(np.abs(w), np.abs(w - 1.0))
        speed = np.abs(q_deriv(alpha, z))
        flat = np.flatnonzero(speed < 1e-300)
        if flat.size:
            raise DomainError("covering derivative vanished at %r"
                              % complex(z[flat[0]]))
    return 1.0 / (speed * (1.0 - np.abs(z) ** 2)) * dist
