"""The modular function J (elliptic lambda in the nome variable).

J(z) = 16 z prod_{n>=1} [(1 + z^{2n}) / (1 + z^{2n-1})]^8 covers the
twice-punctured plane C \\ {0, 1} from the punctured unit disk.  This module
provides its series expansion (float and exact-integer), the positive
coefficient sequence A_n of -J(-z) = 16 z sum A_n z^n, pointwise evaluation
of J and J' (modular reduction of the nome, then theta sums, in bounded
blocks; non-finite results raise DomainError), the induced covering map
Q(z) = J(exp(-alpha (1+z)/(1-z))), and probabilistic injectivity probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import optimize

from .errors import DomainError, NonPositiveCoefficient
from .series import TruncatedSeries, exp_series

#: The Bohr radius for functions omitting two values.
E_PI = math.exp(-math.pi)

#: Radius of univalence of J.
E_HALF_PI = math.exp(-math.pi / 2)

# ---------------------------------------------------------------------------
# Series expansions


def _int_mul(a: list[int], b: list[int], top: int) -> list[int]:
    out = [0] * (min(top, len(a) + len(b) - 2) + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > top:
            continue
        for j, bj in enumerate(b):
            if i + j > top:
                break
            out[i + j] += ai * bj
    return out


def _int_factor_pow8(n: int, top: int) -> list[int]:
    """((1 + z^{2n}) / (1 + z^{2n-1}))^8 as an exact integer prefix."""
    m = 2 * n - 1
    inv = [0] * (top + 1)
    for k in range(0, top // m + 1):
        inv[k * m] = (-1) ** k
    num = [0] * (top + 1)
    num[0] = 1
    if 2 * n <= top:
        num[2 * n] = 1
    base = _int_mul(num, inv, top)
    out = [1]
    for _ in range(8):
        out = _int_mul(out, base, top)
    return out


@lru_cache(maxsize=None)
def j_coeffs_exact(order: int) -> tuple[int, ...]:
    """Exact integer coefficients of J up to the given degree (<= 21).

    The cap keeps every intermediate value well inside 64-bit range; the
    guard below certifies that at run time.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    if order > 21:
        raise DomainError("exact mode is capped at degree 21")
    top = order - 1
    prod = [1] + [0] * top
    n = 1
    while 2 * n - 1 <= top:
        prod = _int_mul(prod, _int_factor_pow8(n, top), top)
        n += 1
    coeffs = [0] + [16 * c for c in prod]
    if any(abs(c) >= 2**63 for c in coeffs):
        raise OverflowError("exact J coefficients left the 64-bit range")
    return tuple(coeffs[: order + 1])


@lru_cache(maxsize=None)
def j_series(order: int) -> TruncatedSeries:
    """Float series of J to the given degree."""
    if order < 1:
        raise DomainError("order must be >= 1")
    top = order - 1
    prod = np.zeros(top + 1)
    prod[0] = 1.0
    n = 1
    while 2 * n - 1 <= top:
        m = 2 * n - 1
        inv = np.zeros(top + 1)
        inv[::m][: top // m + 1] = [(-1) ** k for k in range(top // m + 1)]
        num = np.zeros(top + 1)
        num[0] = 1.0
        if 2 * n <= top:
            num[2 * n] = 1.0
        factor = np.convolve(num, inv)[: top + 1]
        for _ in range(3):  # factor^8 via three squarings
            factor = np.convolve(factor, factor)[: top + 1]
        prod = np.convolve(prod, factor)[: top + 1]
        n += 1
    coeffs = np.concatenate([[0.0], 16.0 * prod])
    return TruncatedSeries(coeffs, "J")


@dataclass(frozen=True)
class ModularCoefficients:
    """The positive sequence A_n with -J(-z) = 16 z sum A_n z^n.

    ``a_exact`` holds the integer values for small n (degree <= 20 of J);
    ``a_float`` extends to ``order`` in double precision.  Positivity,
    monotonicity and convexity are structural facts about J, so violations
    signal an implementation bug and are rejected at construction.
    """

    a_exact: tuple[int, ...]
    a_float: np.ndarray
    order: int

    def __post_init__(self):
        a = np.asarray(self.a_float, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "a_float", a)
        if a.size != self.order + 1:
            raise ValueError("a_float must have order + 1 entries")
        if np.any(a <= 0):
            raise NonPositiveCoefficient(
                "A_n must be strictly positive; first offender at n=%d"
                % int(np.argmax(a <= 0))
            )
        if np.any(np.diff(a) < 0):
            raise NonPositiveCoefficient("A_n must be nondecreasing")
        if a.size >= 3 and np.any(np.diff(a, 2) < 0):
            raise NonPositiveCoefficient("A_n must be convex")
        for n, v in enumerate(self.a_exact):
            if v != a[n]:
                raise ValueError("exact and float A_%d disagree" % n)


def a_coeffs(order: int) -> ModularCoefficients:
    """Compute A_0..A_order from the series of J."""
    if order < 2:
        raise DomainError("order must be >= 2")
    js = j_series(order + 1)
    signs = (-1.0) ** np.arange(order + 1)
    a_float = signs * js.coeffs[1:].real / 16.0
    n_exact = min(order, 19)
    exact = j_coeffs_exact(n_exact + 2)
    a_exact = tuple(
        (-1) ** n * exact[n + 1] // 16 for n in range(n_exact + 1)
    )
    return ModularCoefficients(a_exact, a_float, order)


def minus_j_minus_series(order: int) -> TruncatedSeries:
    """Series of the majorant -J(-z); all coefficients are positive."""
    js = j_series(order)
    signs = -((-1.0) ** np.arange(order + 1))
    return TruncatedSeries(signs * js.coeffs, "-J(-z)")


# ---------------------------------------------------------------------------
# Evaluation by modular reduction
#
# With w = e^{i pi tau}, J(w) = lambda(tau) = (theta_2 / theta_3)^4 at nome w.
# The modular group acts on lambda through the anharmonic group:
# lambda(tau + 1) = lambda / (lambda - 1), which is w -> -w, and
# lambda(-1/tau) = 1 - lambda, which is log w -> pi^2 / log w.  Reducing
# tau to |Re tau| <= 1/2, |tau| >= _FLIP_BELOW leaves |w| <= _REDUCED_RADIUS,
# where three terms of each theta series reach double precision: the first
# omitted one, 2 w^16 in theta_3, is below 4e-19.

#: A reduction step inverts tau when |tau| is below this.  It sits under 1
#: so that rounding cannot undo an inversion: each one multiplies Im tau by
#: more than 1/_FLIP_BELOW^2, so the loop ends.
_FLIP_BELOW = 0.995

#: Largest |w| of a reduced point, e^{-pi sqrt(_FLIP_BELOW^2 - 1/4)} ≈ 0.067;
#: points inside it are summed as they are.
_REDUCED_RADIUS = math.exp(-math.pi * math.sqrt(_FLIP_BELOW ** 2 - 0.25))

#: Points per evaluation block; bounds the temporaries of large inputs.
_BLOCK = 8192

_PI_SQ = math.pi ** 2

# The anharmonic group as Moebius maps x -> (a x + b) / (c x + d), indexed
# 0..5: x, 1 - x (tau -> -1/tau), x / (x - 1) (tau -> tau + 1), 1/x,
# 1 / (1 - x) and (x - 1) / x.  _AFTER_INVERT[g] and _AFTER_SHIFT[g] are
# the indices of g composed with 1 - x and with x / (x - 1).
_MOBIUS = np.array([(1, 0, 0, 1), (-1, 1, 0, 1), (1, 0, 1, -1),
                    (0, 1, 1, 0), (0, 1, -1, 1), (1, -1, 1, 0)], dtype=np.int8)
_DET = _MOBIUS[:, 0] * _MOBIUS[:, 3] - _MOBIUS[:, 1] * _MOBIUS[:, 2]
_SHIFT = 2
_AFTER_INVERT = np.array([1, 0, 5, 4, 3, 2])
_AFTER_SHIFT = np.array([2, 4, 0, 5, 1, 3])


def _reduce(w: np.ndarray, deriv: bool):
    """Move the nomes w into |w| <= _REDUCED_RADIUS.

    Returns the reduced nomes, the index g of the anharmonic map with
    J(w_in) = M_g(J(w_out)), and, when ``deriv``, d tau_out / d tau_in.
    The first shift negates w, which is exact; later ones act on log w,
    where the inversion already rounds.
    """
    neg = w.real < 0
    sigma = np.log(np.where(neg, -w, w))           # i pi tau
    g = np.where(neg, _SHIFT, 0)
    dtau = np.ones_like(w) if deriv else None
    while True:
        flip = np.abs(sigma) < math.pi * _FLIP_BELOW
        if not flip.any():
            return np.exp(sigma), g, dtau
        sigma = np.where(flip, _PI_SQ / sigma, sigma)
        g = np.where(flip, _AFTER_INVERT[g], g)
        if deriv:              # d(-1/tau)/d tau = (-1/tau)^2 = -sigma^2/pi^2
            dtau = np.where(flip, dtau * sigma * sigma / -_PI_SQ, dtau)
        shift = np.rint(sigma.imag / math.pi)     # lambda has period 2
        sigma.imag -= math.pi * shift
        g = np.where(shift % 2 == 0, g, _AFTER_SHIFT[g])


def _theta_terms(w: np.ndarray):
    """J(w) / w and theta_3(w) for |w| <= _REDUCED_RADIUS.

    theta_2^4 = 16 w (1 + w^2 + w^6 + w^12)^4 and
    theta_3 = 1 + 2 (w + w^4 + w^9), both in Horner form.
    """
    w2 = w * w
    p = w2 * w                                  # w^3
    s3 = 1.0 + 2.0 * w * (1.0 + p * (1.0 + p * w2))
    p = w2 * w2                                 # w^4
    ratio = (1.0 + w2 * (1.0 + p * (1.0 + p * w2))) / s3
    ratio = ratio * ratio
    return 16.0 * ratio * ratio, s3


def _evaluate_block(w: np.ndarray, deriv: bool) -> np.ndarray:
    """J(w), or J'(w) when ``deriv``, on a flat block of disk points."""
    far = np.abs(w) > _REDUCED_RADIUS
    any_far = far.any()
    wr = w.copy()
    if any_far:
        wr[far], g, dtau = _reduce(w[far], deriv)
    if not deriv:
        lam = wr * _theta_terms(wr)[0]
        if any_far:
            x = lam[far]
            a, b, c, d = _MOBIUS[g].T
            lam[far] = (a * x + b) / (c * x + d)
        return lam
    # w lambda'(w) = lambda (1 - lambda) theta_3^4 at the reduced point;
    # the chain rule through J = M_g(lambda(tau_out)), w = e^{i pi tau_in}
    # carries it back.
    j_over_w, theta3 = _theta_terms(wr)
    lam = wr * j_over_w
    t2 = theta3 * theta3
    out = j_over_w * (1.0 - lam) * t2 * t2
    if any_far:
        _, _, c, d = _MOBIUS[g].T
        den = c * lam[far] + d
        out[far] = out[far] * _DET[g] / (den * den) * dtau * wr[far] / w[far]
    return out


def _evaluate(z, deriv: bool):
    z = np.asarray(z, dtype=complex)
    _check_disk(z)
    flat = z.reshape(-1)
    with np.errstate(all="ignore"):
        if flat.size <= _BLOCK:            # no separate output array
            out = _evaluate_block(flat, deriv)
        else:
            out = np.empty_like(flat)
            for k in range(0, flat.size, _BLOCK):
                out[k:k + _BLOCK] = _evaluate_block(flat[k:k + _BLOCK], deriv)
    if not np.isfinite(out).all():
        raise DomainError("%s exceeds the double range near a cusp"
                          % ("J'" if deriv else "J"))
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def _check_disk(z: np.ndarray):
    if not (np.abs(z) < 1).all():
        if not np.isfinite(z).all():
            raise DomainError("input is not finite")
        raise DomainError("evaluation requires |z| < 1")


def j_eval(z):
    """J(z) by modular reduction and theta sums, in blocks of _BLOCK
    points; keeps the shape of array input."""
    return _evaluate(z, deriv=False)


def j_deriv(z):
    """J'(z) from w J'(w) = J (1 - J) theta_3(w)^4 at the reduced point,
    carried back through the reduction by the chain rule."""
    return _evaluate(z, deriv=True)


def j_max_modulus(r: float, samples: int = 4096) -> tuple[float, float]:
    """Sampled circle maximum of |J| with its angle.

    The maximum of |J| on |z| = r sits on the negative real axis, so the
    returned angle should land within one grid step of pi.
    """
    if not 0 < r < 1:
        raise DomainError("r must lie in (0, 1)")
    if samples < 64:
        raise DomainError("need at least 64 samples")
    theta = 2 * np.pi * np.arange(samples) / samples
    vals = np.abs(j_eval(r * np.exp(1j * theta)))
    k = int(np.argmax(vals))
    return float(vals[k]), float(theta[k])


# ---------------------------------------------------------------------------
# The covering map Q


@dataclass(frozen=True)
class CoveringParameter:
    """Positive exponent of the cover Q(z) = J(exp(-alpha (1+z)/(1-z)))."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError("alpha must be positive")


def _alpha_value(alpha) -> float:
    return alpha.alpha if isinstance(alpha, CoveringParameter) else float(
        CoveringParameter(float(alpha)).alpha
    )


def q_argument(alpha, z):
    """exp(-alpha (1+z)/(1-z)); maps the disk into the punctured disk."""
    a = _alpha_value(alpha)
    z = np.asarray(z, dtype=complex)
    _check_disk(np.atleast_1d(z))
    return np.exp(-a * (1.0 + z) / (1.0 - z))


def q_eval(alpha, z):
    """Q(z): covering map onto C \\ {0, 1} with Q(0) = J(e^{-alpha})."""
    return j_eval(q_argument(alpha, z))


def q_deriv(alpha, z):
    """Q'(z) by the chain rule through J'."""
    a = _alpha_value(alpha)
    z = np.asarray(z, dtype=complex)
    w = q_argument(a, z)
    return j_deriv(w) * w * (-2.0 * a / (1.0 - z) ** 2)


@lru_cache(maxsize=64)
def _q_series_cached(alpha: float, order: int, nodes: int) -> TruncatedSeries:
    w0 = math.exp(-alpha)
    rho = 0.5 * (1.0 - w0)
    theta = 2 * np.pi * np.arange(nodes) / nodes
    circle = w0 + rho * np.exp(1j * theta)
    vals = j_eval(circle)
    # Taylor coefficients of J about w0 by discretized Cauchy integrals.
    taylor = (np.fft.fft(vals) / nodes)[: order + 1]
    taylor /= rho ** np.arange(order + 1)
    recentred = TruncatedSeries(taylor, "J about e^-alpha")
    # (1+z)/(1-z) = 1 + 2z + 2z^2 + ...
    mob = np.full(order + 1, -2.0 * alpha, dtype=complex)
    mob[0] = -alpha
    w = exp_series(TruncatedSeries(mob), order)
    u = w - TruncatedSeries.constant(w[0])  # exact zero constant term
    return recentred.compose(u, order)


def q_series(alpha, order: int, nodes: int = 2048) -> TruncatedSeries:
    """Series of Q about 0.

    J is recentred about w0 = e^{-alpha} by Cauchy integrals on a circle of
    radius (1 - w0)/2, then composed with the series of
    exp(-alpha (1+z)/(1-z)) - w0.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    if nodes <= 2 * order:
        raise DomainError("need more quadrature nodes than 2*order")
    return _q_series_cached(_alpha_value(alpha), order, nodes)


# ---------------------------------------------------------------------------
# Injectivity probes


@dataclass(frozen=True)
class ProbeReport:
    """Result of a randomized injectivity probe of J on |z| <= r."""

    r: float
    trials: int
    seed: int
    min_ratio: float            # min |J(z1)-J(z2)| / |z1-z2|
    collisions: tuple = ()      # pairs with relative ratio below threshold

    @property
    def collision_count(self) -> int:
        return len(self.collisions)


def univalence_probe(
    r: float, trials: int, seed: int, threshold: float = 1e-12
) -> ProbeReport:
    """Search random pairs in |z| <= r for near-equal J values.

    Zero collisions are expected for r below the univalence radius
    e^{-pi/2}; collisions above it are genuine (J is 2-to-1 near the
    imaginary axis there).
    """
    if not 0 < r < 1:
        raise DomainError("r must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    radii = r * np.sqrt(rng.random((2, trials)))
    angles = 2 * np.pi * rng.random((2, trials))
    z = radii * np.exp(1j * angles)
    dz = np.abs(z[0] - z[1])
    keep = dz > 1e-14
    z1, z2, dz = z[0][keep], z[1][keep], dz[keep]
    ratio = np.abs(j_eval(z1) - j_eval(z2)) / dz
    hits = np.nonzero(ratio < threshold)[0]
    collisions = tuple(
        (complex(z1[i]), complex(z2[i])) for i in hits[:32]
    )
    return ProbeReport(r, trials, seed, float(ratio.min(initial=np.inf)),
                       collisions)


@dataclass(frozen=True)
class CollisionReport:
    """Outcome of a local search for a genuine pair J(z1) = J(z2)."""

    r: float
    z1: complex
    z2: complex
    value_gap: float            # |J(z1) - J(z2)|
    separation: float           # |z1 - z2|
    found: bool


def collision_search(
    r: float = 0.35, seed: int = 0, restarts: int = 24,
    gap_target: float = 1e-8, min_separation: float = 0.02,
) -> CollisionReport:
    """Minimize |J(z1) - J(z2)| over well-separated pairs in |z| <= r.

    For r above the univalence radius the infimum is 0, attained e.g. along
    the family (-i e^{-pi t}, i e^{-pi/(4t)}); random multistart descent
    recovers such a pair.
    """
    if not 0 < r < 1:
        raise DomainError("r must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    rmax = 0.999 * r

    def clip(w: complex) -> complex:
        return w if abs(w) <= rmax else w * rmax / abs(w)

    def objective(x):
        z1, z2 = complex(x[0], x[1]), complex(x[2], x[3])
        pen = sum(100.0 * max(0.0, abs(w) - rmax) ** 2 for w in (z1, z2))
        z1, z2 = clip(z1), clip(z2)
        pen += 100.0 * max(0.0, min_separation - abs(z1 - z2)) ** 2
        gap = abs(j_eval(z1) - j_eval(z2))
        return gap * gap + pen

    best = None
    for _ in range(restarts):
        x0 = rng.uniform(-rmax, rmax, size=4)
        res = optimize.minimize(objective, x0, method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-24,
                                         "maxiter": 4000})
        if best is None or res.fun < best.fun:
            best = res
        if best.fun < gap_target ** 2 / 4:
            break
    x = best.x
    z1, z2 = complex(x[0], x[1]), complex(x[2], x[3])
    if abs(z1) > rmax:
        z1 *= rmax / abs(z1)
    if abs(z2) > rmax:
        z2 *= rmax / abs(z2)
    gap = float(abs(j_eval(z1) - j_eval(z2)))
    sep = float(abs(z1 - z2))
    found = gap < gap_target and sep >= min_separation
    return CollisionReport(r, z1, z2, gap, sep, found)
