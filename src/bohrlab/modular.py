"""The modular function J (elliptic lambda in the nome variable).

J(z) = 16 z prod_{n>=1} [(1 + z^{2n}) / (1 + z^{2n-1})]^8 covers the
twice-punctured plane C \\ {0, 1} from the punctured unit disk.  This module
provides its series expansion (exact integers and their nearest doubles),
the positive coefficient sequence A_n of -J(-z) = 16 z sum A_n z^n,
pointwise evaluation of J and J' (modular reduction of the nome, then
theta sums, in bounded blocks; non-finite results raise DomainError), the
induced covering map Q(z) = J(exp(-alpha (1+z)/(1-z))), a certificate
that J is starlike, hence univalent, on a circle below its univalence
radius, and a closed-form pair with J(z1) = J(z2) beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .series import TruncatedSeries, inverse, unit_ring

#: The Bohr radius for functions omitting two values.
E_PI = math.exp(-math.pi)

#: Radius of univalence of J.
E_HALF_PI = math.exp(-math.pi / 2)

#: Highest degree of J's series: the exact recurrence is quadratic in the
#: order, and ``coeffs --order 4096`` (degree 4097) takes about 2 s.
MAX_SERIES_ORDER = 4097

# ---------------------------------------------------------------------------
# Series expansions


def log_coeffs_exact(top: int) -> list[int]:
    """The integers k L_k, k = 0..top, of L = log(J / (16 z)).

    The product is 16 z exp(L) with k L_k = 8 sum_{m|k} eps(m)
    (-1)^{k/m+1} m, eps(m) = +1 for even m and -1 for odd m (the log of
    (1 + z^m)^{8 eps(m)}); so |k L_k| <= 8 sigma(k), sigma the divisor sum.
    """
    kl = [0] * (top + 1)
    for m in range(1, top + 1):
        term = 8 * m if m % 2 == 0 else -8 * m
        for k in range(m, top + 1, m):
            kl[k] += term if (k // m) % 2 == 1 else -term
    return kl


@lru_cache(maxsize=None)
def j_coeffs_exact(order: int) -> tuple[int, ...]:
    """Exact integer coefficients of J up to the given degree, at most
    ``MAX_SERIES_ORDER``: e = exp(L) from n e_n = sum_k k L_k e_{n-k} in
    Python ints, with k L_k from ``log_coeffs_exact``.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    if order > MAX_SERIES_ORDER:
        raise DomainError("degree %d of J's series is above the limit %d"
                          % (order, MAX_SERIES_ORDER))
    top = order - 1
    kl = log_coeffs_exact(top)
    e = [1] + [0] * top
    for n in range(1, top + 1):
        e[n] = sum(kl[k] * e[n - k] for k in range(1, n + 1)) // n
    return (0,) + tuple(16 * c for c in e)


@lru_cache(maxsize=None)
def j_series(order: int) -> TruncatedSeries:
    """Float series of J to the given degree: each coefficient is the
    double nearest to its exact integer from ``j_coeffs_exact``."""
    return TruncatedSeries([float(c) for c in j_coeffs_exact(order)], "J")


@dataclass(frozen=True)
class ModularCoefficients:
    """The positive sequence A_n with -J(-z) = 16 z sum A_n z^n.

    ``a_exact`` holds the integers A_0..A_order and ``a_float`` the
    nearest doubles.  Positivity, monotonicity and convexity are
    structural facts about J, so violations signal an implementation bug
    and are rejected at construction.
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
        if (a <= 0).any():
            raise DomainError(
                "A_n must be strictly positive; first offender at n=%d"
                % int(np.argmax(a <= 0))
            )
        if (np.diff(a) < 0).any():
            raise DomainError("A_n must be nondecreasing")
        if a.size >= 3 and (np.diff(a, 2) < 0).any():
            raise DomainError("A_n must be convex")


def a_coeffs(order: int) -> ModularCoefficients:
    """A_0..A_order from the exact series of J."""
    if order < 2:
        raise DomainError("order must be >= 2")
    exact = j_coeffs_exact(order + 1)
    a_exact = tuple((-1) ** n * exact[n + 1] // 16 for n in range(order + 1))
    return ModularCoefficients(a_exact, [float(a) for a in a_exact], order)


@lru_cache(maxsize=None)
def minus_j_minus_series(order: int) -> TruncatedSeries:
    """Series of the majorant -J(-z), cached per order like ``j_series``;
    all coefficients are positive."""
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
    live = np.arange(w.size)         # a point not inverted is done
    while True:
        s = sigma[live]
        flip = np.abs(s) < math.pi * _FLIP_BELOW
        if not flip.any():
            return np.exp(sigma), g, dtau
        live, s = live[flip], _PI_SQ / s[flip]
        gl = _AFTER_INVERT[g[live]]
        if deriv:              # d(-1/tau)/d tau = (-1/tau)^2 = -sigma^2/pi^2
            dtau[live] = dtau[live] * s * s / -_PI_SQ
        shift = np.rint(s.imag / math.pi)         # lambda has period 2
        s.imag -= math.pi * shift
        sigma[live] = s
        g[live] = np.where(shift % 2 == 0, gl, _AFTER_SHIFT[gl])


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


# ---------------------------------------------------------------------------
# The covering map Q


@dataclass(frozen=True)
class CoveringParameter:
    """Positive exponent of the cover Q(z) = J(exp(-alpha (1+z)/(1-z)))."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise DomainError("alpha must be finite, not %r" % self.alpha)
        if not self.alpha > 0:
            raise DomainError("alpha must be positive")


def _alpha_value(alpha) -> float:
    return alpha.alpha if isinstance(alpha, CoveringParameter) else float(
        CoveringParameter(float(alpha)).alpha
    )


def q_argument(alpha, z):
    """exp(-alpha (1+z)/(1-z)); maps the disk into the punctured disk.
    In floating point it rounds to modulus 1 when alpha Re (1+z)/(1-z)
    is below about 1e-16, and that raises ``DomainError``."""
    a = _alpha_value(alpha)
    z = np.asarray(z, dtype=complex)
    _check_disk(np.atleast_1d(z))
    w = np.exp(-a * (1.0 + z) / (1.0 - z))
    if not (np.abs(w) < 1).all():
        raise DomainError("the nome exp(-alpha (1+z)/(1-z)) rounds to "
                          "modulus 1 (alpha = %r)" % a)
    return w


def q_eval(alpha, z):
    """Q(z): covering map onto C \\ {0, 1} with Q(0) = J(e^{-alpha})."""
    return j_eval(q_argument(alpha, z))


def q_deriv(alpha, z):
    """Q'(z) by the chain rule through J'."""
    a = _alpha_value(alpha)
    z = np.asarray(z, dtype=complex)
    w = q_argument(a, z)
    return j_deriv(w) * w * (-2.0 * a / (1.0 - z) ** 2)


def _nome_powers(beta: float, ks: np.ndarray, order: int) -> np.ndarray:
    """[z^j] q^k = e^{-k beta} L_j^{(-1)}(x), x = 2 k beta, for
    q = e^{-beta (1+z)/(1-z)} (DLMF 18.12.13), in row j and column k, by
    (j+1) L_{j+1} = (2j - x) L_j - (j-1) L_{j-1} (DLMF 18.9.13) for all k.
    Started from e^{-k beta}, the values are coefficients of a function
    bounded by 1; where e^{-k beta} would underflow, 2^-shift is kept aside.
    A column whose Cauchy bound on |z| = 1/2, e^{-k beta / 3} 2^order, is
    below 2^-1075 rounds to zeros and is left at zero, unrecurred.
    """
    live = ks <= 3.0 * math.log(2.0) * (order + 1075) / beta
    t = beta * ks[live]
    shift = np.floor(np.maximum(t - 700.0, 0.0) / math.log(2.0))
    watch = shift.any()
    out = np.zeros((order + 2, t.size))             # out[j + 1] = [z^j]
    out[1] = np.exp(shift * math.log(2.0) - t)
    j = np.arange(order)[:, None]
    a, b = (2.0 * j - 2.0 * t) / (j + 1), ((j - 1) / (j + 1)).ravel().tolist()
    scratch = np.empty(t.size)
    rows, mul, sub = list(out), np.multiply, np.subtract    # row views
    for ai, bi, prev, cur, row in zip(a, b, rows, rows[1:], rows[2:]):
        mul(ai, cur, out=row)
        mul(bi, prev, out=scratch)
        sub(row, scratch, out=row)
        if watch and (big := np.abs(row) > 2.0 ** 600).any():
            out[:, big] *= 2.0 ** -600
            shift[big] -= 600
    powers = np.zeros((order + 1, ks.size))
    powers[:, live] = np.ldexp(out[1:], -shift.astype(int))
    return powers


def q_series(alpha, order: int) -> TruncatedSeries:
    """Series of Q about 0 from theta sums in the nome; no J point.

    lambda = 16 q (sum_{n>=0} q^{n(n+1)})^4 / (1 + 2 sum_{n>=1} q^{n^2})^4
    with q = e^{-beta (1+z)/(1-z)}: Q = lambda at beta = alpha >= pi, else
    Q(z) = 1 - lambda(-z) at beta = pi^2 / alpha (tau -> -1/tau).  The sums
    stop at n = ceil(sqrt((2 order + 40) / beta)) + 1: by Cauchy on
    |z| = rho, an omitted q^k moves [z^j] by at most
    e^{-k beta (1 - rho)/(1 + rho)} rho^{-j}, below e^{-105} for q^100 at
    beta = pi and j = 64.  All in real float64 arrays: theta_3 is inverted
    by Newton doubling (``series.inverse``), then three products.  Not
    cached: each random spec draws a new alpha.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    alpha = _alpha_value(alpha)
    dual = alpha < math.pi
    beta = _PI_SQ / alpha if dual else alpha
    n = np.arange(1, math.ceil(math.sqrt((2 * order + 40) / beta)) + 2)
    powers = _nome_powers(beta, np.concatenate([n * n, n * (n + 1)]), order)
    sums = powers.reshape(order + 1, 2, n.size).sum(axis=2) * (2.0, 1.0)
    sums[0] += 1.0                          # theta_3 and sum q^{n(n+1)}
    ratio = np.convolve(sums[:, 1], inverse(sums[:, 0], order))[: order + 1]
    square = np.convolve(ratio, ratio)[: order + 1]
    fourth = np.convolve(square, square)[: order + 1]
    lam = np.convolve(fourth, 16.0 * powers[:, 0])[: order + 1]
    if dual:
        lam = -lam * (-1.0) ** np.arange(order + 1)
        lam[0] += 1.0
    return TruncatedSeries(lam)


# ---------------------------------------------------------------------------
# Univalence

#: Degree at which ``starlike_certificate`` cuts h = zJ'/J; the tail bound
#: beyond it is below 1e-42 at r = 0.187.
_STARLIKE_TERMS = 64


@dataclass(frozen=True)
class StarlikeCertificate:
    """A lower bound on Re zJ'/J on a circle, with the terms it subtracts."""

    min_re: float               # min of Re h_K at the nodes, as computed
    discretisation: float       # bound on Re h_K between nodes: Lip pi / N
    tail: float                 # bound on |h - h_K| on the circle
    rounding: float             # bound on the rounding of the rest

    @property
    def margin(self) -> float:
        """Lower bound on Re zJ'/J on the circle; > 0 certifies."""
        return self.min_re - self.discretisation - self.tail - self.rounding


def starlike_certificate(r: float, nodes: int) -> StarlikeCertificate:
    """Certify Re zJ'/J > 0 on |z| <= r, and so J univalent there, from the
    integers of ``log_coeffs_exact``; no J point is evaluated.

    J = 16 z exp(L), so h = zJ'/J = 1 + sum_k k L_k z^k is analytic in the
    disk with h(0) = 1.  If Re h > 0 on |z| = r, the minimum principle gives
    Re h > 0 on |z| <= r: J is starlike there, hence univalent (Duren,
    Univalent Functions, 2.5).  The margin is the minimum of Re h_K, h cut
    at degree K = _STARLIKE_TERMS, over N = ``nodes`` equispaced nodes of
    |z| = r, minus three bounds:

    - Lip pi / N with Lip = sum_k k |k L_k| r^k >= |d h_K / d theta|: every
      point of the circle is within pi / N in angle of a node;
    - the tail sum_{k>K} 8 k^2 r^k >= |h - h_K|, since
      |k L_k| <= 8 sigma(k) <= 8 k^2, summed as a geometric series of
      ratio ((K + 2) / (K + 1))^2 r (infinite when that is not below 1);
    - the rounding gamma_{8K} sum_k (k + 1) |h_k| r^k, h_k the coefficients
      of h and gamma_n = n u / (1 - n u) (Higham, ch. 3 and 5): complex
      Horner on the unit ring needs gamma_{4K}, the nodes sit up to 21u
      off their angles, and the sums of these bounds round by gamma_{K+1}
      each.

    Each bound is subtracted, so the margin errs low: a margin >= 0
    certifies, and a negative margin certifies nothing.  A zero margin is
    enough: Re h >= 0 on |z| = r and Re h(0) = 1, so Re h is not identically
    zero and the minimum principle gives Re h > 0 on the open disk |z| < r,
    where J is then starlike.  This certifies the sweep's radius
    0.9 e^{-pi/2}, not the univalence radius e^{-pi/2} itself: J is
    univalent but no longer starlike at 0.92 e^{-pi/2}.
    """
    if not 0 < r < 1:
        raise DomainError("r must lie in (0, 1)")
    if nodes < 1:
        raise DomainError("nodes must be >= 1")
    top = _STARLIKE_TERMS
    k = np.arange(top + 1)
    h = np.array(log_coeffs_exact(top), dtype=float)
    h[0] = 1.0
    h *= r ** k                                 # h_K(r z) on |z| = 1
    scaled = np.abs(h)
    ratio = ((top + 2) / (top + 1)) ** 2 * r
    tail = (8.0 * (top + 1) ** 2 * r ** (top + 1) / (1.0 - ratio)
            if ratio < 1 else math.inf)
    nu = 8 * top * 2.0 ** -53
    values = TruncatedSeries(h).eval(unit_ring(nodes))
    return StarlikeCertificate(
        float(values.real.min()), float(np.dot(k, scaled)) * math.pi / nodes,
        tail, nu / (1.0 - nu) * float(np.dot(k + 1, scaled)))


@dataclass(frozen=True)
class CollisionReport:
    """A pair J(z1) = J(z2) in a disk, with its value gap."""

    z1: complex
    z2: complex
    value_gap: float            # |J(z1) - J(z2)|


def collision_search(r: float = 0.35) -> CollisionReport:
    """A genuine pair J(z1) = J(z2) in |z| <= 0.999 r, in closed form.

    With w = e^{i pi tau}, J = lambda(tau) is invariant under Gamma(2), which
    holds tau -> tau / (2 tau + 1).  It maps tau_1 = -1/2 + i t to
    tau_2 = 1/2 + i / (4t), so J takes one value at z1 = -i e^{-pi t} and
    z2 = i e^{-pi / (4t)}.  Both lie in |z| <= 0.999 r exactly when
    l <= t <= 1 / (4l) with l = -log(0.999 r) / pi; such t exists iff
    0.999 r >= e^{-pi/2}, the univalence radius.  The midpoint of that
    interval is taken; when it is empty, ``DomainError`` is raised.  The
    points are |z1| + |z2| >= e^{-pi/2} apart, as t or 1 / (4t) is at most
    1/2.
    """
    if not 0 < r < 1:
        raise DomainError("r must lie in (0, 1)")
    ell = -math.log(0.999 * r) / math.pi
    if ell > 0.5:
        raise DomainError("no closed-form pair fits |z| <= 0.999 r when "
                          "0.999 r < e^-pi/2 (r = %r)" % r)
    t = 0.5 * (ell + 0.25 / ell)
    z1 = complex(0.0, -math.exp(-math.pi * t))
    z2 = complex(0.0, math.exp(-0.25 * math.pi / t))
    return CollisionReport(z1, z2, float(abs(j_eval(z1) - j_eval(z2))))
