"""The modular function J (elliptic lambda in the nome variable).

J(z) = 16 z prod_{n>=1} [(1 + z^{2n}) / (1 + z^{2n-1})]^8 covers the
twice-punctured plane C \\ {0, 1} from the punctured unit disk.  This module
provides its series expansion as exact integers and as their nearest
doubles (``j_series``, the one float series of J), the positive integers
A_n of -J(-z) = 16 z sum A_n z^n, checked in exact arithmetic,
pointwise evaluation of J, J', the covering map Q(z) = J(e^sigma) with
sigma = -alpha (1+z)/(1-z), and Q', by one kernel on log-nomes (modular
reduction, then theta sums, in bounded blocks; Q feeds it sigma itself;
non-finite results raise DomainError), a certificate
that J is starlike, hence univalent, on a circle below its univalence
radius, and a closed-form pair with J(z1) = J(z2) beyond it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .series import TruncatedSeries, _truncmul, inverse, unit_ring

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


@lru_cache(maxsize=8)
def j_series(order: int) -> TruncatedSeries:
    """The one float series of J, to the given degree: each coefficient
    is the double nearest to its exact integer from ``j_coeffs_exact``.
    Its absolute values are those of -J(-z): |J_k| = 16 A_{k-1}."""
    return TruncatedSeries([float(c) for c in j_coeffs_exact(order)], "J")


def a_coeffs(order: int) -> tuple[int, ...]:
    """The integers A_0..A_order of -J(-z) = 16 z sum A_n z^n from J's exact
    series.  Their positivity, monotonicity and convexity, structural facts
    about J, are checked in exact arithmetic: a violation is a bug."""
    if order < 2:
        raise DomainError("order must be >= 2")
    exact = j_coeffs_exact(order + 1)
    a = tuple((-1) ** n * exact[n + 1] // 16 for n in range(order + 1))
    if min(a) <= 0:
        raise DomainError("A_n must be strictly positive; first offender at "
                          "n=%d" % [v > 0 for v in a].index(False))
    if any(a[n + 1] < a[n] for n in range(order)):
        raise DomainError("A_n must be nondecreasing")
    if any(a[n + 2] - 2 * a[n + 1] + a[n] < 0 for n in range(order - 1)):
        raise DomainError("A_n must be convex")
    return a


# ---------------------------------------------------------------------------
# Evaluation by modular reduction
#
# With w = e^sigma, sigma = i pi tau, J(w) = lambda(tau) = (theta_2 /
# theta_3)^4 at nome w.  The modular group acts on lambda through the
# anharmonic group (DLMF 23.15-23.18): lambda(tau + 1) = lambda / (lambda - 1)
# is sigma -> sigma + i pi, and lambda(-1/tau) = 1 - lambda is sigma ->
# pi^2 / sigma.  Reducing tau to |Re tau| <= 1/2, |tau| >= _FLIP_BELOW leaves
# |w| <= _REDUCED_RADIUS, where three terms of each theta series reach double
# precision: the first omitted one, 2 w^16 in theta_3, is below 4e-19.

#: A reduction step inverts tau when |tau| is below this.  It sits under 1
#: so that rounding cannot undo an inversion: each one multiplies Im tau by
#: more than 1/_FLIP_BELOW^2, so the loop ends.
_FLIP_BELOW = 0.995

#: Largest |w| of a reduced point, e^{-pi sqrt(_FLIP_BELOW^2 - 1/4)} ≈ 0.067;
#: J's points inside it are summed as they are.
_REDUCED_RADIUS = math.exp(-math.pi * math.sqrt(_FLIP_BELOW ** 2 - 0.25))

#: Points per evaluation block; bounds the temporaries of large inputs.
#: A complex temporary of 2048 points is 32 KB, so a block's working set
#: stays in cache: 4096-node circles of J and Q ran about 12% faster in two
#: blocks than in one of 8192, and blocks of 512 to 4096 points were slower.
_BLOCK = 2048

_PI_SQ = math.pi ** 2

# The anharmonic group as Moebius maps x -> (a x + b) / (c x + d), indexed
# 0..5: x, 1 - x (tau -> -1/tau), x / (x - 1) (tau -> tau + 1), 1/x,
# 1 / (1 - x) and (x - 1) / x; _MOBIUS holds rows a, b, c, d over g.
# _AFTER_INVERT[g] and _AFTER_SHIFT[g] index g composed with 1 - x and with
# x / (x - 1), _AFTER_STEP[p, g] an inversion and then p shifts (mod 2).
_MOBIUS = np.array([(1, 0, 0, 1), (-1, 1, 0, 1), (1, 0, 1, -1),
                    (0, 1, 1, 0), (0, 1, -1, 1), (1, -1, 1, 0)],
                   dtype=complex).T
_DET = _MOBIUS[0] * _MOBIUS[3] - _MOBIUS[1] * _MOBIUS[2]
_SHIFT = 2
_AFTER_INVERT = np.array([1, 0, 5, 4, 3, 2])
_AFTER_SHIFT = np.array([2, 4, 0, 5, 1, 3])
_AFTER_STEP = np.stack((_AFTER_INVERT, _AFTER_SHIFT[_AFTER_INVERT]))


def _lambda_at(sigma: np.ndarray, g, deriv: bool) -> np.ndarray:
    """M_g(lambda) at the log-nomes sigma (Re sigma < 0) from the start g
    (per point, or one index), or when ``deriv`` its derivative in sigma.

    Reduces sigma in place: shifts tau to |Re tau| <= 1/2, then inverts
    the points with |tau| < _FLIP_BELOW and shifts them back until none is
    left, composing g with each map undone and gathering only the points
    still to invert; lambda and w lambda'(w) at w = e^sigma go back by M_g."""
    dtau = np.ones_like(sigma) if deriv else None
    shift = np.rint(sigma.imag / math.pi)          # lambda has period 2
    sigma.imag -= math.pi * shift
    g = np.where(shift.astype(np.intp) & 1, _AFTER_SHIFT[g], g)
    live = np.flatnonzero(np.abs(sigma) < math.pi * _FLIP_BELOW)
    while live.size:
        s = _PI_SQ / sigma[live]
        if deriv:              # d(-1/tau)/d tau = (-1/tau)^2 = -sigma^2/pi^2
            dtau[live] = dtau[live] * s * s / -_PI_SQ
        shift = np.rint(s.imag / math.pi)
        s.imag -= math.pi * shift
        sigma[live] = s
        g[live] = _AFTER_STEP[shift.astype(np.intp) & 1, g[live]]
        live = live[np.abs(s) < math.pi * _FLIP_BELOW]
    w = np.exp(sigma)
    lam, dlam = _theta_lambda(w, deriv)
    a, b, c, d = np.take(_MOBIUS, g, axis=1)
    if not deriv:
        return (a * lam + b) / (c * lam + d)
    den = c * lam + d
    return dlam * _DET[g] / (den * den) * dtau * w


def _theta_lambda(w: np.ndarray, deriv: bool):
    """lambda(w) and, when ``deriv``, lambda'(w) for |w| <= _REDUCED_RADIUS,
    from theta_2^4 = 16 w (1 + w^2 + w^6 + w^12)^4 and
    theta_3 = 1 + 2 (w + w^4 + w^9), both in Horner form, and
    w lambda'(w) = lambda (1 - lambda) theta_3^4."""
    w2 = w * w
    p = w2 * w                                  # w^3
    s3 = 1.0 + 2.0 * w * (1.0 + p * (1.0 + p * w2))
    p = w2 * w2                                 # w^4
    ratio = (1.0 + w2 * (1.0 + p * (1.0 + p * w2))) / s3
    ratio = ratio * ratio
    j_over_w = 16.0 * ratio * ratio
    lam = w * j_over_w
    if not deriv:
        return lam, None
    s3 = s3 * s3
    return lam, j_over_w * (1.0 - lam) * s3 * s3


def _j_block(w: np.ndarray, deriv: bool) -> np.ndarray:
    """J(w), or J'(w) when ``deriv``, on a flat block of disk points: theta
    sums at w inside the reduced radius, the kernel at log(+-w) outside."""
    far = np.abs(w) > _REDUCED_RADIUS
    every = far.all()
    if not every:
        out = _theta_lambda(w, deriv)[deriv]    # lambda, or lambda' if deriv
        if not far.any():
            return out
    x = w if every else w[far]
    neg = x.real < 0            # the first shift negates w, which is exact
    y = _lambda_at(np.log(np.where(neg, -x, x)), np.where(neg, _SHIFT, 0),
                   deriv)
    y = y / x if deriv else y               # J' = (dJ / d sigma) / w
    if every:
        return y
    out[far] = y
    return out


def _q_block(sigma: np.ndarray, deriv: bool) -> np.ndarray:
    """Q, or dQ / d sigma if ``deriv``, at a flat block of log-nomes sigma."""
    return _lambda_at(sigma, 0, deriv)


@np.errstate(all="ignore")
def _evaluate(block, x: np.ndarray, deriv: bool, message: str,
              factor=None):
    """block(x, deriv) in flat blocks of _BLOCK points, times ``factor``,
    in the shape of x; ``DomainError(message)`` if a value is not finite."""
    flat = x.reshape(-1)
    out = (block(flat, deriv) if flat.size <= _BLOCK else np.concatenate(
        [block(flat[k:k + _BLOCK], deriv)
         for k in range(0, flat.size, _BLOCK)])).reshape(x.shape)
    if factor is not None:
        out = out * factor
    if not np.isfinite(out).all():
        raise DomainError(message)
    return complex(out) if x.ndim == 0 else out


def _disk_points(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if not (np.abs(z) < 1).all():
        if not np.isfinite(z).all():
            raise DomainError("input is not finite")
        raise DomainError("evaluation requires |z| < 1")
    return z


def j_eval(z):
    """J(z) by modular reduction; keeps the shape of array input."""
    return _evaluate(_j_block, _disk_points(z), False,
                     "J exceeds the double range near a cusp")


def j_deriv(z):
    """J'(z) by modular reduction; keeps the shape of array input."""
    return _evaluate(_j_block, _disk_points(z), True,
                     "J' exceeds the double range near a cusp")


# ---------------------------------------------------------------------------
# The covering map Q


class CoveringParameter(namedtuple("CoveringParameter", "alpha")):
    """Positive exponent of the cover Q(z) = J(exp(-alpha (1+z)/(1-z)))."""

    __slots__ = ()

    def __new__(cls, alpha: float):
        if not math.isfinite(alpha):
            raise DomainError("alpha must be finite, not %r" % alpha)
        if not alpha > 0:
            raise DomainError("alpha must be positive")
        return super().__new__(cls, alpha)


def _covering_parameter(alpha) -> CoveringParameter:
    """alpha, given as a ``CoveringParameter`` or as a number, checked."""
    return (alpha if isinstance(alpha, CoveringParameter)
            else CoveringParameter(float(alpha)))


@np.errstate(over="ignore", invalid="ignore")
def _q_sigma(alpha: float, z: np.ndarray) -> np.ndarray:
    """Q's log-nome sigma = -alpha (1+z)/(1-z), in Re sigma < 0.  The nome
    e^sigma rounds to modulus 1 where exp(Re sigma) does (alpha Re (1+z)/(1-z)
    below about 1e-16), and is NaN where Im sigma passes the double range
    and Re sigma does not: both raise ``DomainError``.  Past it, it is 0."""
    sigma = -alpha * (1.0 + z) / (1.0 - z)
    ok = np.exp(sigma.real) < 1                 # NaN fails it too
    ok &= np.isfinite(sigma.imag) | (sigma.real == -math.inf)
    if not ok.all():
        raise DomainError("the nome exp(-alpha (1+z)/(1-z)) rounds to "
                          "modulus 1 or is NaN (alpha = %r)" % alpha)
    return sigma


def q_eval(alpha, z):
    """Q(z): covering map onto C \\ {0, 1} with Q(0) = J(e^{-alpha}), from
    the kernel at its log-nome sigma = -alpha (1+z)/(1-z); keeps the shape
    of array input."""
    sigma = _q_sigma(_covering_parameter(alpha).alpha, _disk_points(z))
    return _evaluate(_q_block, sigma, False,
                     "Q exceeds the double range near a cusp")


@np.errstate(over="ignore", invalid="ignore")
def q_deriv(alpha, z):
    """Q'(z) = (dQ / d sigma) sigma'(z), sigma' = -2 alpha / (1-z)^2;
    ``DomainError`` if not finite."""
    a = _covering_parameter(alpha).alpha
    z = _disk_points(z)
    return _evaluate(_q_block, _q_sigma(a, z), True,
                     "Q' is not finite (alpha = %r)" % a,
                     -2.0 * a / (1.0 - z) ** 2)


@lru_cache(maxsize=32)
def _steps(order: int, s: int, ncol: int):
    """Read-only j = m s + i, j + 1, (j - 1) / (j + 1) at [i, start, m, k]."""
    i, _, m, _ = np.indices((s, 2, -(-order // s), ncol), dtype=float)
    j = m * s + i
    return [np.broadcast_to(x, x.shape) for x in (j, j + 1, (j - 1) / (j + 1))]


def _nome_powers(beta: float, ks: np.ndarray, order: int) -> np.ndarray:
    """[z^j] q^k = e^{-k beta} L_j^{(-1)}(x), x = 2 k beta, for
    q = e^{-beta (1+z)/(1-z)} (DLMF 18.12.13), in row j and column k, by
    (j+1) L_{j+1} = (2j - x) L_j - (j-1) L_{j-1} (DLMF 18.9.13) for all k.
    Started from e^{-k beta}, the values are coefficients of a function
    bounded by 1; where e^{-k beta} would underflow (t = k beta > 700),
    2^-shift is kept aside.  A column whose Cauchy bound on |z| = 1/2,
    e^{-k beta / 3} 2^order, is below 2^-1075 rounds to zeros and is left
    at zero, unrecurred; cut and shifts are formed only when asked for.
    Blocks of s <= isqrt(order) rows, as in Paterson-Stockmeyer: s baby
    steps run all blocks from the starts (1, 0) and (0, 1), and a giant
    step per block fills its rows from the block before.  A step grows a
    column at most 2t + 3 times: s log2(2 t_max + 3) <= 400 and a per-block
    2^-600 rescale of columns past 2^600 keep values below 2^1000.  Step
    factors of up to 4096 order-columns (0.24 MB) are kept by ``_steps``."""
    cut = 3.0 * math.log(2.0) * (order + 1075) / beta
    live = None if ks.max(initial=0) <= cut else ks <= cut
    t = beta * (ks if live is None else ks[live])
    watch = (t_max := t.max(initial=0.0)) > 700.0
    shift = np.floor(np.maximum(t - 700, 0) / math.log(2.0)) if watch else 0
    s = max(1, min(math.isqrt(order),
                   int(400.0 / math.log2(2.0 * t_max + 3.0))))
    j, j1, b = (_steps if order * t.size <= 4096 else _steps.__wrapped__)(
        order, s, t.size)                       # [i, start, m, k]
    a = np.divide(2.0 * (j - t), j1)
    blocks, shape = j.shape[2], j.shape[1:]
    transfer = np.zeros((s + 2,) + shape)
    transfer[0, 0] = transfer[1, 1] = 1.0
    steps, scratch, mul = list(transfer), np.empty(shape), np.multiply
    for ai, bi, prev, cur, new in zip(a, b, steps, steps[1:], steps[2:]):
        mul(ai, cur, out=new)                   # baby steps
        mul(bi, prev, out=scratch)
        new -= scratch
    out = np.zeros((blocks * s + 2, t.size))        # out[j + 1] = [z^j]
    out[1] = np.exp(shift * math.log(2.0) - t)
    u, v = transfer[2:].transpose(1, 2, 0, 3)
    for m, um, vm in zip(range(0, blocks * s, s), u, v):
        rows = out[m + 2 : m + s + 2]           # giant step: one block
        mul(um, out[m], out=rows)
        rows += vm * out[m + 1]
        if watch and (big := np.abs(rows).max(axis=0) > 2.0 ** 600).any():
            out[:, big] *= 2.0 ** -600
            shift[big] -= 600
    powers = out[1 : order + 2]
    if watch:
        powers = np.ldexp(powers, -shift.astype(int))
    if live is None:
        return powers
    full = np.zeros((order + 1, ks.size))
    full[:, live] = powers
    return full


def q_series(alpha, order: int) -> np.ndarray:
    """Coefficients Q_0..Q_order of Q about 0, a real float64 array, from
    theta sums in the nome; no J point.

    lambda = 16 q (sum_{n>=0} q^{n(n+1)})^4 / (1 + 2 sum_{n>=1} q^{n^2})^4
    with q = e^{-beta (1+z)/(1-z)}: Q = lambda at beta = alpha >= pi, else
    Q(z) = 1 - lambda(-z) at beta = pi^2 / alpha (tau -> -1/tau).  The sums
    stop at n = ceil(sqrt((2 order + 40) / beta)) + 1: by Cauchy on
    |z| = rho, an omitted q^k moves [z^j] by at most
    e^{-k beta (1 - rho)/(1 + rho)} rho^{-j}, below e^{-105} for q^100 at
    beta = pi and j = 64.  In real float64 arrays: q^k by ``_nome_powers``,
    1/theta_3 by Newton doubling (``series.inverse``) of 2 (theta_3 / 2),
    four ``_truncmul`` products, and 1 - lambda(-z) by an in-place sign
    flip.  Not cached: each random spec draws a new alpha.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    alpha = _covering_parameter(alpha).alpha
    dual = alpha < math.pi
    beta = _PI_SQ / alpha if dual else alpha
    n = np.arange(1.0, math.ceil(math.sqrt((2 * order + 40) / beta)) + 2)
    powers = _nome_powers(beta, np.concatenate((n * n, n * (n + 1.0))), order)
    sums = powers.reshape(order + 1, 2, n.size).sum(axis=2)
    sums[0] += 0.5, 1.0                     # theta_3 / 2, sum q^{n(n+1)}
    ratio = _truncmul(sums[:, 1], inverse(2.0 * sums[:, 0], order), order)
    square = _truncmul(ratio, ratio, order)
    fourth = _truncmul(square, square, order)
    lam = _truncmul(fourth, 16.0 * powers[:, 0], order)
    if dual:                                # 1 - lambda(-z)
        lam[::2] *= -1.0
        lam[0] += 1.0
    return lam


# ---------------------------------------------------------------------------
# Univalence

#: Degree at which ``starlike_certificate`` cuts h = zJ'/J; the tail bound
#: beyond it is below 1e-42 at r = 0.187.
_STARLIKE_TERMS = 64


class StarlikeCertificate(NamedTuple):
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


class CollisionReport(NamedTuple):
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
