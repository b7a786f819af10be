import cmath
import math
import time

import mpmath
import numpy as np
import pytest

from bohrlab import modular
from bohrlab.errors import DomainError
from bohrlab.modular import (E_HALF_PI, E_PI, CoveringParameter, a_coeffs,
                             collision_search, j_coeffs_exact, j_deriv,
                             j_eval, j_series,
                             log_coeffs_exact, minus_j_minus_series,
                             q_argument, q_deriv, q_eval, q_series,
                             starlike_certificate)
from bohrlab.series import TruncatedSeries
from bohrlab.sweeps import j_max_modulus, run_suite

# Degree <= 5 coefficients frozen from the exact integer computation.
J_EXACT_PREFIX = (0, 16, -128, 704, -3072, 11488)
A_EXACT_PREFIX = (1, 8, 44, 192, 718)


def mp_lambda(z):
    """Independent oracle: the elliptic lambda in the nome, via theta
    functions (theta2/theta3)^4 at q = z."""
    q = mpmath.mpc(z)
    return complex((mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4)


def theta_lambda_coeffs(order):
    """Independent oracle: the coefficients of
    lambda = 16 q (sum_{n>=0} q^{n(n+1)})^4 / (1 + 2 sum_{n>=1} q^{n^2})^4
    to degree ``order``, by exact integer series division (the divisor has
    constant term 1)."""
    top = order - 1

    def mul(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1))
                for k in range(top + 1)]

    num = [0] * (top + 1)
    den = [0] * (top + 1)
    den[0] = 1
    for n in range(top + 1):
        if n * (n + 1) <= top:
            num[n * (n + 1)] = 1
        if 0 < n * n <= top:
            den[n * n] = 2
    num, den = mul(num, num), mul(den, den)
    num, den = mul(num, num), mul(den, den)
    quot = []
    for k in range(top + 1):
        quot.append(num[k] - sum(den[i] * quot[k - i]
                                 for i in range(1, k + 1)))
    return (0,) + tuple(16 * c for c in quot)


# -- coefficients ------------------------------------------------------------


def test_exact_matches_theta_quotient():
    oracle = theta_lambda_coeffs(80)
    for n in range(1, 81):
        assert j_coeffs_exact(n) == oracle[: n + 1]


def test_exact_at_high_order():
    c = j_coeffs_exact(401)
    assert len(c) == 402
    assert c[:81] == j_coeffs_exact(80)
    assert all((-1) ** (n + 1) * c[n] > 0 for n in range(1, 402))


def test_exact_prefix():
    assert j_coeffs_exact(5) == J_EXACT_PREFIX


def test_exact_sign_alternation():
    c = j_coeffs_exact(21)
    assert c[0] == 0
    for n in range(1, 22):
        assert (-1) ** (n + 1) * c[n] > 0


def test_exact_caps():
    with pytest.raises(DomainError):
        j_coeffs_exact(0)
    with pytest.raises(DomainError, match="4097"):
        j_coeffs_exact(modular.MAX_SERIES_ORDER + 1)
    with pytest.raises(DomainError, match="4097"):
        minus_j_minus_series(10**6)


def test_float_series_matches_exact():
    """Each float coefficient is the double nearest its exact integer."""
    for n in (21, 201):
        js = j_series(n)
        exact = j_coeffs_exact(n)
        assert all(js.coeffs.real[k] == float(exact[k])
                   for k in range(n + 1))
        assert np.all(js.coeffs.imag == 0)


def test_a_prefix_and_shape():
    ac = a_coeffs(100)
    assert ac.a_exact[:5] == A_EXACT_PREFIX
    assert len(ac.a_exact) == 101
    assert list(ac.a_float) == [float(v) for v in ac.a_exact]
    a = ac.a_float
    assert np.all(a > 0)
    assert np.all(np.diff(a) > 0)
    assert np.all(np.diff(a, 2) >= 0)


def test_majorant_series_positive():
    m = minus_j_minus_series(40)
    assert m[0] == 0
    assert np.all(m.coeffs[1:].real > 0)


# -- evaluation --------------------------------------------------------------


def test_special_values():
    assert complex(j_eval(E_PI)) == pytest.approx(0.5, abs=1e-12)
    assert abs(complex(j_eval(-E_PI))) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("z", [0.1, -0.3, 0.2 + 0.4j, -0.55j, 0.6 - 0.1j])
def test_eval_against_theta_oracle(z):
    assert complex(j_eval(z)) == pytest.approx(mp_lambda(z), rel=1e-12,
                                               abs=1e-12)


def test_eval_matches_series_near_zero():
    js = j_series(48)
    for z in (0.05, 0.1j, -0.08 + 0.06j):
        assert complex(j_eval(z)) == pytest.approx(js.eval(z), abs=1e-14)


def test_eval_rejects_boundary():
    with pytest.raises(DomainError):
        j_eval(1.0)
    with pytest.raises(DomainError):
        j_eval(np.array([0.5, 1.0 + 0j]))


def test_deriv_against_mpmath():
    for z in (0.1, 0.3 - 0.2j, -0.4j):
        expect = complex(mpmath.diff(lambda w: (mpmath.jtheta(2, 0, w)
                                                / mpmath.jtheta(3, 0, w)) ** 4,
                                     mpmath.mpc(z)))
        assert complex(j_deriv(z)) == pytest.approx(expect, rel=1e-9)


def test_deriv_at_zero():
    assert complex(j_deriv(0.0)) == pytest.approx(16.0, abs=1e-14)


# -- evaluation by modular reduction -----------------------------------------


def mp_lambda_deriv(w):
    """J(w) and J'(w) from theta functions, at the first precision (50, 100,
    200, ... digits) that agrees with twice itself to 1e-30 relative.

    Near the unit circle the theta series cancel heavily, so a fixed
    precision can return a wrong value there.  J' comes from
    w J'(w) = J (1 - J) theta_3(w)^4.
    """
    dps = 50
    while dps <= 1600:
        pair = []
        for d in (dps, 2 * dps):
            with mpmath.workdps(d):
                q = mpmath.mpc(w)
                t3 = mpmath.jtheta(3, 0, q)
                lam = (mpmath.jtheta(2, 0, q) / t3) ** 4
                pair.append((lam, lam * (1 - lam) * t3 ** 4 / q))
        (a, da), (b, db) = pair
        if abs(a - b) <= 1e-30 * abs(b) and abs(da - db) <= 1e-30 * abs(db):
            return b, db
        dps *= 2
    raise AssertionError("theta oracle did not converge at %r" % w)


def reduction_steps(w):
    """Inversions tau -> -1/tau that the evaluation takes at w: none inside
    the reduced radius, else until |Re tau| <= 1/2 and |tau| >= 0.995."""
    if abs(w) <= modular._REDUCED_RADIUS:
        return 0
    tau = cmath.log(w) / (1j * math.pi)
    steps = 0
    while True:
        tau -= round(tau.real)
        if abs(tau) >= modular._FLIP_BELOW:
            return steps
        tau = -1 / tau
        steps += 1


RADII = (0.3, 0.72, 0.87, 0.97, 0.995, 0.9999)
ANGLES = (0.4, 2.2, -2.2, -0.4)          # one in each quadrant
GRID = [r * cmath.exp(1j * a) for r in RADII for a in ANGLES] + [
    0.05, -0.06j, 0.3, -0.3, 0.9999 * cmath.exp(1.2j)]


def test_anharmonic_tables():
    def apply(g, x):
        a, b, c, d = modular._MOBIUS[g]
        return (a * x + b) / (c * x + d)

    for x in (0.3 + 0.7j, -2.1 + 0.4j):
        for g in range(6):
            assert apply(modular._AFTER_INVERT[g], x) == pytest.approx(
                apply(g, 1 - x))
            assert apply(modular._AFTER_SHIFT[g], x) == pytest.approx(
                apply(g, x / (x - 1)))


def test_grid_covers_reduction_depths():
    steps = [reduction_steps(w) for w in GRID]
    assert steps.count(0) >= 2 and steps.count(1) >= 2
    assert max(steps) >= 3


@pytest.mark.parametrize("w", GRID, ids=lambda w: "%.4g%+.4gj" % (w.real,
                                                                     w.imag))
def test_eval_and_deriv_against_converged_oracle(w):
    rel = 1e-12 if abs(w) <= 0.9 else 1e-9
    for fn, expect in zip((j_eval, j_deriv), mp_lambda_deriv(w)):
        if abs(expect) < mpmath.mpf("1.7976931348623157e308"):
            assert fn(w) == pytest.approx(complex(expect), rel=rel,
                                          abs=1e-300)
        else:
            with pytest.raises(DomainError, match="double range"):
                fn(w)


def test_cusp_overflow_is_a_domain_error():
    # J(-0.99) is about -1.9e425 (the oracle needs 600 digits there).
    far_out = (-0.99, 0.9999 * cmath.exp(7j * math.pi / 9))
    for w in far_out:
        assert abs(mp_lambda_deriv(w)[0]) > mpmath.mpf("1e400")
    for w in far_out + (-0.999,):
        with pytest.raises(DomainError, match="exceeds the double range"):
            j_eval(w)


def test_non_finite_input_rejected():
    for bad in (float("nan"), complex(0.1, float("nan")), float("inf")):
        with pytest.raises(DomainError, match="not finite"):
            j_eval(bad)
        with pytest.raises(DomainError, match="not finite"):
            j_deriv(np.array([0.1, bad]))


def test_near_positive_cusp_is_one():
    assert complex(j_eval(0.9999999)) == 1.0
    assert complex(j_eval(1 - 2.0 ** -52)) == 1.0


def _disk_sample(n, seed):
    rng = np.random.default_rng(seed)
    # Radii up to 0.95 keep J finite; some points skip the reduction.
    return 0.95 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def test_blocks_match_scalar_calls_bit_for_bit():
    z = _disk_sample(modular._BLOCK + 7, seed=11)
    for fn in (j_eval, j_deriv):
        whole = fn(z)
        single = np.array([fn(complex(w)) for w in z])
        assert np.array_equal(whole, single)


def _reduce_every_point(w, deriv):
    """The reduction as it was before it skipped finished points: every
    pass tests, inverts and shifts all of them."""
    neg = w.real < 0
    sigma = np.log(np.where(neg, -w, w))
    g = np.where(neg, modular._SHIFT, 0)
    dtau = np.ones_like(w) if deriv else None
    while True:
        flip = np.abs(sigma) < math.pi * modular._FLIP_BELOW
        if not flip.any():
            return np.exp(sigma), g, dtau
        sigma = np.where(flip, modular._PI_SQ / sigma, sigma)
        g = np.where(flip, modular._AFTER_INVERT[g], g)
        if deriv:
            dtau = np.where(flip, dtau * sigma * sigma / -modular._PI_SQ,
                            dtau)
        shift = np.rint(sigma.imag / math.pi)
        sigma.imag -= math.pi * shift
        g = np.where(shift % 2 == 0, g, modular._AFTER_SHIFT[g])


def test_reduction_of_live_points_is_bit_identical(monkeypatch):
    rng = np.random.default_rng(21)
    # Each band of |w| the benchmark traces, in both half-planes, and
    # deep reductions up to |w| = 0.97.
    bands = [(0.0, 0.5), (0.5, 0.9), (0.9, 0.97)]
    r = np.concatenate([rng.uniform(lo, hi, 3000) for lo, hi in bands])
    w = r * np.exp(2j * np.pi * rng.random(r.size))
    assert (w.real < 0).sum() > 4000 and (w.real > 0).sum() > 4000
    assert max(reduction_steps(x) for x in w[-100:]) >= 3
    new = (j_eval(w), j_deriv(w))
    monkeypatch.setattr(modular, "_reduce", _reduce_every_point)
    assert np.array_equal(new[0], j_eval(w))
    assert np.array_equal(new[1], j_deriv(w))


def test_array_shape_is_kept():
    z = _disk_sample(12, seed=12).reshape(3, 4)
    for fn in (j_eval, j_deriv):
        out = fn(z)
        assert out.shape == (3, 4)
        assert np.array_equal(out.ravel(), fn(z.ravel()))
    assert j_eval(np.zeros((0, 2))).shape == (0, 2)


def test_scalar_call_cost():
    """A scalar J call, as `bohrlab eval` makes, must stay cheap.  The cost
    is measured in units of one ufunc call on a 1-element array.  J at
    |w| = 0.35, by modular reduction and theta sums, costs about 95-114
    units on a 2-core x86 host; the bound is 200.  Each round times both,
    so both see the same core speed, and the minimum over 20 rounds drops
    the rounds that a busy core slowed down."""
    x = np.array([0.35 + 0j])
    unit = call = math.inf
    for _ in range(20):
        t0 = time.perf_counter()
        for _ in range(2000):
            x * x
        unit = min(unit, (time.perf_counter() - t0) / 2000)
        t0 = time.perf_counter()
        for _ in range(50):
            j_eval(0.35)
        call = min(call, (time.perf_counter() - t0) / 50)
    assert call <= 200 * unit


def test_max_modulus_on_negative_axis():
    for r in (0.1, 0.3, E_PI):
        m, on_axis = j_max_modulus(r)
        assert m == on_axis
        assert m == pytest.approx(abs(complex(j_eval(-r))), rel=1e-9)


# -- the covering map --------------------------------------------------------


def test_covering_parameter_positive():
    with pytest.raises(DomainError):
        CoveringParameter(0.0)
    with pytest.raises(DomainError):
        q_eval(-1.0, 0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_covering_parameter_rejects_non_finite_alpha(alpha):
    for f in (lambda: q_eval(alpha, 0.3), lambda: q_series(alpha, 64)):
        with pytest.raises(DomainError, match="alpha must be finite"):
            f()


def test_q_argument_lands_in_punctured_disk():
    rng = np.random.default_rng(3)
    z = 0.95 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    w = q_argument(2.0, z)
    assert np.all(np.abs(w) < 1)
    assert np.all(np.abs(w) > 0)


@pytest.mark.parametrize("alpha,z", [(1e-320, 0.5), (1e-17, 0.0),
                                     (0.5, -0.9999999999999999)])
def test_q_names_a_nome_rounded_to_modulus_one(alpha, z):
    """|z| < 1, but alpha (1+z)/(1-z) is so small that the nome rounds to
    1; Q, Q' and the nome itself say so, not that |z| >= 1."""
    for f in (q_argument, q_eval, q_deriv):
        with pytest.raises(DomainError, match="rounds to modulus 1"):
            f(alpha, z)


def test_q_omits_zero_and_one():
    rng = np.random.default_rng(4)
    z = 0.9 * np.sqrt(rng.random(500)) * np.exp(2j * np.pi * rng.random(500))
    w = q_eval(math.pi, z)
    assert np.abs(w).min() > 0
    assert np.abs(w - 1.0).min() > 0


def test_q_series_matches_pointwise():
    alpha = math.pi
    qs = q_series(alpha, 64)
    assert qs[0] == pytest.approx(complex(j_eval(math.exp(-alpha))),
                                  abs=1e-13)
    for z in (0.05, -0.1j, 0.08 + 0.04j):
        assert qs.eval(z) == pytest.approx(complex(q_eval(alpha, z)),
                                           abs=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [1e18, 1e30, 1e200, 1.7e308, 1e-30,
                                   5e-324])
def test_q_series_at_extreme_alpha_is_the_limiting_series(alpha):
    """Every q^k underflows to zero coefficients, so Q is 0 for a large
    alpha (beta = alpha) and 1 for a small one (beta = pi^2 / alpha)."""
    want = np.zeros(65)
    want[0] = float(alpha < math.pi)
    assert np.array_equal(q_series(alpha, 64).coeffs, want)


def test_q_series_validation():
    with pytest.raises(DomainError):
        q_series(1.0, 0)


def mp_q_coeffs(alpha, order, nodes=512):
    """Independent oracle: Q's coefficients to degree ``order`` at 60
    digits, from theta functions and a Cauchy sum on |z| = 1/2.  Q is real
    on the real axis, so the upper half circle suffices."""
    with mpmath.workdps(60):
        rho = mpmath.mpf(1) / 2
        vals = []
        for k in range(nodes // 2 + 1):
            z = rho * mpmath.expjpi(mpmath.mpf(2 * k) / nodes)
            q = mpmath.exp(-alpha * (1 + z) / (1 - z))
            vals.append((mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4)
        coeffs = []
        for j in range(order + 1):
            total = vals[0] + (-1) ** j * vals[-1] + 2 * sum(
                (vals[k] * mpmath.expjpi(-mpmath.mpf(2 * j * k) / nodes)).real
                for k in range(1, nodes // 2))
            coeffs.append(total.real / nodes / rho ** j)
        return coeffs


@pytest.mark.parametrize("alpha", [0.8, math.pi, 3.5])
def test_q_series_matches_theta_oracle(alpha):
    # The sampled Cauchy recentring this replaced gave 6.5e9 + 3.1e9i for
    # the degree-64 coefficient at alpha = 0.8, where the oracle gives
    # 4.275e5.
    oracle = mp_q_coeffs(mpmath.mpf(alpha), 64)
    got = q_series(alpha, 64).coeffs
    scale = max(abs(float(c)) for c in oracle)
    assert not np.any(got.imag)
    for j in (48, 64):
        assert abs(got[j] - float(oracle[j])) <= 2e-14 * scale, j
    assert np.abs(got - np.array([float(c) for c in oracle])).max() <= \
        2e-14 * scale


def test_q_series_odd_symmetry_at_pi():
    # At alpha = pi, tau -> -1/tau is z -> -z, so Q(-z) = 1 - Q(z): Q(0) is
    # 1/2 and every other even coefficient vanishes.
    c = q_series(math.pi, 64).coeffs
    sign = (-1.0) ** np.arange(c.size)
    residual = c * sign + c
    residual[0] -= 1.0
    assert np.abs(residual).max() <= 1e-14 * np.abs(c).max()


@pytest.mark.parametrize("alpha", [0.8, 2.0, math.pi, 3.5, 12.0])
def test_q_series_slope_is_q_deriv(alpha):
    assert q_series(alpha, 64)[1] == pytest.approx(
        complex(q_deriv(alpha, 0.0)), rel=1e-12)


def test_q_series_evaluates_no_j_point(monkeypatch):
    def refuse(z):
        raise AssertionError("q_series evaluated J")

    monkeypatch.setattr(modular, "j_eval", refuse)
    monkeypatch.setattr(modular, "j_deriv", refuse)
    assert q_series(1.3, 64).order == 64


@pytest.mark.parametrize("alpha", [1.3, math.pi, 5.0])
def test_q_series_work_count(monkeypatch, alpha):
    # One Newton inverse of theta_3 (7 steps of 2 products at order 64) and
    # 4 products after it; no coefficient-by-coefficient recurrence.
    counts = {"convolve": 0, "dot": 0}
    for name in counts:
        original = getattr(np, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    q_series(alpha, 64)
    assert counts["convolve"] <= 18 and counts["dot"] == 0, counts


def _plain_nome_powers(beta, ks, order):
    """The three-term Laguerre recurrence of ``_nome_powers`` with a fresh
    row per step, and the number of 2^-600 rescales it took."""
    t = beta * ks
    shift = np.floor(np.maximum(t - 700.0, 0.0) / math.log(2.0))
    out = np.zeros((order + 2, ks.size))
    out[1] = np.exp(shift * math.log(2.0) - t)
    rescales = 0
    for j in range(order):
        out[j + 2] = (2.0 * j - 2.0 * t) / (j + 1) * out[j + 1] \
            - (j - 1) / (j + 1) * out[j]
        big = np.abs(out[j + 2]) > 2.0 ** 600
        if big.any():
            out[:, big] *= 2.0 ** -600
            shift[big] -= 600
            rescales += 1
    return np.ldexp(out[1:], -shift.astype(int)), rescales


@pytest.mark.parametrize("beta,ks,order,rescaled", [
    (math.pi, np.arange(1, 91), 64, False),
    (12.3, np.arange(1, 20), 64, False),
    (700.0, np.array([1, 2, 3, 4, 6]), 1000, True),     # beta k > 700
])
def test_nome_powers_match_plain_recurrence(beta, ks, order, rescaled):
    want, rescales = _plain_nome_powers(beta, ks, order)
    assert (rescales > 0) == rescaled
    assert np.array_equal(modular._nome_powers(beta, ks, order), want)


@pytest.mark.parametrize("order", [64, 1000])
@pytest.mark.parametrize("alpha", [1e-3, 0.05, 50.0, 700.0, 1e4])
def test_q_series_far_from_the_sweep_range(alpha, order):
    qs = q_series(alpha, order)
    assert np.isfinite(qs.coeffs).all()
    z = np.array([0.0, 0.05, -0.05, 0.05j, 0.03 - 0.04j, -0.02 + 0.01j])
    # The rounding scale of the truncated sum is its majorant at |z|.  Its
    # tail beyond ``order`` is at most M (1/10)^(order+1) / (9/10) by Cauchy
    # on |z| = 1/2, with M = max |Q| there (sampled, times 2).  At
    # alpha = 700 and order 64 the tail is the larger term.
    majorant = TruncatedSeries(np.abs(qs.coeffs)).eval(np.abs(z)).real
    m = 2 * np.abs(q_eval(alpha, 0.5 * np.exp(2j * np.pi *
                                              np.arange(256) / 256))).max()
    tail = m * 0.1 ** (order + 1) / 0.9
    assert np.all(np.abs(qs.eval(z) - q_eval(alpha, z))
                  <= 1e-13 * majorant + tail + 1e-300)


@pytest.mark.parametrize("alpha,rho,nodes", [(50.0, 0.98, 16384),
                                             (700.0, 0.99, 32768)])
def test_q_series_top_coefficients_at_order_1000(alpha, rho, nodes):
    # Here e^{-k beta} underflows for powers q^k that still reach degree
    # 1000; a Cauchy sum of Q itself on |z| = rho checks those degrees.
    got = q_series(alpha, 1000).coeffs
    z = rho * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    cauchy = np.fft.fft(q_eval(alpha, z))[:1001] / nodes
    cauchy /= rho ** np.arange(1001)
    assert np.abs(got - cauchy).max() <= 1e-11 * np.abs(got).max()


# -- injectivity -------------------------------------------------------------


def test_starlike_certificate_below_univalence_radius():
    r, nodes = 0.9 * E_HALF_PI, 4096
    cert = starlike_certificate(r, nodes)
    z = r * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    direct = float((z * j_deriv(z) / j_eval(z)).real.min())
    assert abs(cert.min_re - direct) <= 1e-12
    assert cert.margin == (cert.min_re - cert.discretisation - cert.tail
                           - cert.rounding)
    assert 0.003 < cert.discretisation < 0.0031         # Lip is about 4.01
    assert 0 < cert.tail < 1e-42
    assert 0 < cert.rounding < 1e-12
    assert cert.margin > 0.016


@pytest.mark.parametrize("factor", [0.92, 0.95])
def test_starlike_certificate_fails_beyond_starlikeness(factor):
    # J is still univalent here but no longer starlike: Re zJ'/J dips
    # below 0, so no node count may certify it.
    for nodes in (4096, 65536):
        assert starlike_certificate(factor * E_HALF_PI, nodes).margin <= 0


def test_starlike_certificate_domain():
    with pytest.raises(DomainError):
        starlike_certificate(1.0, 64)
    with pytest.raises(DomainError):
        starlike_certificate(0.1, 0)
    assert starlike_certificate(0.99, 64).margin == -math.inf


def test_log_coefficients_within_divisor_bound():
    kl = log_coeffs_exact(4097)
    assert kl[:6] == [0, -8, 24, -32, 24, -48]
    sigma = [0] * 4098
    for m in range(1, 4098):
        sigma[m::m] = [s + m for s in sigma[m::m]]
    assert all(abs(kl[k]) <= 8 * sigma[k] for k in range(1, 4098))


def test_known_collision_pair():
    # J takes equal values at +/- i e^{-pi/2}: the univalence radius is
    # attained on the imaginary axis.
    gap = abs(complex(j_eval(1j * E_HALF_PI)) - complex(j_eval(-1j * E_HALF_PI)))
    assert gap < 1e-13


def test_collision_search_above_radius():
    rep = collision_search(0.35)
    assert rep.value_gap < 1e-8
    assert abs(rep.z1 - rep.z2) >= E_HALF_PI


@pytest.mark.parametrize("r", [0.21, 0.25, 0.35, 0.5, 0.9])
def test_closed_form_pair_fits_the_disk(r):
    rep = collision_search(r)
    assert max(abs(rep.z1), abs(rep.z2)) <= 0.999 * r
    # z1 and z2 lie on opposite halves of the imaginary axis.
    assert abs(rep.z1 - rep.z2) == pytest.approx(abs(rep.z1) + abs(rep.z2))
    assert abs(rep.z1 - rep.z2) >= E_HALF_PI
    assert rep.value_gap < 1e-13


@pytest.mark.parametrize("r", [0.1, 0.2])
def test_no_closed_form_pair_below_univalence_radius(r):
    # 0.999 r < e^{-pi/2}: no member of the family fits in the disk.
    with pytest.raises(DomainError):
        collision_search(r)


@pytest.mark.parametrize("t", ["0.4", "0.55", "0.7"])
def test_closed_form_pair_is_a_genuine_identity(t):
    """J(-i e^{-pi t}) = J(i e^{-pi/(4t)}) to 1e-45 in the theta oracle,
    which sums the series without any modular reduction."""
    with mpmath.workdps(120):
        t = mpmath.mpf(t)
        z1 = mpmath.mpc(0, -mpmath.exp(-mpmath.pi * t))
        z2 = mpmath.mpc(0, mpmath.exp(-mpmath.pi / (4 * t)))
    j1, j2 = mp_lambda_deriv(z1)[0], mp_lambda_deriv(z2)[0]
    assert abs(j1 - j2) <= mpmath.mpf("1e-45") * abs(j1)
    assert complex(j_eval(complex(z1))) == pytest.approx(complex(j1),
                                                         rel=1e-13)


def test_univalence_suite_at_seed_8():
    # The pair is closed form, so no seed makes this suite slow.
    res = run_suite("univalence", 8)
    assert res.passed
    assert res.summary["collision_gap"] < 1e-13
