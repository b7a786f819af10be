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
                             j_eval, j_max_modulus, j_series,
                             minus_j_minus_series, q_argument, q_eval,
                             q_series, univalence_probe)

# Degree <= 5 coefficients frozen from the exact integer computation.
J_EXACT_PREFIX = (0, 16, -128, 704, -3072, 11488)
A_EXACT_PREFIX = (1, 8, 44, 192, 718)


def mp_lambda(z):
    """Independent oracle: the elliptic lambda in the nome, via theta
    functions (theta2/theta3)^4 at q = z."""
    q = mpmath.mpc(z)
    return complex((mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4)


# -- coefficients ------------------------------------------------------------


def test_exact_prefix():
    assert j_coeffs_exact(5) == J_EXACT_PREFIX


def test_exact_sign_alternation():
    c = j_coeffs_exact(21)
    assert c[0] == 0
    for n in range(1, 22):
        assert (-1) ** (n + 1) * c[n] > 0


def test_exact_caps():
    with pytest.raises(DomainError):
        j_coeffs_exact(22)
    with pytest.raises(DomainError):
        j_coeffs_exact(0)


def test_float_series_matches_exact():
    js = j_series(21)
    assert np.allclose(js.coeffs.real, j_coeffs_exact(21), rtol=1e-13)
    assert np.all(js.coeffs.imag == 0)


def test_a_prefix_and_shape():
    ac = a_coeffs(100)
    assert ac.a_exact[:5] == A_EXACT_PREFIX
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


def test_array_shape_is_kept():
    z = _disk_sample(12, seed=12).reshape(3, 4)
    for fn in (j_eval, j_deriv):
        out = fn(z)
        assert out.shape == (3, 4)
        assert np.array_equal(out.ravel(), fn(z.ravel()))
    assert j_eval(np.zeros((0, 2))).shape == (0, 2)


def test_scalar_call_cost():
    """collision_search makes thousands of scalar calls, so a scalar J must
    stay cheap.  The cost is measured in units of one ufunc call on a
    1-element array.  A 21-factor truncated product of J costs 215-330
    units at |w| = 0.35 on a 2-core x86 host; the bound is 200."""
    x = np.array([0.35 + 0j])
    unit = call = math.inf
    for _ in range(5):          # interleaved, so both see the same core speed
        t0 = time.perf_counter()
        for _ in range(2000):
            x * x
        unit = min(unit, (time.perf_counter() - t0) / 2000)
        t0 = time.perf_counter()
        for _ in range(200):
            j_eval(0.35)
        call = min(call, (time.perf_counter() - t0) / 200)
    assert call <= 200 * unit


def test_max_modulus_on_negative_axis():
    for r in (0.1, 0.3, E_PI):
        m, angle = j_max_modulus(r, 4096)
        assert angle == pytest.approx(np.pi, abs=2 * np.pi / 4096 * 1.001)
        assert m == pytest.approx(abs(complex(j_eval(-r))), rel=1e-9)


# -- the covering map --------------------------------------------------------


def test_covering_parameter_positive():
    with pytest.raises(DomainError):
        CoveringParameter(0.0)
    with pytest.raises(DomainError):
        q_eval(-1.0, 0.1)


def test_q_argument_lands_in_punctured_disk():
    rng = np.random.default_rng(3)
    z = 0.95 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    w = q_argument(2.0, z)
    assert np.all(np.abs(w) < 1)
    assert np.all(np.abs(w) > 0)


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


def test_q_series_validation():
    with pytest.raises(DomainError):
        q_series(1.0, 0)
    with pytest.raises(DomainError):
        q_series(1.0, 64, nodes=100)


# -- injectivity -------------------------------------------------------------


def test_probe_below_univalence_radius():
    rep = univalence_probe(0.9 * E_HALF_PI, 20_000, seed=1)
    assert rep.collision_count == 0
    assert rep.min_ratio > 0


def test_known_collision_pair():
    # J takes equal values at +/- i e^{-pi/2}: the univalence radius is
    # attained on the imaginary axis.
    gap = abs(complex(j_eval(1j * E_HALF_PI)) - complex(j_eval(-1j * E_HALF_PI)))
    assert gap < 1e-13


def test_collision_search_above_radius():
    rep = collision_search(0.35, seed=3)
    assert rep.found
    assert rep.value_gap < 1e-8
    assert rep.separation >= 0.02
