import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrlab.errors import DomainError
from bohrlab import generators, series
from bohrlab.series import TruncatedSeries, compose, inverse


def coeff_lists(max_len=8):
    finite = st.floats(-5, 5, allow_nan=False)
    return st.lists(
        st.builds(complex, finite, finite), min_size=1, max_size=max_len
    )


# -- structure ---------------------------------------------------------------


def test_order_and_indexing():
    f = TruncatedSeries([1.0, 2.0, 3.0])
    assert f.order == 2
    assert f[1] == 2.0
    assert f[17] == 0j          # silent zero past the stored prefix


def test_coeffs_are_immutable():
    f = TruncatedSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0


def test_rejects_nonfinite():
    with pytest.raises(DomainError, match="past the double range or NaN"):
        TruncatedSeries([1.0, np.inf])
    with pytest.raises(ValueError):
        TruncatedSeries([])


# -- frozen oracles ----------------------------------------------------------


@pytest.mark.parametrize("dtype", [float, complex])
def test_truncmul_is_convolve_bit_for_bit(dtype):
    """The one truncated product reads np.convolve's kernel directly: the
    same bits for real and complex operands, either operand the longer,
    and at every degree below the full product's."""
    rng = np.random.default_rng(5)

    def draw(size):
        x = rng.standard_normal(size)
        return x + 1j * rng.standard_normal(size) if dtype is complex else x

    for la, lb in ((65, 65), (65, 9), (9, 65), (1, 40), (33, 1)):
        a, b = draw(la), draw(lb)
        full = np.convolve(a, b)
        for n in (0, 1, min(la, lb) - 1, max(la, lb) - 1, la + lb - 2):
            got = series._truncmul(a, b, n)
            assert got.dtype == full.dtype
            assert np.array_equal(got, full[: n + 1]), (la, lb, n)


def test_compose_oracle():
    # (1 + w)^2 at w = z + z^2: 1 + 2z + 3z^2 + 2z^3 + z^4
    got = compose(np.array([1.0, 2.0, 1.0]), np.array([0.0, 1.0, 1.0]), 4)
    assert np.allclose(got, [1.0, 2.0, 3.0, 2.0, 1.0])


def _toeplitz(v):
    """v's lower-triangular Toeplitz matrix, from compose's view."""
    padded = np.zeros(2 * v.size - 1, dtype=v.dtype)
    padded[v.size - 1:] = v
    return series._toeplitz_view(padded).copy()


@pytest.mark.parametrize("n", [1, 2, 9, series.TOEPLITZ_MAX_ORDER + 1])
def test_toeplitz_product_is_the_truncated_product(n):
    """T(v) @ x against np.convolve(v, x)[:n], to a few ulps."""
    rng = np.random.default_rng(n)
    v, x = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    t = _toeplitz(v)
    assert np.array_equal(np.tril(t), t)
    assert np.allclose(t @ x, np.convolve(v, x)[:n], rtol=1e-14, atol=0)


def _full_horner(outer, inner, order):
    """compose as a Horner loop over every outer coefficient up to
    ``order``, zero or not, each step the product by u that compose makes
    at this order: rows 1.. of u's Toeplitz matrix up to the Toeplitz
    bound, else the truncated product."""
    u = np.zeros(order + 1, dtype=complex)
    u[: min(inner.size, order + 1)] = inner[: order + 1]
    if order <= series.TOEPLITZ_MAX_ORDER:
        rows = _toeplitz(u)[1:]
        times_u = lambda acc: np.concatenate([[0], rows.dot(acc)])
    else:
        times_u = lambda acc: series._truncmul(acc, u, order)
    acc = np.zeros(order + 1, dtype=complex)
    acc[0] = outer[order]
    for k in range(order - 1, -1, -1):
        acc = times_u(acc)
        acc[0] += outer[k]
    return acc


@pytest.mark.parametrize("degree", [None, 0, 1, 2, 3])
def test_compose_from_top_coefficient_matches_full_horner(degree):
    """At the sweep order and above the Toeplitz bound, one per route."""
    rng = np.random.default_rng(11)
    for order in (64, series.TOEPLITZ_MAX_ORDER + 1):
        coeffs = np.zeros(order + 1, dtype=complex)
        if degree is not None:
            coeffs[: degree + 1] = rng.standard_normal(degree + 1) \
                + 1j * rng.standard_normal(degree + 1)
        c = rng.standard_normal(order + 1) \
            + 1j * rng.standard_normal(order + 1)
        c[0] = 0
        assert np.array_equal(compose(coeffs, c, order),
                              _full_horner(coeffs, c, order)), order


def _dyadic(values):
    """Gaussian integers (re, im) and an exponent e with values = . / 2^e,
    exactly (every finite float is a dyadic rational)."""
    parts = [Fraction(x) for v in values for x in (v.real, v.imag)]
    e = max(q.denominator.bit_length() - 1 for q in parts)
    ints = [int(q * 2**e) for q in parts]
    return list(zip(ints[::2], ints[1::2])), e


def _exact_compose(outer, inner, top, order):
    """outer(inner(z)) to degree ``order`` as exact Fraction pairs: Horner
    in Gaussian integers over the common denominators of the floats."""
    c, t = _dyadic(outer[: top + 1])
    u, s = _dyadic(inner[: order + 1])
    acc = [c[top]] + [(0, 0)] * order        # denominator 2^(t + k s)
    for k in range(top - 1, -1, -1):
        nxt = [(0, 0)] * (order + 1)
        for i, (ar, ai) in enumerate(acc):
            if ar or ai:
                for n in range(i + 1, order + 1):
                    br, bi = u[n - i]
                    xr, xi = nxt[n]
                    nxt[n] = (xr + ar * br - ai * bi, xi + ar * bi + ai * br)
        shift = 2 ** ((top - k) * s)
        nxt[0] = (nxt[0][0] + c[k][0] * shift, nxt[0][1] + c[k][1] * shift)
        acc = nxt
    den = 2 ** (t + top * s)
    return [(Fraction(re, den), Fraction(im, den)) for re, im in acc]


@pytest.mark.parametrize("top, order", [
    *(pytest.param(top, 64, id=str(top))
      for top in (4, 8, 9, 15, 16, 17, 63, 64)),
    pytest.param(9, series.TOEPLITZ_MAX_ORDER + 1, id="9-above-toeplitz"),
])
def test_compose_within_rounding_budget_of_exact(top, order):
    """Paterson-Stockmeyer against exact rational arithmetic on the same
    float inputs, coefficient by coefficient, at order N = 64 (Toeplitz
    products) and at one order above the Toeplitz bound (truncated
    products), so both product routes of compose meet one budget.

    Budget.  Let u = eps/2 and theta = sqrt(2) gamma_{2(N+1)}, with
    gamma_m = m u / (1 - m u).  Every step of compose (a truncated
    product, a row of a Toeplitz matrix-vector product or of the block
    matrix product) is a complex sum of at most
    N + 1 products; evaluated in any order, by complex or by separate real
    and imaginary accumulation, its error is at most theta sum |a_k||b_k|.
    If inputs are within (F_a - 1) and (F_b - 1) of their majorants A, B
    (A_k >= |a_k|), that sum of products is within ((1 + theta) F_a F_b - 1)
    of the majorant sum A * B, and an addition turns max(F) into
    (1 + u) max(F).  So u^i is within (1 + theta)^(i-1), g = u^b and each
    block within (1 + theta)^b, and after the J = top // b Horner steps
    the result is within F = (1 + u)^J (1 + theta)^(b (J + 1)) of the
    majorant (|outer| o |inner|)_n.  With b (J + 1) + J <= top + b +
    top / b <= 2 top + 1, F - 1 <= (2 top + 1) theta / (1 - (2 top + 1)
    theta) <= 2 sqrt(2) (1 + 1e-11) (N + 1)(top + 1) eps at N <= 65.  The
    test allows gamma (top + 1) eps (|outer| o |inner|)_n with
    gamma = 3 (N + 1), which also covers the rounding of the float
    majorant (all its terms are positive).  The error is one-sided: it is
    an upper bound on |computed - exact|, never an estimate of it.
    """
    rng = np.random.default_rng(top)
    outer = np.zeros(order + 1, dtype=complex)
    outer[: top + 1] = rng.standard_normal(top + 1) \
        + 1j * rng.standard_normal(top + 1)
    # |u_1| = 1 keeps u^top visible in the top coefficients, so a lost or
    # misplaced block shows there too.
    inner = (rng.standard_normal(order + 1)
             + 1j * rng.standard_normal(order + 1)) \
        * 0.5 ** np.arange(order + 1)
    inner[0], inner[1] = 0, np.exp(2j * np.pi * rng.random())
    got = compose(outer, inner, order)
    exact = _exact_compose(outer, inner, top, order)
    majorant = np.zeros(order + 1)
    majorant[0] = abs(outer[top])
    for k in range(top - 1, -1, -1):
        majorant = np.convolve(majorant, np.abs(inner))[: order + 1]
        majorant[0] += abs(outer[k])
    budget = 3 * (order + 1) * (top + 1) * np.finfo(float).eps * majorant
    for n, (re, im) in enumerate(exact):
        c = complex(got[n])
        err = math.hypot(float(Fraction(c.real) - re),
                         float(Fraction(c.imag) - im))
        assert err <= budget[n], (n, err, budget[n])


def test_shared_table_pull_back_within_rounding_budget_of_exact():
    """A Blaschke pull-back to degree d <= 64 reads the leading d + 1
    columns of one order-64 power table with b = 8
    (``generators._blaschke_powers``), not a table of its own b.  At every
    degree 1..64 it meets the budget of
    ``test_compose_within_rounding_budget_of_exact`` at N = top = d.  As
    u vanishes at 0, the degree-d prefix of one exact composition at
    order 64 is the exact composite of outer's degree-d prefix, and so is
    that of the majorant.  That budget grows with |u|'s majorant, so the
    pull-back is also held to ``compose`` at degree d, which builds its
    own table with b = isqrt(d), within 4e-15 of the largest
    coefficient."""
    c = 0.6 + 0.5j
    rng = np.random.default_rng(64)
    outer = rng.standard_normal(65) + 1j * rng.standard_normal(65)
    inner = generators._z_mobius(c, 1.0, 64)[:65]
    exact = _exact_compose(outer, inner, 64, 64)
    majorant = np.zeros(65)
    for k in range(64, -1, -1):
        majorant = np.convolve(majorant, np.abs(inner))[:65]
        majorant[0] += abs(outer[k])
    factor = generators.Factor("blaschke", c)
    for d in range(1, 65):
        got = factor.pull_back(outer, d)
        own = compose(outer, generators._z_mobius(c, 1.0, d), d)
        assert np.abs(got - own).max() <= 4e-15 * np.abs(own).max(), d
        budget = 3 * (d + 1) ** 2 * np.finfo(float).eps * majorant
        for n, (re, im) in enumerate(exact[: d + 1]):
            g = complex(got[n])
            err = math.hypot(float(Fraction(g.real) - re),
                             float(Fraction(g.imag) - im))
            assert err <= budget[n], (d, n, err, budget[n])


def test_compose_above_the_bound_builds_no_matrix():
    """Above the Toeplitz bound every product is the truncated product: a
    composition at order 4096 allocates nothing near one (4097 x 4097)
    matrix."""
    u = np.zeros(4097, dtype=complex)
    u[1] = 1.0
    outer = np.ones(17, dtype=complex)
    tracemalloc.start()
    try:
        compose(outer, u, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4097 * 4097 * 16 / 100


def test_compose_requires_vanishing_inner():
    with pytest.raises(DomainError, match="inner series has constant term"):
        compose(np.array([1.0, 1.0]), np.array([0.5, 1.0]), 3)


def test_reciprocal_oracle():
    # 1/(2 + z) = 1/2 - z/4 + z^2/8 - ...
    g = inverse(np.array([2.0, 1.0]), 4)
    assert np.allclose(g, [0.5, -0.25, 0.125, -0.0625, 0.03125])


def test_reciprocal_requires_unit():
    with pytest.raises(DomainError, match="vanishing at 0"):
        inverse(np.array([0.0, 1.0]), 3)


@given(coeff_lists(6), st.integers(2, 8))
@example(a=[0.109375j, 2j], order=8)     # |g_n| grows like 18^n
@settings(max_examples=50, deadline=None)
def test_reciprocal_inverts(a, order):
    a[0] = a[0] if abs(a[0]) > 0.1 else 1.0 + a[0]
    f = np.array(a, dtype=complex)
    g = inverse(f, order)
    prod = series._truncmul(f, g, order)
    expect = np.zeros(order + 1)
    expect[0] = 1.0
    # Rounding in (f g)_n is a few (n+1) eps sum_k |f_k| |g_{n-k}|; that
    # sum grows with |g|, so no fixed absolute tolerance fits every input.
    # Below the normal range rounding is absolute: `tiny` covers it.
    scale = np.convolve(np.abs(f), np.abs(g))[: order + 1]
    fp = np.finfo(float)
    tol = 4 * np.arange(1, order + 2) * fp.eps * scale + fp.tiny
    assert np.all(np.abs(prod - expect) <= tol)


def test_inverse_keeps_real_dtype():
    f = np.array([2.0, 1.0, 0.5])
    g = inverse(f, 9)
    assert g.dtype == np.float64 and g.size == 10
    assert np.allclose(np.convolve(f, g)[:10], np.eye(10)[0], atol=1e-15)


def test_inverse_at_order_zero():
    g = inverse(np.array([4.0 - 2.0j, 1.0]), 0)
    assert g.shape == (1,) and g[0] == pytest.approx(0.2 + 0.1j, rel=1e-15)
    with pytest.raises(DomainError, match="vanishing at 0"):
        inverse(np.array([0.0, 1.0]), 0)


def test_inverse_of_geometric_series_at_order_1000():
    # 1/(1 - c z) = sum c^n z^n, within the budget of
    # test_reciprocal_inverts: 4 (n+1) eps sum_k |f_k| |g_{n-k}| + tiny.
    order, c = 1000, 0.9j
    f = np.array([1.0, -c])
    g = inverse(f, order)
    n = np.arange(order + 1)
    exact = 0.9 ** n * 1j ** (n % 4)
    scale = np.convolve(np.abs(f), np.abs(g))[: order + 1]
    fp = np.finfo(float)
    tol = 4 * (n + 1) * fp.eps * scale + fp.tiny
    assert np.all(np.abs(g - exact) <= tol)


def test_eval_matches_polyval():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f = TruncatedSeries(c)
    z = 0.3 - 0.2j
    assert f.eval(z) == pytest.approx(np.polyval(c[::-1], z))


def test_eval_vectorized():
    f = TruncatedSeries([1.0, 1.0])
    z = np.array([0.0, 0.5j])
    assert np.allclose(f.eval(z), [1.0, 1.0 + 0.5j])


@pytest.mark.parametrize("shape", [(), (1,), (4097,), (3, 65)])
def test_eval_in_place_is_horner_with_temporaries_bit_for_bit(shape):
    """The in-place Horner steps round as acc = acc * z + c_k does, on
    0-d, 1-d and 2-d points; order 64 as for harmonic's dilatations."""
    rng = generators.Stream(5)
    f = TruncatedSeries(rng.disk(1.0, 65))
    z = rng.disk(1.0, math.prod(shape)).reshape(shape)
    acc = np.full(z.shape, f.coeffs[-1], dtype=complex)
    for k in range(f.order - 1, -1, -1):
        acc = acc * z + f.coeffs[k]
    got = f.eval(z)
    if shape == ():
        assert isinstance(got, complex) and got == complex(acc)
    else:
        assert got.shape == shape and np.array_equal(got, acc)
