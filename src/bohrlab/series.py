"""Truncated complex power-series arithmetic.

A series is a finite coefficient prefix c_0..c_N with an explicit
(inclusive) truncation order N.  Everything downstream -- the modular
function, covering maps, majorant sums -- is built on these prefixes, so
truncation error is always attributable to a known order.

Arithmetic works on coefficient arrays (``_truncmul``, ``compose``,
``inverse``); a ``TruncatedSeries`` only holds and evaluates a checked result.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import isfinite, isqrt

import numpy as np

from .errors import DomainError

try:
    from numpy._core.multiarray import correlate as _correlate
except ImportError:                     # numpy < 2, where it does not warn
    from numpy.core.multiarray import correlate as _correlate


class TruncatedSeries(namedtuple("TruncatedSeries", "coeffs label")):
    """Coefficient prefix c_0..c_N of an analytic function.

    ``coeffs`` always has exactly ``order + 1`` entries, all of finite
    modulus (else ``DomainError``): the one check on coefficient moduli,
    which a finite c passes only if |c| is finite too.  ``label`` is a
    free-form provenance string.  Immutable; ``series[n]`` is c_n.
    """

    __slots__ = ()

    def __new__(cls, coeffs, label: str = ""):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        with np.errstate(over="ignore"):
            modulus = np.abs(c).max()
        if not isfinite(modulus):
            raise DomainError("series coefficient moduli must be finite, "
                              "not past the double range or NaN")
        c.setflags(write=False)
        return super().__new__(cls, c, label)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __getitem__(self, n: int) -> complex:
        return complex(self.coeffs[n]) if 0 <= n <= self.order else 0j

    def eval(self, z):
        """Horner evaluation of the truncated polynomial.

        Accepts a complex scalar or an ndarray of points.  No tail
        estimate is applied here.
        """
        z = np.asarray(z, dtype=complex)
        acc = np.full(z.shape, self.coeffs[-1], dtype=complex)
        for k in range(self.order - 1, -1, -1):    # in place: no temporary
            acc *= z
            acc += self.coeffs[k]
        return complex(acc) if acc.ndim == 0 else acc


def _truncmul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Every truncated product but compose's Toeplitz ones: ``np.convolve(a,
    b)[: n + 1]`` bit for bit, from its kernel (longer operand first, the
    other reversed) without its Python wrapper."""
    a, b = (b, a) if b.size > a.size else (a, b)
    return _correlate(a, b[::-1], 2)[: n + 1]


#: Highest order at which ``compose`` multiplies by Toeplitz matrices, and
#: the order of the Blaschke power tables.  A matrix holds (N + 1)^2
#: numbers (268 MB at order 4096), and from order 65 every product crosses
#: OpenBLAS's threading threshold (4096 elements), where on two shared
#: cores the threads cost more than they give.
TOEPLITZ_MAX_ORDER = 64


def _toeplitz_view(padded: np.ndarray) -> np.ndarray:
    """The n x n lower-triangular Toeplitz matrix T[r, s] = v[r - s] (0 for
    s > r) of the series v that ``padded`` holds after n - 1 zeros, as a
    view of ``padded``: T @ x is v x truncated at degree n - 1."""
    n = (padded.size + 1) // 2
    step = padded.itemsize
    return np.ndarray((n, n), padded.dtype, padded, (n - 1) * step,
                      (step, -step))


def compose(outer: np.ndarray, inner: np.ndarray, order: int) -> np.ndarray:
    """Coefficients of outer(inner(z)) up to ``order``, from their arrays.

    The inner series u must vanish exactly at 0: only then does a
    degree-N prefix of u determine the composite exactly to degree N,
    and outer degrees beyond ``order`` cannot reach back.

    Paterson-Stockmeyer with b = max(1, isqrt(top)), ``top`` the highest
    nonzero outer degree <= ``order``: ``_power_table`` builds u^0..u^b,
    then ``_compose_powers`` forms the blocks sum_{i<b} c_{jb+i} u^i in
    one matrix product and runs Horner over them in g = u^b: b - 1 +
    top // b products instead of top (15 instead of 64 at top = 64).  Up
    to ``TOEPLITZ_MAX_ORDER`` each is a BLAS matrix-vector product with
    rows i.. of u's or b.. of g's Toeplitz matrix (u^i and g vanish below
    degrees i and b); above it, where no workload composes, each is
    ``_truncmul`` and no matrix is built.  A Blaschke pull-back up to the
    bound reads a shared table instead (``generators._blaschke_powers``).
    """
    if inner[0] != 0:
        raise DomainError("inner series has constant term %r"
                          % complex(inner[0]))
    top = int(nz[-1]) if (nz := np.flatnonzero(outer[: order + 1])).size else 0
    powers = _power_table(inner, order, max(1, isqrt(top)))
    return _compose_powers(outer, powers, order)


def _power_table(inner: np.ndarray, order: int, b: int) -> np.ndarray:
    """Read-only rows u^0..u^b to degree ``order``, u = ``inner``."""
    powers = np.zeros((b + 1, order + 1), dtype=complex)
    powers[0, 0] = 1.0
    u = powers[1]
    u[: min(inner.size, order + 1)] = inner[: order + 1]
    if order <= TOEPLITZ_MAX_ORDER:
        t = _toeplitz_view(np.concatenate((np.zeros(order), u))).copy()
        for i in range(2, b + 1):
            t[i:].dot(powers[i - 1], out=powers[i, i:])
    else:
        for i in range(2, b + 1):
            powers[i] = _truncmul(powers[i - 1], u, order)
    powers.setflags(write=False)
    return powers


def _compose_powers(outer: np.ndarray, powers: np.ndarray,
                    order: int) -> np.ndarray:
    """outer(u) to degree ``order`` from a ``_power_table`` of u."""
    b, toeplitz = powers.shape[0] - 1, order <= TOEPLITZ_MAX_ORDER
    g = powers[b, : order + 1]
    top = int(nz[-1]) if (nz := np.flatnonzero(outer[: order + 1])).size else 0
    nblocks = top // b + 1
    c = np.zeros(nblocks * b, dtype=complex)
    c[: top + 1] = outer[: top + 1]
    blocks = c.reshape(nblocks, b) @ powers[:b, : order + 1]
    if toeplitz and nblocks > 1:
        g = _toeplitz_view(np.concatenate((np.zeros(order), g)))[b:].copy()
    for j in range(nblocks - 2, -1, -1):
        row = blocks[j, b:] if toeplitz else blocks[j]
        np.add(g.dot(blocks[j + 1]) if toeplitz
               else _truncmul(blocks[j + 1], g, order), row, out=row)
    return blocks[0]


def inverse(f: np.ndarray, order: int) -> np.ndarray:
    """Coefficients g_0..g_order of 1/f in f's dtype by Newton doubling,
    g <- g (2 - f g) (Brent and Kung, 1978), negating f g in place: each of
    ceil(log2(order + 1)) steps doubles the correct prefix in two products."""
    if f[0] == 0:
        raise DomainError("cannot invert a series vanishing at 0")
    f = f if f.size > order else np.pad(f, (0, order + 1 - f.size))
    g = 1.0 / f[:1]
    while g.size <= order:
        n = min(2 * g.size, order + 1)
        e = _truncmul(f[:n], g, n - 1)
        np.negative(e, out=e)
        e[0] += 2.0
        g = _truncmul(g, e, n - 1)
    return g


@lru_cache(maxsize=8)
def unit_ring(nodes: int) -> np.ndarray:
    """The read-only ring e^{2 pi i k / nodes}, k = 0..nodes-1, cached for
    8 node counts; every circle sample in the package scales or shifts it."""
    ring = np.exp(1j * (2 * np.pi * np.arange(nodes) / nodes))
    ring.setflags(write=False)
    return ring


def circle_sup(f: TruncatedSeries, r: float, nodes: int) -> float:
    """Sampled max of |f| at ``nodes`` equally spaced points of |z| = r."""
    return float(np.abs(f.eval(r * unit_ring(nodes))).max())

