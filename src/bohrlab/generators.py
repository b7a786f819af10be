"""Seeded construction of Schwarz functions, large-function specs and
polynomials for the verification sweeps.

Every randomized constructor is a pure function of (seed, parameters); the
recipes serialize to a canonical text form so any counterexample found by a
sweep can be replayed exactly.  Every draw comes from ``Stream``: numpy's
``default_rng(seed)`` in Python ints, for the draws the sweeps make, so that
replay does not depend on the installed numpy.  SeedSequence's hash mixing
(numpy's ``bit_generator.pyx``) seeds PCG64, a 128-bit LCG with XSL-RR
output (O'Neill, 2014).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .modular import (CoveringParameter, _covering_parameter, j_eval, q_eval,
                      q_series)
from .series import (TOEPLITZ_MAX_ORDER, TruncatedSeries, _compose_powers,
                     _power_table, compose)

#: Radius of the circle on which ``LargeFunctionSpec.modulus_bound`` bounds
#: |F|; every Cauchy tail bound of the inequality checks reads it.
TAIL_RHO = 0.3

# ---------------------------------------------------------------------------
# The seeded stream

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_a(n: int) -> list[int]:
    """SeedSequence's first n + 1 hash constants: its k-th hash xors with
    the k-th and multiplies by the next.  A seed of m > 4 words takes 4 m
    hashes, a shorter one 16; output hash i uses _HASH_B alike."""
    return [0x43B0D7E5 * pow(0x931E8875, k, 2**32) & _M32
            for k in range(n + 1)]


_HASH_A = _hash_a(16)
#: Hashes 4..15, (source, target, xor, multiplier): the pool mixes itself.
_MIXES = [(s, d, _HASH_A[k], _HASH_A[k + 1]) for k, (s, d) in enumerate(
    [(s, d) for s in range(4) for d in range(4) if s != d], 4)]
_HASH_B = [0x8B51F9DD * 0x58F38DED ** k & _M32 for k in range(9)]


def _pcg_seed(seed: int) -> tuple[int, int]:
    """PCG64's state and increment from SeedSequence(seed)."""
    # The seed's 32-bit words, lowest first, padded with zeros to four.
    pool = [seed >> s & _M32 for s in (range(0, seed.bit_length(), 32)
                                       if seed >> 128 else (0, 32, 64, 96))]
    for k in range(4):
        v = (pool[k] ^ _HASH_A[k]) * _HASH_A[k + 1] & _M32
        pool[k] = v ^ v >> 16
    mixes = _MIXES
    if len(pool) > 4:           # each word past four mixes into the pool
        h = _hash_a(4 * len(pool))
        mixes = _MIXES + [(s, d, h[k], h[k + 1]) for k, (s, d) in enumerate(
            [(s, d) for s in range(4, len(pool)) for d in range(4)], 16)]
    for s, d, a, b in mixes:
        v = (pool[s] ^ a) * b & _M32
        v = 0xCA01F9DD * pool[d] - 0x4973F715 * (v ^ v >> 16) & _M32
        pool[d] = v ^ v >> 16
    out = 0     # 64-bit words j = (2j + 1, 2j): state u0 u1, stream u2 u3
    for i in range(8):
        v = (pool[i & 3] ^ _HASH_B[i]) * _HASH_B[i + 1] & _M32
        out |= (v ^ v >> 16) << 32 * (i ^ 6)
    inc = (out << 1 | 1) & _M128
    return ((inc + (out >> 128)) * _MULT + inc) & _M128, inc


def _checked_seed(seed) -> int:
    """``seed`` as an int; ``DomainError`` unless it is an integer >= 0."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError("seed must be an integer >= 0, not %r" % (seed,))
    return int(seed)


class Stream:
    """``numpy.random.default_rng(seed)`` for an integer seed >= 0:
    ``random``, ``uniform`` and ``integers`` draw what ``Generator``'s
    methods of those names draw, n draws being their size-n array.
    ``integers`` is Lemire's method on 32-bit halves of the outputs, lower
    half first, for a range of at most 2^32 values."""

    def __init__(self, seed):
        self._state, self._inc = _pcg_seed(_checked_seed(seed))
        self._upper = None      # the kept upper half of a 64-bit output

    def _next64(self) -> int:
        s = self._state = (self._state * _MULT + self._inc) & _M128
        x, r = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> r | x << 64 - r) & _M64

    def random(self, n: int | None = None):
        if n is None:
            return (self._next64() >> 11) * 2.0 ** -53
        return np.array([self.random() for _ in range(n)])

    def uniform(self, low: float, high: float, n: int | None = None):
        return low + (high - low) * self.random(n)

    def disk(self, radius: float, n: int | None = None):
        """Uniform in |z| < radius: radius sqrt(u) e^{2 pi i v}, u drawn
        before v."""
        return radius * np.sqrt(self.random(n)) * np.exp(
            2j * np.pi * self.random(n))

    def integers(self, low: int, high: int | None = None) -> int:
        low, size = (0, low) if high is None else (low, high - low)
        if not 0 < size <= 2**32:
            raise DomainError("integers needs 0 < high - low <= 2^32")
        m = None if size > 1 else 0     # numpy draws nothing for one value
        while m is None or m & _M32 < 2**32 % size:
            if self._upper is None:
                v = self._next64()
                self._upper, v = v >> 32, v & _M32
            else:
                v, self._upper = self._upper, None
            m = v * size
        return low + (m >> 32)


# ---------------------------------------------------------------------------
# Recipes and specs


def _fmt(x) -> str:
    if isinstance(x, complex):
        return "%.17g%+.17gj" % (x.real, x.imag)
    return "%.17g" % x


@dataclass(frozen=True)
class Factor:
    """One zero-fixing disk self-map in a composition recipe.

    Kinds: identity ``z``; rotation ``e^{i theta} z``; power ``z^k``;
    contraction ``s z``; blaschke ``z (z + c) / (1 + conj(c) z)`` (a degree-2
    Blaschke product).  All of them fix the origin and map the disk into
    itself, so any composition is automatically a Schwarz function.
    """

    kind: str
    param: complex = 0j

    def __post_init__(self):
        if self.kind == "rotation":
            object.__setattr__(self, "param", complex(self.param.real, 0.0))
        elif self.kind == "power":
            k = int(self.param.real)
            if k < 2:
                raise DomainError("power factor needs exponent >= 2")
            object.__setattr__(self, "param", complex(k, 0.0))
        elif self.kind == "contraction":
            s = self.param.real
            if not 0 < s <= 1:
                raise DomainError("contraction needs 0 < s <= 1")
            object.__setattr__(self, "param", complex(s, 0.0))
        elif self.kind == "blaschke":
            if abs(self.param) >= 1:
                raise DomainError("blaschke parameter needs |c| < 1")
        elif self.kind != "identity":
            raise DomainError("unknown factor kind %r" % self.kind)

    @property
    def is_inner(self) -> bool:
        # Every kind except a strict contraction is a finite Blaschke
        # product, hence a proper surjection of the disk onto itself.
        return self.kind != "contraction" or self.param.real == 1.0

    @property
    def valuation(self) -> int:
        """Lower bound on the order of the zero at 0: k for z^k, else 1
        (a Blaschke factor with c = 0 is z^2, and 1 is still safe)."""
        return int(self.param.real) if self.kind == "power" else 1

    def eval(self, z):
        if self.kind == "identity":
            return z
        if self.kind == "rotation":
            return np.exp(1j * self.param.real) * z
        if self.kind == "power":
            return z ** int(self.param.real)
        if self.kind == "contraction":
            return self.param.real * z
        c = self.param
        return z * (z + c) / (1.0 + np.conj(c) * z)

    def pull_back(self, outer: np.ndarray, order: int) -> np.ndarray:
        """Coefficients of outer(self(z)) to degree ``order``, from the
        first ``order // valuation + 1`` coefficients of ``outer``, the
        only ones that reach it.  Only a Blaschke factor needs a general
        composition: c z multiplies [z^j] by c^j, and z^k moves it to
        degree j k exactly.  Up to ``TOEPLITZ_MAX_ORDER`` a Blaschke factor
        reads its parameter's cached power table (``_blaschke_powers``)."""
        if self.kind == "power":
            k = self.valuation
            moved = np.zeros(order + 1, dtype=complex)
            moved[::k] = outer[: order // k + 1]
            return moved
        outer = outer[: order + 1]
        if self.kind == "identity":
            return outer
        if self.kind != "blaschke":
            return outer * self.eval(1.0) ** np.arange(order + 1)
        if order <= TOEPLITZ_MAX_ORDER:
            return _compose_powers(outer, _blaschke_powers(self.param), order)
        return compose(outer, _z_mobius(self.param, 1.0, order), order)

    def text(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "blaschke":
            return "blaschke(%s)" % _fmt(self.param)
        if self.kind == "power":
            return "power(%d)" % int(self.param.real)
        return "%s(%s)" % (self.kind, _fmt(self.param.real))


def _z_mobius(c: complex, u: complex, order: int) -> np.ndarray:
    """Coefficients 0..order + 1 of z (c + u z) / (1 + conj(c) u z), in one
    array: z (c + u z) sum_n h_n z^n with h_n = (-conj(c) u)^n."""
    out = np.full(order + 2, -np.conj(c) * u)
    out[:2] = 0.0, 1.0
    h = np.cumprod(out[1:], out=out[1:])
    shifted = u * h[:-1]
    np.multiply(c, h, out=h)            # c h: h c rounds differently
    h[1:] += shifted
    return out


@lru_cache(maxsize=8)
def _blaschke_powers(c: complex) -> np.ndarray:
    """``series._power_table`` of z (c + z) / (1 + conj(c) z) to degree 64
    with b = 8, for eight c: a pull-back to degree d <= 64 reads its
    leading d + 1 columns, so its bits depend on c alone."""
    n = TOEPLITZ_MAX_ORDER
    return _power_table(_z_mobius(c, 1.0, n), n, math.isqrt(n))


@dataclass(frozen=True)
class SchwarzFunction:
    """Composition of zero-fixing disk self-maps, applied first-to-last."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise DomainError("recipe needs at least one factor")

    @property
    def is_inner(self) -> bool:
        return all(f.is_inner for f in self.factors)

    def eval(self, z):
        for f in self.factors:
            z = f.eval(z)
        return z

    @property
    def valuation(self) -> int:
        """Product of the factors' valuations: phi(z) = O(z^valuation)."""
        return math.prod(f.valuation for f in self.factors)

    def pull_back(self, outer: np.ndarray, order: int) -> np.ndarray:
        """Coefficients of outer(phi(z)) to degree ``order``, one factor at
        a time from the last, as ``eval`` applies the first factor first.
        Factor i is pulled back only to degree order // (v_0 ... v_{i-1}),
        all that reaches degree ``order`` through the factors before it,
        so ``outer`` is read only to degree order // valuation."""
        degrees = [order]
        for f in self.factors[:-1]:
            degrees.append(degrees[-1] // f.valuation)
        for f, d in zip(reversed(self.factors), reversed(degrees)):
            outer = f.pull_back(outer, d)
        return outer

    def text(self) -> str:
        return " . ".join(f.text() for f in self.factors)


def identity_schwarz() -> SchwarzFunction:
    return SchwarzFunction((Factor("identity"),))


def random_schwarz(
    seed: int, depth: int, inner_only: bool = False
) -> SchwarzFunction:
    """Draw a recipe of `depth` factors; deterministic per seed.

    Contraction ratios are kept in [0.3, 0.7] so that composites used in
    boundary-sampling sweeps stay a fixed distance inside the disk.
    """
    if not 1 <= depth <= 8:
        raise DomainError("depth must be in [1, 8]")
    rng = Stream(seed)
    kinds = ["identity", "rotation", "power", "blaschke"]
    if not inner_only:
        kinds.append("contraction")
    factors = []
    for _ in range(depth):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "rotation":
            f = Factor("rotation", complex(2 * math.pi * rng.random()))
        elif kind == "power":
            f = Factor("power", complex(rng.integers(2, 4)))
        elif kind == "contraction":
            f = Factor("contraction", complex(rng.uniform(0.3, 0.7)))
        elif kind == "blaschke":
            f = Factor("blaschke", rng.disk(0.8))
        else:
            f = Factor("identity")
        factors.append(f)
    return SchwarzFunction(tuple(factors))


@dataclass(frozen=True)
class LargeFunctionSpec:
    """Constructive description of an analytic F omitting two values.

    F(z) = a + (b - a) Q_alpha(phi(z)) for a covering parameter alpha and a
    Schwarz function phi.  With phi inner the image is exactly the plane
    minus {a, b}.  However it is built, ``DomainError`` unless a, b, b - a
    and (by ``TruncatedSeries``) each coefficient have a finite modulus.
    """

    a: complex
    b: complex
    alpha: CoveringParameter
    phi: SchwarzFunction
    series: TruncatedSeries = field(repr=False)

    def __post_init__(self):
        with np.errstate(over="ignore"):
            ends = np.abs((self.a, self.b, self.b - self.a))
        if not math.isfinite(ends.max()):
            raise DomainError("an omitted point of F exceeds the double range")
        if self.a == self.b:
            raise DomainError("omitted points must be distinct")

    @property
    def order(self) -> int:
        """Truncation order of ``series``."""
        return self.series.order

    @property
    def modulus_bound(self) -> float:
        """Certified bound on |F| over |z| <= TAIL_RHO from one scalar J.

        |phi| <= rho = TAIL_RHO by Schwarz, so Re (1+phi)/(1-phi) and
        Re (1-phi)/(1+phi) are >= c = (1-rho)/(1+rho).  As |J(w)| <= -J(-|w|)
        (positive coefficients) and J(e^s) = 1 - J(e^{pi^2/s}), |J| is at
        most -J(-e^{-alpha c}) and 1 - J(-e^{-pi^2 c/alpha}).  The nome used
        is <= e^{-pi c} (0.184 at rho = 0.3), where j_eval is good to a few
        ulps; the 1e-12 factor covers that rounding.  Past the double range
        it raises ``DomainError``.
        """
        alpha, c = self.alpha.alpha, (1.0 - TAIL_RHO) / (1.0 + TAIL_RHO)
        dual = alpha < math.pi
        x = math.exp(-(math.pi ** 2 / alpha if dual else alpha) * c)
        m = float(dual) - complex(j_eval(-x)).real
        bound = (abs(self.a) + abs(self.b - self.a) * m) * (1.0 + 1e-12)
        if not math.isfinite(bound):
            raise DomainError("the bound on |F| exceeds the double range")
        return bound

    def eval(self, z):
        return self.a + (self.b - self.a) * q_eval(self.alpha.alpha,
                                                   self.phi.eval(z))

    def scaled(self, c: complex) -> "LargeFunctionSpec":
        """c F; past the double range it raises ``DomainError``."""
        if c == 0:
            raise DomainError("scale factor must be nonzero")
        with np.errstate(over="ignore", invalid="ignore"):
            series = TruncatedSeries(self.series.coeffs * complex(c))
            return LargeFunctionSpec(self.a * c, self.b * c, self.alpha,
                                     self.phi, series)

    def text(self) -> str:
        return "a=%s b=%s alpha=%s order=%d phi=[%s]" % (
            _fmt(self.a), _fmt(self.b), _fmt(self.alpha.alpha),
            self.order, self.phi.text(),
        )


def make_large_function(a, b, alpha, phi: SchwarzFunction,
                        order: int) -> LargeFunctionSpec:
    """Assemble the spec and its one ``TruncatedSeries``: Q's coefficient
    array (``modular.q_series``) pulled back through phi's factors
    (``SchwarzFunction.pull_back``), then a + (b - a) Q(phi).  As
    phi = O(z^v), v = ``phi.valuation``, Q is built only to degree
    order // v (at least 1); when v > order only Q(0) reaches F.  An
    order below 1, or a coefficient or omitted point of modulus past the
    double range (each checked once, by the types), raises ``DomainError``."""
    if order < 1:
        raise DomainError("order must be >= 1")
    a, b = complex(a), complex(b)
    alpha = _covering_parameter(alpha)
    q = q_series(alpha, max(1, order // phi.valuation))
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = phi.pull_back(q, order) * (b - a)
        coeffs[0] += a
        return LargeFunctionSpec(a, b, alpha, phi, TruncatedSeries(coeffs))


def random_large_function(
    seed: int, order: int = 64, inner_only: bool | None = None
) -> LargeFunctionSpec:
    """Draw a spec with well-separated omitted points.

    alpha is kept in [0.8, pi] so circle-sampled evaluation of the cover
    stays cheap; the artifact itself accepts any alpha > 0.  phi(0) = 0,
    so F(0) = a + (b - a) J(e^-alpha) lies on the segment [a, b], at the
    relative position J(e^-alpha) in [1/2, J(e^-0.8)] ~ [0.5, 0.99993].
    """
    rng = Stream(seed)
    if inner_only is None:
        inner_only = bool(rng.random() < 0.5)
    while True:
        a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(a - b) >= 0.3:
            break
    alpha = rng.uniform(0.8, math.pi)
    phi = random_schwarz(rng.integers(2**32), rng.integers(1, 5),
                         inner_only=inner_only)
    return make_large_function(a, b, alpha, phi, order)


def random_polynomial(seed: int, degree: int) -> TruncatedSeries:
    """Polynomial with coefficients uniform in the unit disk;
    deterministic."""
    if degree > 16:
        raise DomainError("degree is capped at 16")
    return TruncatedSeries(Stream(seed).disk(1.0, degree + 1),
                           "random polynomial")


def random_mobius_bounded(seed: int, order: int = 64) -> TruncatedSeries:
    """Series of (c + u z) / (1 + conj(c) u z) with |u| = 1: modulus < 1.

    The label ``mobius(c=..., u=...)`` records both parameters.
    """
    rng = Stream(seed)
    c = rng.disk(0.9)
    u = np.exp(2j * np.pi * rng.random())
    return TruncatedSeries(_z_mobius(c, u, order)[1:],
                           "mobius(c=%s, u=%s)" % (_fmt(c), _fmt(u)))
