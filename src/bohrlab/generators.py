"""Seeded construction of Schwarz functions, large-function specs and
polynomials for the verification sweeps.

Every randomized constructor is a pure function of (seed, parameters); the
recipes serialize to a canonical text form so any counterexample found by a
sweep can be replayed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .modular import CoveringParameter, j_eval, q_eval, q_series
from .series import TruncatedSeries

#: Radius of the circle on which ``LargeFunctionSpec.modulus_bound`` bounds
#: |F|; every Cauchy tail bound of the inequality checks reads it.
TAIL_RHO = 0.3


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
        degree j k exactly."""
        if self.kind == "power":
            k = self.valuation
            moved = np.zeros(order + 1, dtype=complex)
            moved[::k] = outer[: order // k + 1]
            return moved
        outer = outer[: order + 1]
        if self.kind == "identity":
            return outer
        if self.kind == "blaschke":
            return TruncatedSeries(outer).compose(
                _blaschke_series(self.param, order), order).coeffs
        return outer * self.eval(1.0) ** np.arange(order + 1)

    def text(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "blaschke":
            return "blaschke(%s)" % _fmt(self.param)
        if self.kind == "power":
            return "power(%d)" % int(self.param.real)
        return "%s(%s)" % (self.kind, _fmt(self.param.real))


def _blaschke_series(c: complex, order: int) -> TruncatedSeries:
    """Series of z (z + c) / (1 + conj(c) z) to ``order``:
    z (z + c) sum_n g_n z^n with g_n = (-conj(c))^n."""
    coeffs = np.zeros(order + 1, dtype=complex)
    if order >= 1:
        g = np.cumprod(np.concatenate(([1.0],
                                       np.full(order - 1, -np.conj(c)))))
        coeffs[1:] = c * g
        coeffs[2:] += g[:-1]
    return TruncatedSeries(coeffs)


@dataclass(frozen=True)
class SchwarzFunction:
    """Composition of zero-fixing disk self-maps, applied first-to-last."""

    factors: tuple[Factor, ...]
    seed: int = 0

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

    def series(self, order: int) -> TruncatedSeries:
        """Series of phi: the identity z pulled back through the factors."""
        return TruncatedSeries(
            self.pull_back(TruncatedSeries.identity(order).coeffs, order))

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
    rng = np.random.default_rng(seed)
    kinds = ["identity", "rotation", "power", "blaschke"]
    if not inner_only:
        kinds.append("contraction")
    factors = []
    for _ in range(depth):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "rotation":
            f = Factor("rotation", complex(2 * math.pi * rng.random()))
        elif kind == "power":
            f = Factor("power", complex(int(rng.integers(2, 4))))
        elif kind == "contraction":
            f = Factor("contraction", complex(rng.uniform(0.3, 0.7)))
        elif kind == "blaschke":
            rad = 0.8 * math.sqrt(rng.random())
            ang = 2 * math.pi * rng.random()
            f = Factor("blaschke", rad * np.exp(1j * ang))
        else:
            f = Factor("identity")
        factors.append(f)
    return SchwarzFunction(tuple(factors), seed)


@dataclass(frozen=True)
class LargeFunctionSpec:
    """Constructive description of an analytic F omitting two values.

    F(z) = a + (b - a) Q_alpha(phi(z)) for a covering parameter alpha and a
    Schwarz function phi.  With phi inner the image is exactly the plane
    minus {a, b}.
    """

    a: complex
    b: complex
    alpha: CoveringParameter
    phi: SchwarzFunction
    series: TruncatedSeries = field(repr=False)

    def __post_init__(self):
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
        if c == 0:
            raise DomainError("scale factor must be nonzero")
        return LargeFunctionSpec(self.a * c, self.b * c, self.alpha,
                                 self.phi, self.series.scale(c))

    def text(self) -> str:
        return "a=%s b=%s alpha=%s order=%d phi=[%s]" % (
            _fmt(self.a), _fmt(self.b), _fmt(self.alpha.alpha),
            self.order, self.phi.text(),
        )


def make_large_function(a, b, alpha, phi: SchwarzFunction,
                        order: int) -> LargeFunctionSpec:
    """Assemble the spec and its truncated series: Q's coefficients pulled
    back through phi's factors (``SchwarzFunction.pull_back``), so only a
    Blaschke factor costs a series composition, then a + (b - a) Q(phi).
    As phi = O(z^v), v = ``phi.valuation``, Q is built only to degree
    order // v (at least 1, which ``q_series`` needs); when v > order only
    Q(0) reaches F."""
    a, b = complex(a), complex(b)
    if not isinstance(alpha, CoveringParameter):
        alpha = CoveringParameter(float(alpha))
    q = q_series(alpha, max(1, order // phi.valuation))
    coeffs = phi.pull_back(q.coeffs, order) * (b - a)
    coeffs[0] += a
    return LargeFunctionSpec(a, b, alpha, phi, TruncatedSeries(coeffs))


def random_large_function(
    seed: int, order: int = 64, inner_only: bool | None = None
) -> LargeFunctionSpec:
    """Draw a spec with well-separated omitted points.

    alpha is kept in [0.8, pi] so circle-sampled evaluation of the cover
    stays cheap; the artifact itself accepts any alpha > 0.
    """
    rng = np.random.default_rng(seed)
    if inner_only is None:
        inner_only = bool(rng.random() < 0.5)
    while True:
        a = complex(*rng.uniform(-1.5, 1.5, 2))
        b = complex(*rng.uniform(-1.5, 1.5, 2))
        if abs(a - b) >= 0.3:
            break
    alpha = rng.uniform(0.8, math.pi)
    phi = random_schwarz(int(rng.integers(2**32)), int(rng.integers(1, 5)),
                         inner_only=inner_only)
    return make_large_function(a, b, alpha, phi, order)


def random_polynomial(seed: int, degree: int) -> TruncatedSeries:
    """Polynomial with coefficients uniform in the unit disk;
    deterministic."""
    if degree > 16:
        raise DomainError("degree is capped at 16")
    rng = np.random.default_rng(seed)
    rad = np.sqrt(rng.random(degree + 1))
    ang = 2 * np.pi * rng.random(degree + 1)
    return TruncatedSeries(rad * np.exp(1j * ang), "random polynomial")


def random_mobius_bounded(seed: int, order: int = 64) -> TruncatedSeries:
    """Series of (c + u z) / (1 + conj(c) u z) with |u| = 1: modulus < 1.

    The label ``mobius(c=..., u=...)`` records both parameters.
    """
    rng = np.random.default_rng(seed)
    rad = 0.9 * math.sqrt(rng.random())
    c = rad * np.exp(2j * np.pi * rng.random())
    u = np.exp(2j * np.pi * rng.random())
    # (c + u z) sum_n h_n z^n with h_n = (-conj(c) u)^n.
    h = np.cumprod(np.concatenate(([1.0], np.full(order, -np.conj(c) * u))))
    coeffs = c * h
    coeffs[1:] += u * h[:-1]
    return TruncatedSeries(coeffs, "mobius(c=%s, u=%s)" % (_fmt(c), _fmt(u)))
