"""Correctness checks for every benchmark operation.

Each check takes what the program printed (and its exit code) and returns
``None`` when the output is right or a one-line reason when it is not.
The oracles are independent of the code under test: mpmath theta
functions for J and Q, and an exact integer recurrence for the
coefficients A_n.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent

#: Relative tolerance for a J or Q value against the theta oracle.
EVAL_RTOL = 1e-9
#: Relative tolerance for float coefficients A_n against the exact ints.
COEFF_RTOL = 1e-9
#: Absolute tolerance for the solved Bohr radius against e^{-pi}.
RADIUS_ATOL = 1e-12
#: Tolerance of spec.series(z) against spec.eval(z), relative to |b - a|.
SPEC_RTOL = 1e-9


def _strict_json(text: str):
    """Parse JSON, rejecting NaN and infinities."""
    def bad(token):
        raise ValueError("non-finite number %s in output" % token)
    return json.loads(text, parse_constant=bad)


@lru_cache(maxsize=None)
def mp_lambda(re: float, im: float = 0.0) -> complex:
    """J(q) = (theta2/theta3)^4 at nome q, at 30 digits."""
    with mpmath.workdps(30):
        q = mpmath.mpc(re, im)
        return complex((mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q))
                       ** 4)


@lru_cache(maxsize=None)
def mp_q(alpha: float, re: float, im: float) -> complex:
    """Q_alpha(z) = J(exp(-alpha (1+z)/(1-z))) through the theta oracle."""
    with mpmath.workdps(30):
        z = mpmath.mpc(re, im)
        w = mpmath.exp(-mpmath.mpf(alpha) * (1 + z) / (1 - z))
        return complex((mpmath.jtheta(2, 0, w) / mpmath.jtheta(3, 0, w))
                       ** 4)


@lru_cache(maxsize=None)
def exact_a(order: int) -> tuple[int, ...]:
    """A_0..A_order with -J(-z) = 16 z sum A_n z^n, in exact integers.

    log of prod ((1+z^{2n})/(1+z^{2n-1}))^8 has k L_k =
    8 sum_{m|k} eps(m) (-1)^{k/m+1} m (eps = +1 for even m, -1 for odd),
    and e = exp(L) follows from n e_n = sum_k k L_k e_{n-k}.  J = 16 z e,
    so A_n = (-1)^n e_n.
    """
    kl = [0] * (order + 1)
    for m in range(1, order + 1):
        eps = 1 if m % 2 == 0 else -1
        for k in range(m, order + 1, m):
            kl[k] += 8 * eps * (1 if (k // m) % 2 == 1 else -1) * m
    e = [1] + [0] * order
    for n in range(1, order + 1):
        acc = sum(kl[k] * e[n - k] for k in range(1, n + 1))
        if acc % n:
            raise ArithmeticError("exact recurrence left the integers")
        e[n] = acc // n
    return tuple((-1) ** n * e[n] for n in range(order + 1))


def _close(value: complex, expect: complex, rtol: float) -> bool:
    return abs(value - expect) <= rtol * max(1.0, abs(expect))


# ---------------------------------------------------------------------------
# CLI outputs


def check_coeffs(args: list[str], rc: int, out: str) -> str | None:
    if rc != 0:
        return "exit %d" % rc
    doc = _strict_json(out)
    order = int(args[args.index("--order") + 1])
    got = doc["a"]
    if len(got) != order + 1:
        return "%d coefficients for order %d" % (len(got), order)
    want = exact_a(order)
    if "--exact" in args:
        return None if list(want) == got else "exact A_n differ"
    for n, (g, w) in enumerate(zip(got, want)):
        if abs(g - w) > COEFF_RTOL * w:
            return "A_%d = %r, exact %d" % (n, g, w)
    return None


def check_bohr_radius(rc: int, out: str) -> str | None:
    if rc != 0:
        return "exit %d" % rc
    doc = _strict_json(out)
    if abs(doc["radius"] - math.exp(-math.pi)) > RADIUS_ATOL:
        return "radius %r is not e^-pi" % doc["radius"]
    return None


def check_eval(args: list[str], rc: int, out: str,
               may_refuse: bool) -> str | None:
    """A value must match the oracle.  At a point flagged ``may_refuse``
    the program may instead exit 2 (unusable input) without a document."""
    if rc == 2 and may_refuse:
        return None if not out.strip() else "exit 2 with a document"
    if rc != 0:
        return "exit %d" % rc
    doc = _strict_json(out)
    value = complex(*doc["value"])
    re = float(args[args.index("--re") + 1])
    im = float(args[args.index("--im") + 1]) if "--im" in args else 0.0
    if doc["fn"] == "j":
        expect = mp_lambda(re, im)
    else:
        expect = mp_q(float(args[args.index("--alpha") + 1]), re, im)
    if not _close(value, expect, EVAL_RTOL):
        return "%s(%r) = %r, oracle %r" % (doc["fn"], complex(re, im),
                                          value, expect)
    return None


def check_verify(rc: int, out: str, checks_run: int) -> str | None:
    """Suites in the CLI mix are theorems or identities: they must pass."""
    if rc != 0:
        return "exit %d" % rc
    doc = _strict_json(out)
    if not doc["pass"] or doc["checks_failed"]:
        return "suite %s failed" % doc["suite"]
    if doc["checks_run"] != checks_run:
        return "suite %s ran %d checks, expected %d" % (
            doc["suite"], doc["checks_run"], checks_run)
    return None


@lru_cache(maxsize=1)
def report_reference() -> dict:
    return json.loads((HERE / "reference_seed7.json").read_text())


def report_summary(doc: dict) -> dict:
    """The parts of a report the reference pins: counts and failing trials."""
    return {
        "pass": doc["pass"],
        "suites": {
            s["suite"]: {
                "checks_run": s["checks_run"],
                "failed_trials": sorted(f["trial"] for f in s["failures"]
                                        if "trial" in f),
            }
            for s in doc["suites"]
        },
    }


def check_report(seed: int, rc: int, out: str) -> str | None:
    """Every number finite, exit code matching the verdict, fixed check
    counts; at the reference seed also the same verdicts trial by trial."""
    if rc not in (0, 1):
        return "exit %d" % rc
    doc = _strict_json(out)
    if rc != (0 if doc["pass"] else 1):
        return "exit %d for pass=%s" % (rc, doc["pass"])
    ref = report_reference()
    got = report_summary(doc)
    counts = {k: v["checks_run"] for k, v in got["suites"].items()}
    want = {k: v["checks_run"] for k, v in ref["suites"].items()}
    if counts != want:
        return "checks_run %r, expected %r" % (counts, want)
    if seed == ref["seed"]:
        if rc != ref["exit_code"] or got != {k: ref[k] for k in got}:
            return "report differs from the seed-%d reference" % seed
    return None


# ---------------------------------------------------------------------------
# In-process spec construction


def check_spec(spec, littlewood, majorant: float, r: float,
               probe) -> str | None:
    """F(0) must match the theta oracle, the truncated series must agree
    with the product-form evaluation near 0 (both rest on ``j_eval``, so
    the oracle is what catches an error in J itself), Littlewood
    domination must hold (a theorem for subordinates), and the majorant
    must equal its defining sum."""
    import numpy as np

    scale = abs(spec.b - spec.a)
    f0 = spec.a + (spec.b - spec.a) * mp_lambda(math.exp(-spec.alpha.alpha))
    if not abs(spec.series[0] - f0) <= SPEC_RTOL * scale:
        return "F(0) = %r, oracle %r" % (spec.series[0], f0)
    gap = float(np.abs(spec.series.eval(probe) - spec.eval(probe)).max())
    if not gap <= SPEC_RTOL * scale:
        return "series and product form differ by %.3g" % gap
    if not littlewood.passed:
        return "Littlewood domination failed (ratio %r)" % (
            littlewood.max_ratio,)
    c = spec.series.coeffs
    direct = float(np.dot(np.abs(c[1:]), r ** np.arange(1, c.size)))
    if not abs(majorant - direct) <= 1e-12 * max(1.0, direct):
        return "majorant %r, direct sum %r" % (majorant, direct)
    return None
