"""Command-line front end.

JSON results go to stdout; diagnostics go to stderr.  Exit status: 0 when
every requested check passes, 1 when a check ran to completion and failed,
2 for unusable arguments.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import __version__, reporting, sweeps
from .bohr import bohr_radius_solve
from .errors import BohrlabError
from .modular import a_coeffs, j_eval, q_eval
from .reporting import eprint, render_json


def _cmd_coeffs(args) -> int:
    a = a_coeffs(args.order)
    print(render_json(reporting.document({
        "order": args.order, "exact": args.exact,
        "a": list(a) if args.exact else [float(v) for v in a]})))
    return 0


def _cmd_eval(args) -> int:
    z = complex(args.re, args.im)
    w = complex(j_eval(z) if args.fn == "j" else q_eval(args.alpha, z))
    doc = reporting.document({"fn": args.fn, "z": z, "value": w})
    if args.fn == "q":
        doc["alpha"] = args.alpha
    print(render_json(doc))
    return 0


def _cmd_bohr_radius(args) -> int:
    res = bohr_radius_solve(args.order)
    print(render_json(reporting.document({
        "radius": res.radius, "residual": res.residual,
        "iterations": res.iterations, "order": args.order})))
    return 0


def _run_suite(name: str, seed: int, trials: int | None = None,
               tolerance: float | None = None) -> sweeps.SuiteResult:
    """Run a suite, re-judge its rows at ``tolerance`` if one is given, and
    print its check count, failures and time to stderr."""
    t0 = time.perf_counter()
    result = sweeps.run_suite(name, seed, trials)
    if tolerance is not None:
        reporting.apply_tolerance_override(result, tolerance)
    eprint("suite %s: %d checks, %d failed, %.2fs" % (
        name, len(result.rows), result.failed, time.perf_counter() - t0))
    return result


def _cmd_verify(args) -> int:
    result = _run_suite(args.suite, args.seed, args.trials)
    print(render_json(reporting.suite_document(result, args.seed)))
    return 0 if result.passed else 1


def _parse_overrides(pairs) -> dict:
    out = {}
    for item in pairs or ():
        name, _, value = item.partition("=")
        if name not in sweeps.SUITE_NAMES or not value:
            raise BohrlabError(
                "tolerance override must be SUITE=VALUE with a known "
                "suite, got %r" % item)
        try:
            out[name] = float(value)
        except ValueError:
            raise BohrlabError("bad tolerance value in %r" % item)
        if not math.isfinite(out[name]):
            raise BohrlabError("tolerance must be finite, got %r" % item)
    return out


def _cmd_report(args) -> int:
    names = sweeps.SUITE_NAMES if args.all else tuple(args.suite or ())
    if not names:
        raise BohrlabError("report needs --all or at least one --suite")
    overrides = _parse_overrides(args.tolerance)
    results = [_run_suite(name, args.seed, tolerance=overrides.get(name))
               for name in names]
    if args.csv:
        rows = [row for res in results for row in res.rows]
        n = reporting.write_csv(rows, args.csv)
        eprint("wrote %d rows to %s" % (n, args.csv))
    doc = reporting.report_document(results, args.seed, overrides)
    print(render_json(doc))
    return 0 if doc["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohrlab",
        description="Numerical checks around the Bohr phenomenon for "
                    "functions omitting two values.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="series coefficients A_n")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--exact", action="store_true",
                   help="exact integers instead of doubles")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("eval", help="evaluate J or Q at a point")
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    p.add_argument("--fn", choices=("j", "q"), default="j")
    p.add_argument("--alpha", type=float, default=3.141592653589793,
                   help="covering parameter for --fn q")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bohr-radius", help="solve for the Bohr radius")
    p.add_argument("--order", type=int, default=200)
    p.set_defaults(func=_cmd_bohr_radius)

    p = sub.add_parser("verify", help="run one verification sweep")
    p.add_argument("suite", choices=sweeps.SUITE_NAMES)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="run sweeps and emit a report")
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument("--suite", action="append", choices=sweeps.SUITE_NAMES)
    p.add_argument("--csv", metavar="PATH",
                   help="also write one CSV row per executed check")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tolerance", action="append", metavar="SUITE=VALUE",
                   help="re-judge a suite's rows at the given absolute "
                        "tolerance (a negative value forces failure)")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:      # argparse exits 2 on bad usage
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (BohrlabError, ValueError, OverflowError) as exc:
        eprint("error: %s" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
