"""Serialization of sweep results: JSON documents and CSV row dumps.

Every real number is rendered with 17 significant digits so that reports
round-trip bit-exactly through text.
"""

from __future__ import annotations

import csv
import json
import re
import sys

from .bohr import InequalityCheck

CSV_FIELDS = ("check", "lhs", "rhs", "slack", "pass")

SCHEMA = 2

# Sentinel wrapping pre-formatted reals inside the JSON tree; stripped
# (with the surrounding quotes) after dumping so the numbers appear as
# literals with exactly 17 significant digits.
_MARK = ""
_MARK_RE = re.compile(r'"(?:\\u0001|\x01)([^"]*)"')


def _real(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value in report: %r" % x)
    return _MARK + "%.17g" % x


def _encode(obj):
    """Recursively convert to JSON-safe values."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _real(obj)
    if isinstance(obj, complex):
        return [_real(obj.real), _real(obj.imag)]
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):  # numpy scalar
        return _encode(obj.item())
    return obj


def render_json(obj) -> str:
    text = json.dumps(_encode(obj), indent=2, allow_nan=False)
    return _MARK_RE.sub(lambda m: m.group(1), text)


def suite_document(result, seed: int, version: str) -> dict:
    return {
        "schema": SCHEMA,
        "version": version,
        "suite": result.name,
        "seed": seed,
        "trials": result.trials,
        "pass": result.passed,
        "summary": result.summary,
        "failures": result.failures,
        "checks_run": len(result.rows),
        "checks_failed": result.failed,
    }


def report_document(results, seed: int, version: str,
                    overrides: dict | None = None) -> dict:
    doc = {
        "schema": SCHEMA,
        "version": version,
        "seed": seed,
        "pass": all(r.passed for r in results),
        "suites": [suite_document(r, seed, version) for r in results],
    }
    if overrides:
        doc["tolerance_overrides"] = dict(overrides)
    return doc


def write_csv(rows, path: str) -> int:
    """One line per executed check; returns the number of rows written."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, CSV_FIELDS, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        count = 0
        for row in rows:
            out = dict(row)
            for k in ("lhs", "rhs", "slack"):
                out[k] = "%.17g" % float(out[k])
            out["pass"] = "true" if out["pass"] else "false"
            writer.writerow(out)
            count += 1
    return count


def apply_tolerance_override(result, tol: float) -> None:
    """Re-judge every row of a suite by its check's own rule with ``tol``
    as the slack.  The suite's failure records are its failing rows, so
    they follow the new verdicts.

    Used by the report command to demonstrate that an impossible tolerance
    is reported as a failure rather than silently absorbed.
    """
    for row in result.rows:
        row.update(InequalityCheck(row["check"], row["lhs"], row["rhs"],
                                   tol).row())


def eprint(*args) -> None:
    print(*args, file=sys.stderr)
