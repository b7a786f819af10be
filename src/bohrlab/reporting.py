"""Serialization of sweep results: JSON documents and CSV row dumps.

A real is written as Python's float repr, the shortest text that reads
back to the same double; a complex is the pair [re, im].  NaN and
infinities raise ``ValueError``.
"""

from __future__ import annotations

import csv
import json
import sys

import numpy as np

from . import __version__
from .bohr import InequalityCheck

CSV_FIELDS = ("check", "lhs", "rhs", "slack", "pass")

SCHEMA = 2


def _plain(obj):
    """The JSON form of what ``json`` cannot write itself: a complex as
    [re, im], a numpy scalar as its Python value."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError("cannot write %r to a report" % (obj,))


def render_json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False, default=_plain)


def document(fields: dict) -> dict:
    """A CLI document: ``schema``, ``version``, then ``fields`` in order."""
    return {"schema": SCHEMA, "version": __version__, **fields}


def suite_document(result, seed: int) -> dict:
    return document({
        "suite": result.name, "seed": seed, "trials": result.trials,
        "pass": result.passed, "summary": result.summary,
        "failures": result.failures, "checks_run": len(result.rows),
        "checks_failed": result.failed})


def report_document(results, seed: int, overrides: dict | None = None) -> dict:
    doc = document({"seed": seed, "pass": all(r.passed for r in results),
                    "suites": [suite_document(r, seed) for r in results]})
    if overrides:
        doc["tolerance_overrides"] = dict(overrides)
    return doc


def write_csv(rows, path: str) -> int:
    """One line per executed check, each real as its float repr; returns
    the number of rows written."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for row in rows:
            reals = [repr(float(row[k])) for k in ("lhs", "rhs", "slack")]
            writer.writerow([row["check"], *reals,
                             "true" if row["pass"] else "false"])
    return len(rows)


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
