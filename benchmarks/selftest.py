#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 benchmarks/selftest.py

1. Tracer coverage: installing the tracer rebinds every alias, and an
   alias it cannot rebind makes installation fail.
2. Traced and untraced ``report --all`` print the same document and the
   same CSV rows.
3. Two traced runs of each workload at one seed give identical work
   counts (every per-layer metric whose unit is a count or bytes).

Exit status 0 when every test passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile

import tracer
from run import HERE, ROOT, SRC, WORKLOADS, _env

SEED = 7


def test_tracer_coverage() -> list[str]:
    sys.path.insert(0, str(SRC))
    import bohrlab.generators
    import bohrlab.sweeps
    problems = []
    original = bohrlab.sweeps.j_eval
    bohrlab.sweeps._bench_planted = (original,)  # an alias install misses
    try:
        tracer.Tracer().install()
        problems.append("an alias in a module-level tuple went unnoticed")
    except RuntimeError:
        pass
    finally:
        del bohrlab.sweeps._bench_planted
    if bohrlab.sweeps.j_eval is not original:
        problems.append("a failed install left patches behind")
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapper = bohrlab.sweeps.j_eval
        if wrapper is original or bohrlab.generators.j_eval is not wrapper:
            problems.append("j_eval aliases were not rebound together")
        bohrlab.sweeps.run_suite("max-modulus", SEED, 2)
        if tr.counters["modular.j_eval.points.lt0.5"] == 0:
            problems.append("a suite run recorded no J points")
    finally:
        tr.uninstall()
    if bohrlab.sweeps.j_eval is not original:
        problems.append("uninstall did not restore j_eval")
    return problems


def _report(cmd_head: list[str], csv_path: str):
    p = subprocess.run(cmd_head + ["report", "--all", "--seed", str(SEED),
                                   "--csv", csv_path],
                       capture_output=True, text=True, env=_env(), cwd=ROOT)
    with open(csv_path, encoding="utf-8") as fh:
        return p.returncode, p.stdout, fh.read()


def test_traced_rows_match() -> list[str]:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        plain = _report([sys.executable, "-m", "bohrlab.cli"],
                        tmp + "/plain.csv")
        traced = _report([sys.executable, str(HERE / "tracer.py")],
                         tmp + "/traced.csv")
    names = ("exit code", "report document", "CSV rows")
    return ["traced %s differs" % n for n, a, b in zip(names, plain, traced)
            if a != b]


def _traced_counts(workload: str) -> dict:
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                        workload, "--seed", str(SEED), "--seconds", "1",
                        "--trace", "1"],
                       capture_output=True, text=True, cwd=ROOT)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError("traced %s run was not correct" % workload)
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes")}


def test_counts_repeat() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        first, second = _traced_counts(workload), _traced_counts(workload)
        problems += ["%s %s: %s then %s" % (workload, k, first[k], second[k])
                     for k in first if first[k] != second[k]]
        j_points = sum(v for k, v in first.items()
                       if k.startswith("modular.j_eval.points."))
        print("%s: J points %d, counts %s" % (
            workload, j_points,
            "repeat" if first == second else "DIFFER"))
    return problems


def main() -> int:
    failed = False
    for test in (test_tracer_coverage, test_traced_rows_match,
                 test_counts_repeat):
        problems = test()
        failed |= bool(problems)
        print("%s %s" % ("FAIL" if problems else "ok  ", test.__name__))
        for p in problems:
            print("     " + p)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
