import gc
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bohrlab.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = SRC.parent / "benchmarks" / "reference_seed7.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_exact(capsys):
    code, out, _ = run(capsys, "coeffs", "--order", "4", "--exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == [1, 8, 44, 192, 718]
    assert doc["schema"] == 2


def test_coeffs_order_200_floats_are_the_exact_integers(capsys):
    code, out, _ = run(capsys, "coeffs", "--order", "200", "--exact")
    assert code == 0
    exact = json.loads(out)["a"]
    code, out, _ = run(capsys, "coeffs", "--order", "200")
    assert code == 0
    floats = json.loads(out)["a"]
    assert len(exact) == 201
    assert floats == [float(a) for a in exact]


def test_coeffs_order_1_is_refused_with_and_without_exact(capsys):
    for argv in (("coeffs", "--order", "1"),
                 ("coeffs", "--order", "1", "--exact")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "order must be >= 2" in err


def test_order_above_the_series_limit_is_refused_at_once(capsys):
    for argv in (("coeffs", "--order", "100000"),
                 ("bohr-radius", "--order", "100000")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert out == ""
        assert "above the limit 4097" in err


def test_coeffs_float(capsys):
    code, out, _ = run(capsys, "coeffs", "--order", "30")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["a"]) == 31
    assert doc["a"][:3] == [1.0, 8.0, 44.0]


def test_eval_j(capsys):
    code, out, _ = run(capsys, "eval", "--re", str(math.exp(-math.pi)))
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["value"][0] - 0.5) < 1e-12


def test_eval_q(capsys):
    code, out, _ = run(capsys, "eval", "--re", "0.0", "--fn", "q",
                       "--alpha", str(math.pi))
    doc = json.loads(out)
    assert code == 0
    assert abs(complex(*doc["value"])) > 0


def test_bohr_radius(capsys):
    code, out, _ = run(capsys, "bohr-radius")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["radius"] - math.exp(-math.pi)) < 1e-9


def test_verify_passing_suite(capsys):
    code, out, err = run(capsys, "verify", "algebra", "--trials", "5")
    doc = json.loads(out)
    assert code == 0
    assert doc["pass"] is True
    assert doc["checks_run"] == 15
    assert "suite algebra" in err          # diagnostics on stderr only


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "littlewood", "--trials", "5")
    _, out2, _ = run(capsys, "verify", "littlewood", "--trials", "5")
    assert out1 == out2


def test_report_csv_row_count(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "report", "--suite", "algebra",
                       "--csv", str(path))
    doc = json.loads(out)
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "check,lhs,rhs,slack,pass"
    assert len(lines) - 1 == doc["suites"][0]["checks_run"]


def test_report_impossible_tolerance_fails(capsys):
    code, out, _ = run(capsys, "report", "--suite", "algebra",
                       "--tolerance", "algebra=-10")
    doc = json.loads(out)
    assert code == 1
    assert doc["pass"] is False
    assert doc["tolerance_overrides"]["algebra"] == -10


@pytest.mark.parametrize("suite, tolerance, passed",
                         [("algebra", "-1", False), ("theorem4", "1", True)])
def test_report_tolerance_failures_are_the_failing_rows(capsys, suite,
                                                        tolerance, passed):
    code, out, _ = run(capsys, "report", "--suite", suite,
                       "--tolerance", "%s=%s" % (suite, tolerance))
    doc = json.loads(out)["suites"][0]
    assert code == (0 if passed else 1)
    assert doc["pass"] is passed
    assert (doc["checks_failed"] == 0) is passed
    assert len(doc["failures"]) == doc["checks_failed"]
    assert all("trial" in rec for rec in doc["failures"])


@pytest.mark.parametrize("suite", ["theorem4", "harmonic"])
def test_report_failures_do_not_depend_on_tolerance(capsys, suite):
    """At the suite's own slack, --tolerance re-judges to the same verdicts
    and prints the same failure records, recipes included."""
    docs = [json.loads(run(capsys, "report", "--suite", suite, *extra)[1])
            for extra in ((), ("--tolerance", suite + "=1e-9"))]
    failures = [doc["suites"][0]["failures"] for doc in docs]
    assert failures[0] == failures[1]
    assert failures[0] and all("spec" in rec for rec in failures[0])


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "eval", "--re", "2.0")[0] == 2
    assert run(capsys, "verify", "algebra", "--trials", "-1")[0] == 2
    assert run(capsys, "report")[0] == 2
    assert run(capsys, "report", "--suite", "algebra",
               "--tolerance", "nope=1")[0] == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_tolerance_exits_2_before_any_suite_runs(capsys, tmp_path,
                                                           value):
    path = tmp_path / "rows.csv"
    code, out, err = run(capsys, "report", "--suite", "algebra", "--suite",
                         "theorem4", "--tolerance", "algebra=" + value,
                         "--csv", str(path))
    assert code == 2
    assert out == ""
    assert "suite " not in err
    assert "tolerance must be finite" in err
    assert not path.exists()


def test_tolerance_for_a_suite_not_run_exits_2_before_any_suite_runs(
        capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, out, err = run(capsys, "report", "--suite", "density-distance",
                         "--tolerance", "algebra=-1", "--csv", str(path))
    assert code == 2
    assert out == ""
    assert err == ("error: tolerance override 'algebra=-1' names a suite "
                   "the report does not run\n")
    assert not path.exists()


@pytest.mark.parametrize("argv", [("verify", "littlewood"),
                                  ("verify", "density-distance"),
                                  ("report", "--all")],
                         ids=["verify-littlewood", "verify-density-distance",
                              "report-all"])
def test_negative_seed_exits_2_before_any_suite_runs(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: seed must be an integer >= 0, not -1\n"


def run_cli(*argv):
    """The CLI in a fresh interpreter, so warnings reach stderr as users
    see them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "bohrlab.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("x", ["-0.99", "-0.999", "nan"])
def test_eval_refuses_cusp_and_nan_plainly(x):
    proc = run_cli("eval", "--re", x)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Warning" not in proc.stderr
    reason = "not finite" if x == "nan" else "exceeds the double range"
    assert reason in proc.stderr


def test_eval_q_names_a_nome_rounded_to_modulus_one(capsys):
    code, out, err = run(capsys, "eval", "--fn", "q", "--alpha", "1e-320",
                         "--re", "0.5")
    assert code == 2 and out == ""
    assert "rounds to modulus 1" in err and "|z| < 1" not in err


def test_eval_q_rejects_a_non_finite_alpha_plainly():
    proc = run_cli("eval", "--fn", "q", "--alpha", "inf", "--re", "0.3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "alpha must be finite" in proc.stderr
    assert "Warning" not in proc.stderr


def test_eval_next_to_the_cusp_at_one():
    # J(0.9999999) = 1 - 16 exp(-pi^2 / 1e-7) + ..., which rounds to 1.
    proc = run_cli("eval", "--re", "0.9999999")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["value"] == [1.0, 0.0]


def test_entry_point_freezes_the_heap_once_it_has_answered():
    """Called as the process, with no ``argv``, main freezes the heap, so
    the interpreter's exit does not collect it."""
    code = ("import gc, sys; from bohrlab.cli import main\n"
            "sys.argv = ['bohrlab', 'eval', '--re', '0.5']\n"
            "before = gc.get_freeze_count(); rc = main()\n"
            "print(rc, before, gc.get_freeze_count() > 0)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0 True"


@pytest.mark.parametrize("argv, expected", [
    (("eval", "--re", "0.5"), 0),
    (("report", "--suite", "algebra", "--tolerance", "algebra=-1"), 1),
    (("frobnicate",), 2),
    (("eval", "--re", "2.0"), 2)],
    ids=["pass", "fail", "usage", "domain"])
def test_in_process_main_keeps_normal_gc(capsys, argv, expected):
    before = gc.get_freeze_count()
    assert run(capsys, *argv)[0] == expected
    assert gc.get_freeze_count() == before


def test_entry_point_output_is_the_in_process_output(capsys, tmp_path):
    """The frozen heap loses no byte: stdout and the CSV of a fresh
    ``python -m bohrlab.cli`` report are those of ``main`` in-process."""
    argv = ["report", "--all", "--seed", "7", "--csv"]
    code, out, _ = run(capsys, *argv, str(tmp_path / "in.csv"))
    proc = run_cli(*argv, str(tmp_path / "fresh.csv"))
    assert proc.returncode == code == 1
    assert proc.stdout == out
    assert ((tmp_path / "fresh.csv").read_bytes()
            == (tmp_path / "in.csv").read_bytes())


def test_runtime_imports_only_numpy():
    """Importing the CLI loads nothing beyond the standard library, numpy
    and bohrlab itself; modules the interpreter loads at start-up are not
    counted."""
    code = ("import sys; before = set(sys.modules); import bohrlab.cli; "
            "print(' '.join(sorted({m.partition('.')[0] for m in sys.modules"
            " if m not in before})))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"bohrlab", "numpy"} <= loaded
    assert loaded - set(sys.stdlib_module_names) <= {"bohrlab", "numpy"}


def test_report_loads_no_numpy_random():
    """A report draws from ``generators.Stream``, so neither
    ``numpy.random`` (nor the ``secrets`` and ``hashlib`` it pulls in) nor
    ``numpy.polynomial`` is imported; its records are tuples, so neither
    is ``dataclasses``; and with no ``--csv`` it writes no CSV, so neither
    is ``csv``."""
    code = ("import contextlib, io, sys; from bohrlab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = main(['report', '--all', '--seed', '7'])\n"
            "print(rc, *sorted(m for m in ('numpy.random', 'numpy.polynomial',"
            " 'secrets', 'hashlib', 'dataclasses', 'csv', '_csv')"
            " if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


def test_report_seed7_matches_reference(capsys):
    ref = json.loads(REFERENCE.read_text())
    code, out, _ = run(capsys, "report", "--all", "--seed", "7")
    doc = json.loads(out)
    assert code == ref["exit_code"] == 1
    assert doc["pass"] is ref["pass"]
    got = {s["suite"]: {"checks_run": s["checks_run"],
                        "failed_trials": sorted(f["trial"]
                                                for f in s["failures"]
                                                if "trial" in f)}
           for s in doc["suites"]}
    assert got == ref["suites"]
