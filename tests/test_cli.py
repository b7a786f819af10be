import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bohrlab.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_exact(capsys):
    code, out, _ = run(capsys, "coeffs", "--order", "4", "--exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == [1, 8, 44, 192, 718]
    assert doc["schema"] == 1


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


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "eval", "--re", "2.0")[0] == 2
    assert run(capsys, "verify", "algebra", "--trials", "-1")[0] == 2
    assert run(capsys, "report")[0] == 2
    assert run(capsys, "report", "--suite", "algebra",
               "--tolerance", "nope=1")[0] == 2


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


def test_eval_next_to_the_cusp_at_one():
    # J(0.9999999) = 1 - 16 exp(-pi^2 / 1e-7) + ..., which rounds to 1.
    proc = run_cli("eval", "--re", "0.9999999")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["value"] == [1.0, 0.0]
