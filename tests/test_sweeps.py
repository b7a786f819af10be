import pytest

from bohrlab.errors import DomainError
from bohrlab.sweeps import SUITE_NAMES, SUITES, run_suite


def test_suite_names_keep_report_order():
    # The report and its CSV rows follow this order.
    assert SUITE_NAMES == (
        "littlewood", "theorem4", "von-neumann", "harmonic",
        "classical-bohr", "algebra", "max-modulus", "density-distance",
        "univalence")
    assert SUITE_NAMES == tuple(SUITES)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_verdict_follows_the_rows(name):
    res = run_suite(name, 7, 1)
    assert res.name == name
    assert res.trials == 1
    assert res.failed == sum(1 for row in res.rows if not row["pass"])
    assert res.passed == (res.failed == 0)
    with pytest.raises(DomainError):
        run_suite(name, 7, 0)


def test_forced_failing_row_fails_the_suite():
    res = run_suite("classical-bohr", 7, 2)
    assert res.passed
    res.rows[1]["pass"] = False
    assert (res.failed, res.passed) == (1, False)


def test_unknown_suite():
    with pytest.raises(DomainError):
        run_suite("frobnicate")
