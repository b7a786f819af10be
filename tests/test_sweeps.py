import numpy as np
import pytest

import bohrlab.bohr
import bohrlab.harmonic
import bohrlab.modular
import bohrlab.sweeps
from bohrlab.bohr import (BASE_SLACK, bohr_operator, cauchy_tail_bound,
                          littlewood_check, main_theorem_check)
from bohrlab.errors import DomainError
from bohrlab.generators import TAIL_RHO, random_schwarz
from bohrlab.geometry import boundary_distance
from bohrlab.harmonic import build_pair, harmonic_bohr_check
from bohrlab.series import TruncatedSeries
from bohrlab.sweeps import (ORDER, SUITE_NAMES, SUITES, TAIL_BUDGET,
                            _spec_and_distance, harmonic_trial, run_harmonic,
                            run_suite, run_theorem4, run_univalence,
                            theorem4_spec)

#: Rounding allowance of an lhs, relative: 64 units in the last place, the
#: rounding bound of a majorant sum of up to 65 nonnegative terms (Higham,
#: ch. 3).  Rebuilt at another order, the seed-7, 8 and 11 spec rows move
#: by at most 5.4e-16 of their lhs beyond the tail.
ROUNDING = 64 * 2.0 ** -53


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


@pytest.mark.parametrize("seed", [7, 8])
def test_every_verdict_is_read_from_its_row(seed):
    for name in SUITE_NAMES:
        for row in run_suite(name, seed).rows:
            assert row["pass"] == (row["lhs"] <= row["rhs"] + row["slack"]), (
                name, row)


def test_forced_failing_row_fails_the_suite():
    res = run_suite("classical-bohr", 7, 2)
    assert res.passed
    res.rows[1]["pass"] = False
    assert (res.failed, res.passed) == (1, False)


@pytest.mark.parametrize("seed", [-1, 7.0, None])
def test_every_suite_refuses_a_seed_outside_the_stream(seed):
    """Also the suites that draw nothing from their seed."""
    for name in SUITE_NAMES:
        with pytest.raises(DomainError, match="seed must be an integer"):
            run_suite(name, seed)


def test_unknown_suite():
    with pytest.raises(DomainError):
        run_suite("frobnicate")


def test_rows_compare_with_the_boundary_distance_itself():
    """No distance error is added to a right side or a slack."""
    rows = [row for row in run_theorem4(7, 20).rows
            if row["check"] == "theorem-main"]
    assert len(rows) == 20
    for row in rows:
        spec = theorem4_spec(row["seed"], row["trial"])
        assert row["rhs"] == boundary_distance(spec), row["trial"]
    rows = [row for row in run_harmonic(7, 20).rows
            if row["check"] == "harmonic-bohr"]
    assert len(rows) == 20
    assert all(row["slack"] == BASE_SLACK for row in rows)


def test_univalence_certificate_needs_enough_nodes():
    # At 64 nodes Lip * pi / 64 (about 0.2) exceeds min Re zJ'/J (0.019).
    res = run_suite("univalence", 7, 64)
    assert not res.passed
    below = res.rows[0]
    assert below["check"] == "univalence-below-radius"
    assert not below["pass"] and below["lhs"] > 0
    assert res.failures == [below]
    assert res.summary["starlike_margin"] == -below["lhs"]


def test_seed7_failure_records_rebuild_from_seed_and_trial():
    """Each failing row carries its trial's recipe: rebuilt from ``seed``
    and ``trial`` alone, it gives the same spec, mu and row."""
    res = run_theorem4(7)
    assert [rec["trial"] for rec in res.failures] == [2, 22, 50, 66, 67, 75]
    for rec in res.failures:
        spec = theorem4_spec(rec["seed"], rec["trial"])
        assert spec.text() == rec["spec"]
        row = main_theorem_check(spec, boundary_distance(spec)).row()
        assert (row["lhs"], row["rhs"]) == (rec["lhs"], rec["rhs"])
    res = run_harmonic(7)
    assert [rec["trial"] for rec in res.failures] == [25, 35, 46]
    for rec in res.failures:
        assert rec["check"] == "harmonic-bohr"
        spec, mu = harmonic_trial(rec["seed"], rec["trial"])
        assert (spec.text(), mu.label) == (rec["spec"], rec["mu"])
        assert [complex(c) for c in mu.coeffs] == rec["mu_coeffs"]
        row = harmonic_bohr_check(build_pair(spec, mu),
                                  boundary_distance(spec)).row()
        assert (row["lhs"], row["rhs"]) == (rec["lhs"], rec["rhs"])
    # The two rows of a trial share one recipe.
    assert res.rows[0]["mu_coeffs"] is res.rows[1]["mu_coeffs"]


@pytest.mark.parametrize("seed,theorem4,harmonic", [
    (8, [24, 63, 76, 89], [0, 1, 29, 30]),
    (11, [66, 80, 83], [46]),
])
def test_failing_trials_at_seeds_8_and_11(seed, theorem4, harmonic):
    """The failing trials that ROADMAP records beside seed 7's reference.
    They are the verdicts of today's sampled boundary distance, so they
    include its false failures (the first FOUND line of CHANGES.md);
    ROADMAP item 3, the certified distance, re-pins them."""
    for name, want in (("theorem4", theorem4), ("harmonic", harmonic)):
        trials = sorted({rec["trial"]
                         for rec in run_suite(name, seed).failures})
        assert trials == want, name


def test_univalence_evaluates_only_the_collision_pair(monkeypatch):
    points = []
    j_eval = bohrlab.modular.j_eval

    def counting(w):
        points.append(np.size(w))
        return j_eval(w)

    monkeypatch.setattr(bohrlab.modular, "j_eval", counting)
    res = run_univalence(7)
    assert res.passed
    assert points == [1, 1]


def _spec_rows(monkeypatch, order, seed):
    """The theorem-main, von-neumann and harmonic-bohr rows of ``seed``
    with the specs built at ``order``, each with the Cauchy tail it adds to
    its lhs as ``tail``: one ``cauchy_tail_bound`` per row, times
    1 + M(mu)(TAIL_RHO) on a harmonic row, which adds g's tail beside h's."""
    tails = []

    def recording(m_rho, n):
        tails.append(cauchy_tail_bound(m_rho, n))
        return tails[-1]

    monkeypatch.setattr(bohrlab.bohr, "cauchy_tail_bound", recording)
    monkeypatch.setattr(bohrlab.harmonic, "cauchy_tail_bound", recording)
    monkeypatch.setattr(bohrlab.sweeps, "ORDER", order)
    _spec_and_distance.cache_clear()     # its key is the trial seed alone
    try:
        rows = [row for name in ("theorem4", "von-neumann", "harmonic")
                for row in run_suite(name, seed).rows
                if row["check"] != "majorant-domination"]
    finally:
        _spec_and_distance.cache_clear()
        monkeypatch.undo()
    assert len(tails) == len(rows) == 200
    for row, tail in zip(rows, tails):
        assert f"order={order} " in row["spec"]
        if row["check"] == "harmonic-bohr":
            mu = TruncatedSeries(row["mu_coeffs"])
            tail *= 1.0 + bohr_operator(mu, TAIL_RHO)
        row["tail"] = tail
    return rows


@pytest.mark.parametrize("seed", [7, 8, 11])
def test_spec_rows_keep_their_tails_within_the_budget(monkeypatch, seed):
    """At ORDER each tail a spec row adds is within TAIL_BUDGET, and against
    the same row built at order 64 the lhs moves up by at most that tail
    and down by none, each up to ROUNDING."""
    rows64 = _spec_rows(monkeypatch, 64, seed)
    for row, row64 in zip(_spec_rows(monkeypatch, ORDER, seed), rows64):
        assert (row["check"], row["trial"]) == (row64["check"],
                                                 row64["trial"])
        assert row["tail"] <= TAIL_BUDGET, row
        eps = ROUNDING * row64["lhs"]
        assert row64["lhs"] - eps <= row["lhs"], row
        assert row["lhs"] <= row64["lhs"] + row["tail"] + eps, row


def test_spec_order_is_the_smallest_multiple_of_8_in_the_budget(monkeypatch):
    """Eight degrees fewer, a spec row's tail breaks TAIL_BUDGET at seed 7,
    8 or 11 (von-neumann's reach 3.6e-15 at order 24)."""
    assert ORDER % 8 == 0
    tails = [row["tail"] for seed in (7, 8, 11)
             for row in _spec_rows(monkeypatch, ORDER - 8, seed)]
    assert max(tails) > TAIL_BUDGET


def test_littlewood_compares_degrees_1_to_40_whatever_the_spec_order():
    """The seed-7 littlewood rows are bit-identical to
    ``littlewood_check(phi, 64, 40)``, so ORDER cannot cut their degrees."""
    res = run_suite("littlewood", 7)
    assert res.summary["kmax"] == 40
    for row in res.rows:
        phi = random_schwarz(row["seed"], 1 + row["trial"] % 4)
        assert phi.text() == row["phi"]
        want = littlewood_check(phi, 64, 40).row()
        assert {key: row[key] for key in want} == want, row["trial"]
