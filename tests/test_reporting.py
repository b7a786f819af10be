"""JSON and CSV rendering: every real reads back to the same double."""

import csv
import json
import math

import numpy as np
import pytest

import bohrlab.cli
from bohrlab.cli import main
from bohrlab.reporting import render_json, write_csv


def test_render_json_reads_back_float_for_float():
    doc = {"tenth": 0.1, "one": 1.0, "neg_zero": -0.0,
           "z": complex(0.1, -0.0), "f64": np.float64(2.0) / 3.0,
           "i64": np.int64(-7), "flag": np.bool_(True),
           "extremes": (5e-324, 1.7976931348623157e308, -2.2250738585072014e-308)}
    back = json.loads(render_json(doc))
    for key in ("tenth", "one", "neg_zero", "f64"):
        assert type(back[key]) is float, key
        assert back[key].hex() == float(doc[key]).hex(), key
    assert [x.hex() for x in back["z"]] == [(0.1).hex(), (-0.0).hex()]
    assert [x.hex() for x in back["extremes"]] == \
        [x.hex() for x in doc["extremes"]]
    assert back["i64"] == -7 and type(back["i64"]) is int
    assert back["flag"] is True


def test_render_json_round_trips_random_doubles():
    rng = np.random.default_rng(0)
    values = list(rng.standard_normal(500)
                  * 10.0 ** rng.integers(-300, 300, 500))
    back = json.loads(render_json({"values": values}))["values"]
    assert [x.hex() for x in back] == [float(x).hex() for x in values]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   np.float64("nan"), complex(math.nan, 0.0),
                                   complex(0.0, -math.inf)],
                         ids=["nan", "inf", "-inf", "np.nan", "nan+0j",
                              "0-infj"])
def test_render_json_refuses_non_finite_values(value):
    with pytest.raises(ValueError):
        render_json({"summary": {"value": value}})


def test_render_json_refuses_an_unknown_object():
    with pytest.raises(TypeError):
        render_json({"value": object()})


def test_a_non_finite_value_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(bohrlab.cli, "j_eval",
                        lambda z: complex(math.nan, 0.0))
    assert main(["eval", "--re", "0.3"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


def test_write_csv_reads_back_float_for_float(tmp_path):
    rows = [{"check": "a", "lhs": 0.1, "rhs": -0.0, "slack": np.float64(1e-9),
             "pass": True, "trial": 3},
            {"check": "b", "lhs": 1.0, "rhs": 5e-324, "slack": 0.0,
             "pass": np.bool_(False)}]
    path = tmp_path / "rows.csv"
    assert write_csv(rows, str(path)) == 2
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    for row, got in zip(rows, back):
        assert got["check"] == row["check"]
        for key in ("lhs", "rhs", "slack"):
            assert float(got[key]).hex() == float(row[key]).hex()
        assert got["pass"] == ("true" if row["pass"] else "false")
    assert list(back[0]) == ["check", "lhs", "rhs", "slack", "pass"]
