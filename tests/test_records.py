"""The package's record types: immutable, compared by value, checked on
construction with the same exceptions and messages whatever their form."""

import inspect
import math

import numpy as np
import pytest

from bohrlab.bohr import BohrRadiusResult, InequalityCheck, LittlewoodReport
from bohrlab.errors import DomainError
from bohrlab.generators import (Factor, LargeFunctionSpec, SchwarzFunction,
                                identity_schwarz, make_large_function,
                                random_schwarz)
from bohrlab.harmonic import HarmonicPair, build_pair
from bohrlab.modular import (CollisionReport, CoveringParameter,
                             StarlikeCertificate)
from bohrlab.series import TruncatedSeries


def _spec():
    return make_large_function(0.0, 1.0, 1.5, identity_schwarz(), 4)


RECORDS = {
    "TruncatedSeries": lambda: TruncatedSeries([1.0, 2.0], "x"),
    "CoveringParameter": lambda: CoveringParameter(1.5),
    "Factor": lambda: Factor("blaschke", 0.3j),
    "SchwarzFunction": identity_schwarz,
    "LargeFunctionSpec": _spec,
    "InequalityCheck": lambda: InequalityCheck("x", 1.0, 2.0, 0.0),
    "LittlewoodReport": lambda: LittlewoodReport("littlewood", 0.5, 1.0,
                                                 1e-9),
    "HarmonicPair": lambda: build_pair(_spec(), TruncatedSeries([0.5])),
    "BohrRadiusResult": lambda: BohrRadiusResult(0.04, 0.0, 3),
    "StarlikeCertificate": lambda: StarlikeCertificate(1.0, 0.1, 0.0, 0.0),
    "CollisionReport": lambda: CollisionReport(-0.1j, 0.2j, 0.0),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in inspect.signature(type(record)).parameters:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_series_coefficients_are_read_only():
    series = TruncatedSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        series.coeffs[0] = 3.0
    assert series.label == ""
    assert (series[0], series[1], series[2], series[-1]) == (1, 2, 0, 0)


def test_factor_and_schwarz_compare_and_hash_by_value():
    assert Factor("identity").param == 0j
    same = [Factor("rotation", 0.5), Factor("rotation", complex(0.5, 2.0))]
    assert same[0] == same[1] and hash(same[0]) == hash(same[1])
    assert Factor("power", 2.7) == Factor("power", 2 + 0j)
    assert Factor("rotation", 0.5) != Factor("contraction", 0.5)
    assert len({Factor("power", 3), Factor("power", 3.2),
                Factor("identity")}) == 2
    phi, again = random_schwarz(11, 4), random_schwarz(11, 4)
    assert phi is not again and phi == again and hash(phi) == hash(again)
    assert phi != random_schwarz(12, 4)
    assert {phi: 1}[again] == 1


BAD_INPUTS = [
    (lambda: TruncatedSeries([]), ValueError,
     "coeffs must be a nonempty 1-d sequence"),
    (lambda: TruncatedSeries([[1.0]]), ValueError,
     "coeffs must be a nonempty 1-d sequence"),
    (lambda: TruncatedSeries([1.0, math.nan]), DomainError,
     "series coefficient moduli must be finite"),
    (lambda: TruncatedSeries([1.5e308 + 1.5e308j]), DomainError,
     "series coefficient moduli must be finite"),
    (lambda: CoveringParameter(math.inf), DomainError,
     "alpha must be finite, not inf"),
    (lambda: CoveringParameter(0.0), DomainError, "alpha must be positive"),
    (lambda: Factor("power", 1), DomainError,
     "power factor needs exponent >= 2"),
    (lambda: Factor("contraction", 1.5), DomainError,
     r"contraction needs 0 < s <= 1"),
    (lambda: Factor("blaschke", 1.0), DomainError,
     r"blaschke parameter needs \|c\| < 1"),
    (lambda: Factor("shear"), DomainError, "unknown factor kind 'shear'"),
    (lambda: SchwarzFunction(()), DomainError,
     "recipe needs at least one factor"),
    (lambda: LargeFunctionSpec(1e308, -1e308, CoveringParameter(1.0),
                               identity_schwarz(), _spec().series),
     DomainError, "an omitted point of F exceeds the double range"),
    (lambda: LargeFunctionSpec(0.5, 0.5, CoveringParameter(1.0),
                               identity_schwarz(), _spec().series),
     DomainError, "omitted points must be distinct"),
    (lambda: InequalityCheck("x", math.nan, 0.0, 0.0), DomainError,
     "x: a side is past the double range or NaN"),
    (lambda: InequalityCheck("x", 0.0, -math.inf, 0.0), DomainError,
     "x: a side is past the double range or NaN"),
    (lambda: HarmonicPair(_spec(), TruncatedSeries([1.0, 0.0]),
                          TruncatedSeries([0.0])), ValueError,
     "g must vanish at 0"),
]


@pytest.mark.parametrize("build, error, message", BAD_INPUTS)
def test_bad_input_raises_its_error(build, error, message):
    with pytest.raises(error, match=message) as info:
        build()
    assert type(info.value) is error


def test_records_build_from_keywords_with_their_defaults():
    assert TruncatedSeries(coeffs=np.ones(2)).label == ""
    assert Factor(kind="power", param=3.5).param == 3 + 0j
    spec = _spec()
    again = LargeFunctionSpec(a=spec.a, b=spec.b, alpha=spec.alpha,
                              phi=spec.phi, series=spec.series)
    assert again.text() == spec.text()
    assert InequalityCheck(name="x", lhs=1.0, rhs=1.0, slack=0.0).passed
