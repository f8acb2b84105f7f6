"""The frozen records of the numpy-free modules: Event, Boost, Geometry and
ModelConfig (spacetime), SchemaError and Scenario (scenario), Preset
(presets), ChainSpec and ChainOptimum (inequality).

They are namedtuples.  Each one that checks its fields rejects every
bad input with the same ValueError text through its constructor, _make
and _replace, and no record accepts attribute assignment.
"""

import math

import pytest

from bellsim.inequality import ChainSpec, chain_spec, quantum_chain_optimum
from bellsim.presets import PRESETS
from bellsim.scenario import SchemaError, scenario_from_doc
from bellsim.spacetime import Boost, Event, Geometry, ModelConfig

EVENTS = (Event(0.0, -1.0), Event(0.0, 1.0))
BOOSTS = (Boost(0.0), Boost(0.5))
KINDS = "('quantum', 'local', 'finite_speed', 'multisim', 'mixture')"
CHAIN_2 = chain_spec(2).terms  # ((0,0),+1) ((1,0),+1) ((1,1),+1) ((0,1),-1)

#: (record type, a valid field set, fields that break it, the exact message).
REJECTED = [
    (Event, {"t": 0.0, "x": 1.0}, {"t": math.nan}, "Event.t must be finite, got nan"),
    (Event, {"t": 0.0, "x": 1.0}, {"x": -math.inf}, "Event.x must be finite, got -inf"),
    (Event, {"t": 0.0, "x": 1.0, "y": 2.0}, {"y": math.inf}, "Event.y must be finite, got inf"),
    (Boost, {"beta": 0.5}, {"beta": 1.0}, "|beta| must be < 1, got 1.0"),
    (Boost, {"beta": 0.5}, {"beta": -1.5}, "|beta| must be < 1, got -1.5"),
    (Boost, {"beta": 0.5}, {"beta": math.nan}, "|beta| must be < 1, got nan"),
    (Geometry, {"events": EVENTS, "boosts": BOOSTS}, {"events": EVENTS[:1], "boosts": BOOSTS[:1]},
     "geometry needs at least two devices"),
    (Geometry, {"events": EVENTS, "boosts": BOOSTS}, {"boosts": BOOSTS[:1]},
     "2 events but 1 boosts; counts must match"),
    (ModelConfig, {"kind": "quantum"}, {"kind": "bogus"},
     f"unknown model kind 'bogus'; choose from {KINDS}"),
    (ModelConfig, {"kind": "finite_speed", "v": 2.0}, {"v": None}, "finite_speed needs v > 0, got None"),
    (ModelConfig, {"kind": "finite_speed", "v": 2.0}, {"v": 0.0}, "finite_speed needs v > 0, got 0.0"),
    (ModelConfig, {"kind": "finite_speed", "v": 2.0}, {"v": math.nan}, "finite_speed needs v > 0, got nan"),
    (ModelConfig, {"kind": "quantum"}, {"v": 2.0}, "model kind 'quantum' takes no v"),
    (ModelConfig, {"kind": "mixture", "p": 0.5}, {"p": None}, "mixture needs p in [0, 1], got None"),
    (ModelConfig, {"kind": "mixture", "p": 0.5}, {"p": 1.5}, "mixture needs p in [0, 1], got 1.5"),
    (ModelConfig, {"kind": "mixture", "p": 0.5}, {"p": math.nan}, "mixture needs p in [0, 1], got nan"),
    (ModelConfig, {"kind": "local"}, {"p": 0.5}, "model kind 'local' takes no p"),
    (ModelConfig, {"kind": "finite_speed", "v": 2.0}, {"p": 0.5}, "model kind 'finite_speed' takes no p"),
    (ChainSpec, {"n": 2, "terms": CHAIN_2}, {"n": 1}, "chain needs N >= 2, got 1"),
    (ChainSpec, {"n": 2, "terms": CHAIN_2}, {"terms": CHAIN_2[:3]}, "chain N=2 needs 4 terms"),
    (ChainSpec, {"n": 2, "terms": CHAIN_2}, {"terms": CHAIN_2[:3] + (((0, 1), 1),)},
     "chain needs exactly one negative term"),
    (ChainSpec, {"n": 2, "terms": CHAIN_2}, {"terms": ((((0, 0), 2),) + CHAIN_2[1:])},
     "term signs must be +1 or -1"),
    (ChainSpec, {"n": 2, "terms": CHAIN_2}, {"terms": CHAIN_2[:3] + (((2, 1), -1),)},
     "setting 2 out of range"),
    (ChainSpec, {"n": 2, "terms": CHAIN_2}, {"terms": CHAIN_2[:3] + (((1, 1), -1),)},
     "every setting must appear in exactly two terms"),
]


@pytest.mark.parametrize("cls, valid, bad, message", REJECTED)
def test_records_reject_bad_fields_on_every_path(cls, valid, bad, message):
    """The constructor, _make and _replace all run the same checks."""
    record = cls(**valid)
    fields = {**record._asdict(), **bad}
    for build in (
        lambda: cls(**fields),
        lambda: cls._make(fields[name] for name in cls._fields),
        lambda: record._replace(**bad),
    ):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
    assert cls._make(record) == record
    assert record._replace() == record


def test_geometry_stores_tuples():
    g = Geometry(list(EVENTS), iter(BOOSTS))
    assert g.events == EVENTS and g.boosts == BOOSTS and isinstance(g.events, tuple)
    assert g._replace(events=list(EVENTS)).events == EVENTS


def records():
    scenario = scenario_from_doc(PRESETS["fig2b"].doc)
    return [
        Event(0.0, 1.0),
        Boost(0.5),
        scenario.geometry,
        scenario.model,
        SchemaError("/trials", "must be an integer >= 1"),
        scenario,
        PRESETS["fig2b"],
        chain_spec(3),
        quantum_chain_optimum(3),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_refuse_attribute_assignment(record):
    assert isinstance(record, tuple)
    for name in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        assert not hasattr(record, "extra")


def test_scenario_caches_its_state():
    scenario = scenario_from_doc(PRESETS["fig2a"].doc)
    assert scenario.state is scenario.state
