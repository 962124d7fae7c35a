import pytest

from orbitforge import action as A
from orbitforge.constructions import WreathSpec, build_wreath
from orbitforge.errors import SchemaError
from orbitforge.field import make_field
from orbitforge.specfile import instance_from_spec, instance_to_spec


def test_semilinear_round_trip():
    doc = {"action": {"kind": "semilinear"}, "field": {"p": 2, "k": 1, "n": 4},
           "generators": [{"twist": 1, "scalar": 0}, {"twist": 0, "scalar": 3}]}
    inst = instance_from_spec(doc)
    assert inst.generators == ((1, 0), (0, 3))
    assert instance_to_spec(inst) == doc


def test_matrix_round_trip():
    doc = {"action": {"kind": "matrix", "dim": 2}, "field": {"p": 7, "k": 1, "n": 1},
           "generators": [[0, 6, 1, 0]]}
    inst = instance_from_spec(doc)
    assert inst.generators == ((0, 6, 1, 0),)
    assert instance_to_spec(inst) == doc


def test_wreath_round_trip():
    doc = {"action": {"kind": "wreath", "m": 3, "top_gens": [[2, 3, 1]]},
           "field": {"p": 11, "k": 1, "n": 1},
           "generators": [{"twist": 0, "scalar": 6}]}
    inst = instance_from_spec(doc)
    assert inst.point_count == 11 ** 3
    assert instance_to_spec(inst) == doc


def test_schema_errors():
    bad = [
        {},
        {"action": {"kind": "nope"}, "field": {"p": 2}, "generators": [{}]},
        {"action": {"kind": "semilinear"}, "field": {"p": 4}, "generators": [{"twist": 0, "scalar": 0}]},
        {"action": {"kind": "semilinear"}, "field": {"p": 2, "n": 2}, "generators": []},
        {"action": {"kind": "semilinear"}, "field": {"p": 2, "n": 2},
         "generators": [{"twist": 9, "scalar": 0}]},
        {"action": {"kind": "matrix"}, "field": {"p": 7}, "generators": [[1, 0, 0, 1]]},
        {"action": {"kind": "matrix", "dim": 2}, "field": {"p": 7}, "generators": [[1, 0, 0]]},
        {"action": {"kind": "matrix", "dim": 2}, "field": {"p": 7}, "generators": [[0, 0, 0, 0]]},
        {"action": {"kind": "matrix", "dim": 2}, "field": {"p": 0}, "generators": [[1, 0, 0, 1]]},
        {"action": {"kind": "matrix", "dim": 2}, "field": {"p": 4}, "generators": [[1, 0, 0, 1]]},
        {"action": {"kind": "wreath", "m": 3}, "field": {"p": 3, "n": 1},
         "generators": [{"twist": 0, "scalar": 0}]},
        {"action": {"kind": "wreath", "m": 3, "top_gens": [[1, 2, 3]]},  # intransitive
         "field": {"p": 3, "n": 1}, "generators": [{"twist": 0, "scalar": 0}]},
        {"action": {"kind": "wreath", "m": 3, "top_gens": [[2, 1]]},
         "field": {"p": 3, "n": 1}, "generators": [{"twist": 0, "scalar": 0}]},
    ]
    for doc in bad:
        with pytest.raises(SchemaError):
            instance_from_spec(doc)


def test_wreath_spec_preserves_meta():
    ctx = make_field(3, 1, 1)
    inst = build_wreath(WreathSpec(ctx, ((0, 1),), 2, ((1, 0),)))
    doc = instance_to_spec(inst)
    again = instance_from_spec(doc)
    assert A.enumerate_orbits(again).orbit_lengths == A.enumerate_orbits(inst).orbit_lengths
