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


SEMILINEAR_FIELDS = [(2, 1, 1), (2, 1, 4), (2, 2, 2), (3, 1, 2), (3, 1, 4), (5, 1, 2), (7, 1, 1)]
MATRIX_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 1), (7, 2)]  # (p, dim)
WREATH_SHAPES = [((2, 1, 2), 5), ((2, 1, 3), 3), ((3, 1, 1), 4), ((5, 1, 1), 3), ((7, 1, 1), 2)]


def _field_doc(draw, st, p, k, n):
    """{p, k, n} with k and n sometimes left to their defaults of 1."""
    doc = {"p": p}
    if k != 1 or draw(st.booleans()):
        doc["k"] = k
    if n != 1 or draw(st.booleans()):
        doc["n"] = n
    return doc


def test_spec_round_trip_property():
    # instance_to_spec inverts instance_from_spec up to normalization, and
    # the re-read instance has the same orbit report
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from orbitforge.permutation import PermGroup, is_transitive

    def semilinear_gens(draw, p, k, n):
        order = max(p ** (k * n) - 1, 1)
        gen = st.fixed_dictionaries({"twist": st.integers(0, n - 1), "scalar": st.integers(0, order - 1)})
        return draw(st.lists(gen, min_size=1, max_size=2))

    @st.composite
    def specs(draw):
        kind = draw(st.sampled_from(["semilinear", "matrix", "wreath"]))
        if kind == "semilinear":
            p, k, n = draw(st.sampled_from(SEMILINEAR_FIELDS))
            doc = {"action": {"kind": kind}, "field": _field_doc(draw, st, p, k, n),
                   "generators": semilinear_gens(draw, p, k, n)}
            norm = {**doc, "field": {"p": p, "k": k, "n": n}}
        elif kind == "matrix":
            p, dim = draw(st.sampled_from(MATRIX_SHAPES))
            mats = draw(st.lists(st.lists(st.integers(-p, 2 * p), min_size=dim * dim, max_size=dim * dim),
                                 min_size=1, max_size=2))
            hypothesis.assume(all(A.mat_det(tuple(v % p for v in g), dim, p) for g in mats))
            doc = {"action": {"kind": kind, "dim": dim}, "field": _field_doc(draw, st, p, 1, 1),
                   "generators": mats}
            norm = {**doc, "field": {"p": p, "k": 1, "n": 1},
                    "generators": [[v % p for v in g] for g in mats]}
        else:
            (p, k, n), m = draw(st.sampled_from(WREATH_SHAPES))
            perm = st.permutations(range(1, m + 1)).map(list)
            top = draw(st.lists(perm, min_size=1, max_size=2))
            hypothesis.assume(is_transitive(PermGroup(m, tuple(tuple(v - 1 for v in t) for t in top))))
            doc = {"action": {"kind": kind, "m": m, "top_gens": top},
                   "field": _field_doc(draw, st, p, k, n), "generators": semilinear_gens(draw, p, k, n)}
            norm = {**doc, "field": {"p": p, "k": k, "n": n}}
        return doc, norm

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(specs())
    def check(drawn):
        doc, norm = drawn
        inst = instance_from_spec(doc)
        assert instance_to_spec(inst) == norm
        again = instance_from_spec(instance_to_spec(inst))
        assert A.enumerate_orbits(again) == A.enumerate_orbits(inst)
    check()
