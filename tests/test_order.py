"""Group orders without listing the group: the closed form for semilinear
groups and the stabilizer chain for matrix and wreath groups, checked
against the element closure and against sympy's Schreier-Sims."""

import pytest

from orbitforge import action as A
from orbitforge import semilinear as sl
from orbitforge.errors import ElementCapExceeded
from orbitforge.field import make_field
from orbitforge.permutation import PermGroup

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SEMILINEAR_FIELDS = [(2, 1, 1), (2, 1, 4), (2, 2, 2), (3, 1, 2), (2, 1, 6), (3, 2, 2),
                     (5, 1, 2), (2, 3, 2), (7, 1, 2)]
MATRIX_SHAPES = [(2, 1), (2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (2, 4)]
WREATH_SHAPES = [((2, 1, 1), 3), ((2, 1, 2), 2), ((2, 1, 2), 3), ((3, 1, 1), 3),
                 ((5, 1, 1), 2), ((2, 1, 3), 2)]


def semilinear_maps(ctx):
    return st.tuples(st.integers(0, ctx.n - 1), st.integers(0, max(ctx.order, 1) - 1))


@st.composite
def small_instances(draw):
    kind = draw(st.sampled_from(["semilinear", "matrix", "wreath"]))
    count = draw(st.integers(0, 3))
    if kind == "semilinear":
        ctx = make_field(*draw(st.sampled_from(SEMILINEAR_FIELDS)))
        gens = draw(st.lists(semilinear_maps(ctx), min_size=count, max_size=count))
        return A.ActionInstance(A.SemilinearAction(ctx), gens)
    if kind == "matrix":
        p, dim = draw(st.sampled_from(MATRIX_SHAPES))
        entries = st.tuples(*[st.integers(0, p - 1)] * (dim * dim))
        mats = entries.filter(lambda g: A.mat_det(g, dim, p) != 0)
        gens = draw(st.lists(mats, min_size=count, max_size=count))
        return A.ActionInstance(A.MatrixAction(p, dim), gens)
    field, m = draw(st.sampled_from(WREATH_SHAPES))
    ctx = make_field(*field)
    elements = st.tuples(st.tuples(*[semilinear_maps(ctx)] * m),
                         st.permutations(range(m)).map(tuple))
    gens = draw(st.lists(elements, min_size=count, max_size=count))
    return A.ActionInstance(A.WreathAction(ctx, m), gens)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(small_instances())
def test_order_matches_closure_and_sympy(inst):
    combinatorics = pytest.importorskip("sympy.combinatorics")

    real = A.matrix_realization(inst)
    try:
        expected = len(A.closure(inst.backend, inst.generators, cap=20000))
    except ElementCapExceeded:
        hypothesis.assume(False)
    assert inst.group_order == expected
    assert real.group_order == expected
    if inst.point_count <= 400:
        perms = [combinatorics.Permutation(inst.backend.perm_array(g).tolist())
                 for g in inst.generators]
        if perms:
            assert combinatorics.PermutationGroup(perms).order() == expected


def test_singer_cycle_above_element_cap(monkeypatch):
    # order 2^20 - 1 is above the default element cap of 10^6, and nothing lists it
    def listing(*args, **kwargs):
        raise AssertionError("the group was listed")
    monkeypatch.setattr(A, "closure", listing)
    monkeypatch.setattr(sl, "subgroup_closure", listing)
    inst = A.ActionInstance(A.SemilinearAction(make_field(2, 1, 20)), [(0, 1)])
    report = A.enumerate_orbits(inst)
    assert report.group_order == 2 ** 20 - 1 == 1048575
    assert report.orbit_lengths == (1, 1048575)


def general_linear_generators(p, dim, root):
    """Elementary transvections and diag(root, 1, ..., 1), root primitive mod p."""
    def unit(i, j, value):
        m = [int(r == c) for r in range(dim) for c in range(dim)]
        m[i * dim + j] = value
        return tuple(m)
    gens = [unit(i, j, 1) for i in range(dim) for j in range(dim) if i != j]
    return gens + [unit(0, 0, root)]


def test_chain_cap_parity_gl35(monkeypatch):
    gens = general_linear_generators(5, 3, 2)
    with pytest.raises(ElementCapExceeded):
        A.ActionInstance(A.MatrixAction(5, 3), gens).group_order
    monkeypatch.setenv("ORBITFORGE_ELEMENT_CAP", "2000000")
    assert A.ActionInstance(A.MatrixAction(5, 3), gens).group_order == 1488000


def test_chain_order_gl37(monkeypatch):
    gens = general_linear_generators(7, 3, 3)
    with pytest.raises(ElementCapExceeded):
        A.chain_order(A.MatrixAction(7, 3), gens)
    monkeypatch.setenv("ORBITFORGE_ELEMENT_CAP", str(10 ** 8))
    order = (7 ** 3 - 1) * (7 ** 3 - 7) * (7 ** 3 - 49)
    assert A.chain_order(A.MatrixAction(7, 3), gens) == order == 33784128


def test_chain_cap_is_exact(monkeypatch):
    # closure and the chain raise at the same cap: |G| = 48 for GL(2,3)
    gens = general_linear_generators(3, 2, 2)
    backend = A.MatrixAction(3, 2)
    for cap, raises in ((47, True), (48, False)):
        monkeypatch.setenv("ORBITFORGE_ELEMENT_CAP", str(cap))
        for order in (lambda: A.chain_order(backend, gens),
                      lambda: len(A.closure(backend, gens))):
            if raises:
                with pytest.raises(ElementCapExceeded):
                    order()
            else:
                assert order() == 48


def test_orbits_never_list_the_group(monkeypatch):
    from orbitforge.constructions import WreathSpec, build_wreath

    def instances():
        ctx = make_field(2, 1, 2)
        wreath = A.ActionInstance(A.WreathAction(ctx, 3),
                                  [(((0, 1), (0, 0), (0, 0)), (1, 2, 0)),
                                   (((1, 0), (0, 0), (0, 0)), (0, 1, 2))])
        return [A.ActionInstance(A.SemilinearAction(make_field(2, 1, 6)), [(1, 0), (0, 9)]),
                A.ActionInstance(A.MatrixAction(3, 2), general_linear_generators(3, 2, 2)),
                wreath, A.matrix_realization(wreath),
                build_wreath(WreathSpec(make_field(3, 1, 2), ((0, 2),), 3, ((1, 2, 0),)))]

    expected = [len(A.closure(inst.backend, inst.generators)) for inst in instances()]
    assert expected == [42, 48, 6 ** 3 * 3, 6 ** 3 * 3, 4 ** 3 * 3]

    closure = A.closure

    def refuse(backend, *args, **kwargs):
        if isinstance(backend, PermGroup):  # build_wreath lists the top group for |S|
            return closure(backend, *args, **kwargs)
        raise AssertionError("the group order must not list the group")
    monkeypatch.setattr(A, "closure", refuse)
    monkeypatch.setattr(sl, "subgroup_closure", refuse)
    for inst, order in zip(instances(), expected):
        report = A.enumerate_orbits(inst)
        assert report.group_order == order
        assert sum(report.orbit_lengths) == inst.point_count
