import random

import pytest

from orbitforge import action as A
from orbitforge import permutation as P
from orbitforge.errors import DegreeCapExceeded, EvenOrder, NoPartitionFound

from helpers import power_set_regular_orbit_by_scan, trivial_stabilizer_partition_by_scan

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def test_one_line_round_trip():
    p = P.perm_from_one_line([2, 3, 1])
    assert p == (1, 2, 0)
    assert P.perm_to_one_line(p) == [2, 3, 1]
    with pytest.raises(ValueError):
        P.perm_from_one_line([1, 1, 3])


def test_compose_convention():
    a = P.perm_from_one_line([2, 3, 1])
    b = P.perm_from_one_line([2, 1, 3])
    ab = P.compose_perm(a, b)
    for x in range(3):
        assert ab[x] == a[b[x]]
    assert P.compose_perm(a, P.inverse_perm(a)) == P.identity_perm(3)


def test_transitivity():
    assert P.is_transitive(P.cyclic_group(5))
    assert not P.is_transitive(P.PermGroup(3, (P.perm_from_one_line([2, 1, 3]),)))
    assert P.is_transitive(P.cyclic_wreath(3, 3))


def test_orders():
    assert P.cyclic_group(7).order == 7
    assert P.cyclic_wreath(3, 3).order == 81
    assert P.cyclic_wreath(3, 5).order == 3 ** 5 * 5
    assert P.cyclic_wreath(5, 3).order == 5 ** 3 * 3


def test_power_set_regular_orbit_cyclic():
    assert P.power_set_regular_orbit(P.cyclic_group(3)) == (1,)
    assert P.power_set_regular_orbit(P.cyclic_group(5)) == (1,)


def test_power_set_regular_orbit_s3_has_none():
    s3 = P.PermGroup(3, (P.perm_from_one_line([2, 1, 3]), P.perm_from_one_line([2, 3, 1])))
    assert s3.order == 6
    # exhaustive: each of the 8 subsets is stabilized by something nontrivial
    assert P.power_set_regular_orbit(s3) is None


def test_power_set_regular_orbit_wreath():
    w = P.cyclic_wreath(3, 3)
    witness = P.power_set_regular_orbit(w)
    assert witness is not None
    assert P.set_stabilizer_is_trivial(w, P.points_to_mask(witness))
    # minimality in binary encoding order
    for mask in range(P.points_to_mask(witness)):
        assert not P.set_stabilizer_is_trivial(w, mask)


def test_witness_soundness_recomputed():
    for group in [P.cyclic_group(7), P.cyclic_group(9), P.cyclic_wreath(3, 3)]:
        witness = P.power_set_regular_orbit(group)
        mask = P.points_to_mask(witness)
        stab = [g for g in group.elements if P.subset_image(g, mask) == mask]
        assert stab == [P.identity_perm(group.degree)]


def test_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        P.power_set_regular_orbit(P.cyclic_group(21))


def test_partition_examples():
    assert P.trivial_stabilizer_partition(P.cyclic_group(3)) == ((1,), (2, 3))
    a1, a2 = P.trivial_stabilizer_partition(P.cyclic_group(5))
    assert a1 == (1,) and a2 == (2, 3, 4, 5)
    w = P.cyclic_wreath(3, 3)
    a1, a2 = P.trivial_stabilizer_partition(w)
    assert set(a1) | set(a2) == set(range(1, 10))
    assert P.set_stabilizer_is_trivial(w, P.points_to_mask(a1))


def test_partition_even_order_rejected():
    s3 = P.PermGroup(3, (P.perm_from_one_line([2, 1, 3]), P.perm_from_one_line([2, 3, 1])))
    with pytest.raises(EvenOrder):
        P.trivial_stabilizer_partition(s3)


def test_permutation_matrix_moves_masks_like_subset_image():
    # column j of g's matrix is e_g(j), so GF(2)-vector codes move as subsets do
    rng = random.Random(3)
    for d in range(11):
        points = list(range(d))
        rng.shuffle(points)
        g = tuple(points)
        mat = tuple(int(g[col] == row) for row in range(d) for col in range(d))
        images = A.MatrixAction(2, d).perm_array(mat).tolist()
        assert images == [P.subset_image(g, mask) for mask in range(1 << d)]


def outcome(func, group):
    try:
        return func(group)
    except Exception as exc:  # the error type is part of the contract
        return type(exc)


S3 = P.PermGroup(3, (P.perm_from_one_line([2, 1, 3]), P.perm_from_one_line([2, 3, 1])))


@pytest.mark.parametrize("group", [
    P.PermGroup(0, ()), P.PermGroup(1, ((0,),)), S3, P.cyclic_wreath(3, 3)])
def test_sweep_matches_scan_pinned(group):
    for func, oracle in [(P.power_set_regular_orbit, power_set_regular_orbit_by_scan),
                         (P.trivial_stabilizer_partition, trivial_stabilizer_partition_by_scan)]:
        assert outcome(func, group) == outcome(oracle, group)


@st.composite
def perm_groups(draw):
    d = draw(st.integers(0, 9))
    gens = draw(st.lists(st.permutations(range(d)), min_size=1, max_size=3))
    return P.PermGroup(d, tuple(gens))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(perm_groups())
def test_sweep_matches_scan(group):
    # a low element cap keeps each listing short; both sides list, so both raise alike
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ORBITFORGE_ELEMENT_CAP", "5000")
        for func, oracle in [(P.power_set_regular_orbit, power_set_regular_orbit_by_scan),
                             (P.trivial_stabilizer_partition,
                              trivial_stabilizer_partition_by_scan)]:
            assert outcome(func, group) == outcome(oracle, group)
