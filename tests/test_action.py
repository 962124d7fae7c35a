import json
import random

import numpy as np
import pytest

from orbitforge import action as A
from orbitforge import semilinear as sl
from orbitforge.arith import prime_factors
from orbitforge.constructions import WreathSpec, build_wreath
from orbitforge.errors import ElementCapExceeded, NotInGqn, PointCapExceeded
from orbitforge.field import make_field

from helpers import (act_by_formula, irreducible_by_exhaustive_spin, orbit_lengths_by_scalar_bfs,
                     perm_array_by_matmul)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def semilinear_instance(p, k, n, gens):
    return A.ActionInstance(A.SemilinearAction(make_field(p, k, n)), gens)


def test_closure_identity_only():
    inst = semilinear_instance(2, 1, 2, [(0, 0)])
    assert A.closure(inst.backend, inst.generators) == ((0, 0),)
    assert inst.group_order == 1


def test_closure_full_gamma():
    ctx = make_field(2, 1, 4)
    inst = A.ActionInstance(A.SemilinearAction(ctx), [(1, 0), (0, 1)])
    assert inst.group_order == 4 * 15
    assert A.closure(inst.backend, inst.generators) == sl.full_group(ctx)


def test_closure_cap(monkeypatch):
    monkeypatch.setenv("ORBITFORGE_ELEMENT_CAP", "10")
    ctx = make_field(2, 1, 4)
    with pytest.raises(ElementCapExceeded):
        A.closure(A.SemilinearAction(ctx), [(1, 0), (0, 1)])


def test_point_cap(monkeypatch):
    monkeypatch.setenv("ORBITFORGE_POINT_CAP", "8")
    inst = semilinear_instance(2, 1, 4, [(0, 1)])
    with pytest.raises(PointCapExceeded):
        A.enumerate_orbits(inst)
    # a wreath product sweeps its 4-point label grid, yet 16 points are over the cap
    wreath = build_wreath(WreathSpec(make_field(2, 1, 2), ((0, 1),), 2, ((1, 0),)))
    with pytest.raises(PointCapExceeded):
        A.enumerate_orbits(wreath)


def test_point_cap_applies_to_every_sweep(monkeypatch):
    # is_irreducible without representatives sweeps the points itself
    monkeypatch.setenv("ORBITFORGE_POINT_CAP", "50")
    inst = semilinear_instance(3, 1, 4, [(0, 1)])
    with pytest.raises(PointCapExceeded):
        A.is_irreducible(inst)
    assert A.is_irreducible(semilinear_instance(2, 1, 4, [(0, 1)]))


def test_point_cap_applies_to_the_wreath_rule(monkeypatch):
    # the wreath rule sweeps nothing, yet 81 points are over the cap
    monkeypatch.setenv("ORBITFORGE_POINT_CAP", "50")
    wreath = build_wreath(WreathSpec(make_field(3, 1, 2), ((0, 1),), 2, ((1, 0),)))
    with pytest.raises(PointCapExceeded):
        A.is_irreducible(wreath)


def test_generator_validation():
    ctx = make_field(2, 1, 2)
    with pytest.raises(NotInGqn):
        A.ActionInstance(A.SemilinearAction(ctx), [(5, 0)])
    with pytest.raises(NotInGqn):
        A.ActionInstance(A.MatrixAction(3, 2), [(1, 0, 0, 0)])  # singular


def test_orbits_scalar_group_gf9():
    inst = semilinear_instance(3, 1, 2, [(0, 1)])
    rep = A.enumerate_orbits(inst)
    assert rep.orbit_lengths == (1, 8)
    assert rep.regular_exists
    assert rep.orbits == ((1, 0, 8), (8, 1, 1))


def test_orbits_trivial_group_on_sixteen_points():
    ctx = make_field(2, 1, 2)
    backend = A.WreathAction(ctx, 2)
    inst = A.ActionInstance(backend, [backend.identity])
    rep = A.enumerate_orbits(inst)
    assert rep.orbit_lengths == tuple([1] * 16)
    assert rep.group_order == 1


def test_orbit_partition_invariants_random():
    rng = random.Random(5)
    for _ in range(25):
        kind = rng.choice(["semilinear", "matrix", "wreath"])
        if kind == "semilinear":
            ctx = make_field(*rng.choice([(2, 1, 3), (3, 1, 2), (2, 1, 4), (5, 1, 2)]))
            gens = [(rng.randrange(ctx.n), rng.randrange(ctx.order)) for _ in range(2)]
            inst = A.ActionInstance(A.SemilinearAction(ctx), gens)
        elif kind == "matrix":
            p, dim = rng.choice([(3, 2), (5, 2), (2, 3)])
            backend = A.MatrixAction(p, dim)
            gens = []
            while len(gens) < 2:
                m = tuple(rng.randrange(p) for _ in range(dim * dim))
                if A.mat_det(m, dim, p) != 0:
                    gens.append(m)
            inst = A.ActionInstance(backend, gens)
        else:
            ctx = make_field(*rng.choice([(2, 1, 2), (3, 1, 1)]))
            backend = A.WreathAction(ctx, 3)
            comps = tuple((rng.randrange(ctx.n), rng.randrange(max(ctx.order, 1)))
                          for _ in range(3))
            perm = tuple(rng.sample(range(3), 3))
            inst = A.ActionInstance(backend, [(comps, perm)])
        rep = A.enumerate_orbits(inst)
        assert sum(ln for ln, _, _ in rep.orbits) == inst.point_count
        for ln, rep_idx, stab in rep.orbits:
            assert rep.group_order % ln == 0
            assert stab == rep.group_order // ln
        assert rep.regular_exists == any(st == 1 for _, _, st in rep.orbits)


def test_orbit_representatives_are_minima():
    inst = semilinear_instance(2, 1, 4, [(1, 0), (0, 3)])
    rep = A.enumerate_orbits(inst)
    perms = [inst.backend.perm_array(g) for g in inst.generators]
    for _, rep_idx, _ in rep.orbits:
        orbit = {rep_idx}
        frontier = [rep_idx]
        while frontier:
            x = frontier.pop()
            for p in perms:
                y = int(p[x])
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        assert min(orbit) == rep_idx


def test_backend_equivalence_semilinear_matrix():
    for (p, k, n) in [(2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 2)]:
        inst = semilinear_instance(p, k, n, [(1, 1), (0, 1)])
        rep1 = A.enumerate_orbits(inst)
        rep2 = A.enumerate_orbits(A.matrix_realization(inst))
        assert rep1.orbit_lengths == rep2.orbit_lengths
        assert rep1.group_order == rep2.group_order


def test_backend_equivalence_wreath_matrix():
    ctx = make_field(3, 1, 1)
    backend = A.WreathAction(ctx, 3)
    gens = [((sl.IDENTITY, (0, 1), sl.IDENTITY), (1, 2, 0))]
    inst = A.ActionInstance(backend, gens)
    rep1 = A.enumerate_orbits(inst)
    rep2 = A.enumerate_orbits(A.matrix_realization(inst))
    assert rep1.orbit_lengths == rep2.orbit_lengths


def test_backend_equivalence_wreath_with_twists():
    ctx = make_field(2, 1, 2)
    backend = A.WreathAction(ctx, 2)
    gens = [(((1, 1), sl.IDENTITY), (1, 0)), (((0, 1), (0, 2)), (0, 1))]
    inst = A.ActionInstance(backend, gens)
    rep1 = A.enumerate_orbits(inst)
    rep2 = A.enumerate_orbits(A.matrix_realization(inst))
    assert rep1.orbit_lengths == rep2.orbit_lengths
    assert rep1.group_order == rep2.group_order


def test_orbit_engine_matches_scalar_bfs():
    rng = random.Random(17)
    instances = [
        semilinear_instance(2, 1, 4, [(1, 3), (0, 7)]),
        semilinear_instance(3, 1, 2, [(1, 2)]),
        A.ActionInstance(A.MatrixAction(5, 2), [(1, 1, 0, 1), (2, 0, 0, 3)]),
    ]
    ctx = make_field(2, 1, 2)
    backend = A.WreathAction(ctx, 3)
    comps = tuple((rng.randrange(2), rng.randrange(3)) for _ in range(3))
    instances.append(A.ActionInstance(backend, [(comps, (2, 0, 1))]))
    for inst in instances:
        report = A.enumerate_orbits(inst)
        assert report.orbit_lengths == orbit_lengths_by_scalar_bfs(inst)


def test_example1_matrix_realization_same_orbits():
    from orbitforge.constructions import build_example1
    inst = build_example1()
    direct = A.enumerate_orbits(inst)
    realized = A.enumerate_orbits(A.matrix_realization(inst))
    assert direct.orbit_lengths == realized.orbit_lengths
    assert realized.group_order == 1215


def test_report_determinism_across_runs_and_workers():
    inst = semilinear_instance(2, 1, 4, [(2, 3), (0, 5)])
    blobs = {json.dumps(A.enumerate_orbits(inst, workers=w).to_json_dict(), sort_keys=True)
             for w in (1, 1, 4, 8)}
    assert len(blobs) == 1


def test_report_json_schema_keys():
    inst = semilinear_instance(3, 1, 2, [(0, 1)])
    doc = A.enumerate_orbits(inst).to_json_dict()
    assert list(doc) == ["group_order", "orbit_lengths", "regular", "p_regular", "orbits"]
    assert all(list(o) == ["length", "rep", "stab_order"] for o in doc["orbits"])
    assert all(isinstance(k, str) for k in doc["p_regular"])


def test_p_regular_keys_are_the_order_primes():
    inst = semilinear_instance(3, 1, 2, [(0, 1)])
    rep = A.enumerate_orbits(inst)
    assert list(rep.p_regular) == prime_factors(rep.group_order) == [2]  # 7 does not divide 8
    assert rep.p_regular[2]


def test_faithful_minus_identity_matrix():
    inst = A.ActionInstance(A.MatrixAction(7, 2), [(6, 0, 0, 6)])
    assert A.orbit_implication_report(inst).faithful
    assert len(A.closure(inst.backend, inst.generators)) == 2


def test_faithful_kernel_contains_trivial_generator():
    ctx = make_field(2, 1, 2)
    backend = A.WreathAction(ctx, 3)
    inst = A.ActionInstance(backend, [backend.identity])
    rep = A.orbit_implication_report(inst)
    assert rep.group_order == 1
    assert rep.faithful  # the kernel is exactly the identity


def test_acts_trivially_matches_full_scan():
    # ImplicationReport.faithful is always True because of this: on every
    # backend only the identity element fixes every point
    ctx4 = make_field(2, 1, 2)
    wreath = A.WreathAction(ctx4, 2)
    for inst in [
        semilinear_instance(2, 1, 3, [(1, 0), (0, 1)]),
        A.ActionInstance(A.MatrixAction(3, 2), [(0, 2, 1, 0), (2, 0, 0, 2)]),
        A.ActionInstance(A.MatrixAction(7, 2), [(6, 0, 0, 6)]),  # -I in GL(2, 7)
        build_wreath(WreathSpec(ctx4, ((1, 1),), 2, ((1, 0),))),
        A.ActionInstance(wreath, [(((1, 0), (0, 0)), (0, 1)), (((0, 1), (0, 0)), (1, 0))]),
    ]:
        ident = np.arange(inst.point_count)
        for g in A.closure(inst.backend, inst.generators):
            brute = bool(np.array_equal(inst.backend.perm_array(g), ident))
            assert brute == (g == inst.backend.identity)


def test_irreducible_examples():
    # multiplications of GF(4) on GF(2)^2
    assert A.is_irreducible(semilinear_instance(2, 1, 2, [(0, 1)]))
    # identity group on GF(3)^2
    ident = A.ActionInstance(A.MatrixAction(3, 2), [A.mat_identity(2)])
    assert not A.is_irreducible(ident)
    # diagonal scalars: every line through a basis vector is invariant
    assert not A.is_irreducible(A.ActionInstance(A.MatrixAction(3, 2), [(2, 0, 0, 2)]))
    # subfield multiplications only: GF(4)* inside GF(16) spins a 2-dim subspace
    ctx16 = make_field(2, 1, 4)
    sub = A.ActionInstance(A.SemilinearAction(ctx16), [(0, 5)])  # order-3 scalar
    assert not A.is_irreducible(sub)


def test_irreducibility_matches_exhaustive_spin():
    # the per-orbit spin must agree with spinning every scalar class
    rng = random.Random(31)
    instances = [
        semilinear_instance(2, 1, 4, [(0, 5)]),          # reducible
        semilinear_instance(2, 1, 4, [(1, 1), (0, 1)]),  # irreducible
        semilinear_instance(3, 1, 2, [(1, 0)]),          # Frobenius alone
        A.ActionInstance(A.MatrixAction(3, 2), [(2, 0, 0, 2)]),
        A.ActionInstance(A.MatrixAction(5, 2), [(1, 1, 0, 1)]),
    ]
    for _ in range(10):
        ctx = make_field(*rng.choice([(2, 1, 3), (3, 1, 2), (5, 1, 2)]))
        gens = [(rng.randrange(ctx.n), rng.randrange(ctx.order)) for _ in range(2)]
        instances.append(A.ActionInstance(A.SemilinearAction(ctx), gens))
    for inst in instances:
        assert A.is_irreducible(inst) == irreducible_by_exhaustive_spin(inst)


def test_implication_report_free_scalar_action():
    inst = semilinear_instance(3, 1, 2, [(0, 1)])
    rec = A.orbit_implication_report(inst)
    assert rec.faithful and rec.irreducible and rec.regular_exists
    assert not rec.is_counterexample
    assert rec.odd_characteristic and not rec.odd_order


def test_matrix_helpers():
    rng = random.Random(2)
    for p, dim in [(3, 2), (7, 2), (5, 3)]:
        for _ in range(10):
            m = tuple(rng.randrange(p) for _ in range(dim * dim))
            if A.mat_det(m, dim, p) == 0:
                continue
            inv = A.mat_inv(m, dim, p)
            assert A.mat_mul(m, inv, dim, p) == A.mat_identity(dim)
            # det multiplicative
            m2 = tuple(rng.randrange(p) for _ in range(dim * dim))
            assert A.mat_det(A.mat_mul(m, m2, dim, p), dim, p) == \
                (A.mat_det(m, dim, p) * A.mat_det(m2, dim, p)) % p


@st.composite
def matrix_elements(draw):
    """(p, d, g): an invertible d x d matrix over GF(p) on at most 2^12 points."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 257]))
    d = draw(st.integers(1, max(j for j in range(1, 13) if p ** j <= 2 ** 12)))
    g = tuple(draw(st.lists(st.integers(0, p - 1), min_size=d * d, max_size=d * d)))
    hypothesis.assume(A.mat_det(g, d, p))
    return p, d, g


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(matrix_elements())
def test_matrix_perm_array_matches_matmul(case):
    p, d, g = case
    backend = A.MatrixAction(p, d)
    perm = backend.perm_array(g)
    assert perm.dtype == np.int64
    assert np.array_equal(perm, perm_array_by_matmul(p, d, g))
    if backend.point_count <= 343:
        assert perm.tolist() == [act_by_formula(backend, g, x) for x in range(backend.point_count)]


@pytest.mark.parametrize("p, d", [(2, 17), (3, 11)])  # past 2^16 points: several blocks
def test_matrix_perm_array_across_blocks(p, d):
    rng = random.Random(d)
    while True:
        g = tuple(rng.randrange(p) for _ in range(d * d))
        if A.mat_det(g, d, p):
            break
    assert np.array_equal(A.MatrixAction(p, d).perm_array(g), perm_array_by_matmul(p, d, g))
