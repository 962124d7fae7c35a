import random

import pytest

from orbitforge import action as A
from orbitforge import constructions as C
from orbitforge import field as F
from orbitforge import semilinear as sl
from orbitforge.constructions import WreathSpec, build_wreath
from orbitforge.errors import (
    BaseStabilizerNontrivial,
    ContextMismatch,
    DegenerateField,
    EvenCharacteristic,
    EvenOrder,
    GcdViolation,
    IntransitiveTop,
    PartitionStabilized,
)
from orbitforge.field import ZERO, make_field

from helpers import act_by_formula


def cyclic_perm(m):
    return tuple((i + 1) % m for i in range(m))


def test_build_wreath_order_formula_cross_checked():
    # |H wr S| = |H|^m * |S|, confirmed by closure for small orders
    cases = [
        (make_field(2, 1, 2), ((0, 1),), 3, (cyclic_perm(3),)),        # 3^3*3
        (make_field(11, 1, 1), ((0, F.from_integer(make_field(11, 1, 1), 3)),), 3,
         (cyclic_perm(3),)),                                           # 5^3*3
        (make_field(3, 1, 1), ((0, 1),), 2, (cyclic_perm(2),)),        # 2^2*2
    ]
    for ctx, gens, m, tops in cases:
        inst = build_wreath(WreathSpec(ctx, gens, m, tops))
        inner = len(sl.subgroup_closure(ctx, gens))
        top_order = len({p for p in _perm_closure(tops, m)})
        assert inst.group_order == inner ** m * top_order
        assert inst.group_order == len(A.closure(inst.backend, inst.generators))


def _perm_closure(gens, m):
    from orbitforge.permutation import PermGroup
    return PermGroup(m, gens).elements


def test_build_wreath_m1_degenerate_matches_inner():
    ctx = make_field(3, 1, 2)
    inst = build_wreath(WreathSpec(ctx, ((0, 1),), 1, ((0,),)))
    rep = A.enumerate_orbits(inst)
    direct = A.enumerate_orbits(A.ActionInstance(A.SemilinearAction(ctx), [(0, 1)]))
    assert rep.orbit_lengths == direct.orbit_lengths
    assert rep.orbits == direct.orbits  # identical indexing for m = 1


def test_build_wreath_errors():
    ctx = make_field(2, 1, 2)
    with pytest.raises(IntransitiveTop):
        build_wreath(WreathSpec(ctx, ((0, 1),), 3, ((0, 1, 2),)))
    with pytest.raises(ContextMismatch):
        build_wreath(WreathSpec(ctx, ((0, 77),), 3, (cyclic_perm(3),)))


def test_wreath_regular_orbit_over_gf11():
    ctx = make_field(11, 1, 1)
    h = F.from_integer(ctx, 3)  # order 5
    inst = build_wreath(WreathSpec(ctx, ((0, h),), 3, (cyclic_perm(3),)))
    assert inst.group_order == 375
    rep = A.enumerate_orbits(inst)
    assert rep.regular_exists
    # the specific vector (1, 2, 3) has a trivial stabilizer
    code = sum((F.from_integer(ctx, v) + 1) * 11 ** i for i, v in enumerate((1, 2, 3)))
    elements = A.closure(inst.backend, inst.generators)
    stab = [g for g in elements if act_by_formula(inst.backend, g, code) == code]
    assert stab == [inst.backend.identity]


def test_example1_order_cross_checked_by_closure():
    inst = C.build_example1()
    assert inst.group_order == 3 ** 5 * 5 == 1215
    assert len(A.closure(inst.backend, inst.generators)) == 1215


def test_example1_claims():
    inst = C.build_example1()
    rep = A.enumerate_orbits(inst)
    assert rep.group_order == 1215 and rep.point_count == 1024
    assert A.orbit_implication_report(inst).faithful
    assert A.is_irreducible(inst)
    assert rep.p_regular[3] and rep.p_regular[5]
    assert not rep.regular_exists
    # stabilizer orders quoted for the two witness orbits
    all_equal = sum(1 * 4 ** i for i in range(5))
    assert next(o for o in rep.orbits if o[1] == all_equal)[2] == 5
    assert next(o for o in rep.orbits if o[1] == 1)[2] == 81


def test_example2_golden():
    inst = C.build_example2()
    assert inst.group_order == 1152
    rep = A.enumerate_orbits(inst)
    assert rep.orbit_lengths == (1, 48, 48, 48, 144, 144, 144, 192, 192, 192, 288, 288, 288, 384)
    assert sum(rep.orbit_lengths) == 2401
    assert A.orbit_implication_report(inst).faithful and A.is_irreducible(inst)
    assert rep.p_regular == {2: True, 3: True}
    assert not rep.regular_exists


def test_example2_kronecker_commutes():
    inst = C.build_example2()
    h_gens = inst.meta["inner_generators"]
    ident = A.mat_identity(2)
    for h1 in h_gens:
        for h2 in h_gens:
            left = A.mat_mul(A.mat_kron(h1, ident, 2, 2, 7),
                             A.mat_kron(ident, h2, 2, 2, 7), 4, 7)
            right = A.mat_mul(A.mat_kron(ident, h2, 2, 2, 7),
                              A.mat_kron(h1, ident, 2, 2, 7), 4, 7)
            assert left == right == A.mat_kron(h1, h2, 2, 2, 7)


def test_example2_inner_group_structure():
    inst = C.build_example2()
    h_gens = inst.meta["inner_generators"]
    backend = A.MatrixAction(7, 2)
    h_group = A.closure(backend, h_gens)
    assert len(h_group) == 48
    assert C._center_size(h_group, backend) == 2
    q_group = A.closure(backend, h_gens[:2])
    assert len(q_group) == 8
    assert C._coset_order_profile(h_group, q_group, backend) == (1, 2, 2, 2, 3, 3)


def test_example2_generators_are_the_normalizer_scan_result():
    from helpers import example2_generators_by_scan
    assert C.build_example2().meta["inner_generators"] == example2_generators_by_scan()


def test_wolf_family_smallest():
    inst, rec = C.wolf_family(2, 1, 2, 2)
    assert rec.group_order == 18 and rec.field_size == 4
    assert rec.c_size == 9 and rec.d_size == 6
    assert rec.c_regular_primes == (3,) and rec.d_regular_primes == (2,)
    assert rec.all_claims_hold
    # cross-check the two named orbits by explicit stabilizer scans
    elements = A.closure(inst.backend, inst.generators)
    assert len(elements) == 18
    c_code = 1 + 4  # (1, 1)
    c_stab = [g for g in elements if act_by_formula(inst.backend, g, c_code) == c_code]
    assert len(c_stab) == 2  # |G| / |C| = 18/9
    d_stab = [g for g in elements if act_by_formula(inst.backend, g, 1) == 1]
    assert len(d_stab) == 3  # |G| / |D| = 18/6


def test_wolf_family_gf8():
    _, rec = C.wolf_family(2, 1, 3, 2)
    assert rec.group_order == 98
    assert rec.d_size == 2 * 7
    assert rec.all_claims_hold


def test_wolf_family_errors():
    with pytest.raises(GcdViolation):
        C.wolf_family(2, 1, 2, 3)   # gcd(3, 3) = 3
    with pytest.raises(DegenerateField):
        C.wolf_family(2, 1, 1, 3)   # q^n = 2
    with pytest.raises(DegenerateField):
        C.wolf_family(3, 1, 1, 1)   # m = 1


def test_sign_assignment_pairs_orbits():
    ctx = make_field(11, 1, 1)
    h = F.from_integer(ctx, 3)
    inst = build_wreath(WreathSpec(ctx, ((0, h),), 3, (cyclic_perm(3),)))
    assignment = C.orbit_sign_assignment(inst)
    reps = assignment.orbit_reps
    for v in ctx.nonzero():
        nv = F.neg(ctx, v)
        assert reps[v] != reps[nv]
        for block in range(3):
            assert assignment.sign(block, v) == -assignment.sign(block, nv)
    # orbit of 1 is positive by convention
    assert assignment.sign(0, 0) == 1


def test_sign_witness_spec_example():
    ctx = make_field(11, 1, 1)
    h = F.from_integer(ctx, 3)
    inst = build_wreath(WreathSpec(ctx, ((0, h),), 3, (cyclic_perm(3),)))
    z = tuple(F.from_integer(ctx, v) for v in (1, 1, 2))
    y = C.sign_pairing_witness(inst, z, ((1,), (2, 3)))
    assert tuple(F.to_integer(ctx, yi) for yi in y) == (1, 10, 2)
    code = sum((yi + 1) * 11 ** i for i, yi in enumerate(y))
    elements = A.closure(inst.backend, inst.generators)
    stab = [g for g in elements if act_by_formula(inst.backend, g, code) == code]
    assert stab == [inst.backend.identity]


def test_sign_witness_m1():
    ctx = make_field(11, 1, 1)
    h = F.from_integer(ctx, 3)
    inst = build_wreath(WreathSpec(ctx, ((0, h),), 1, ((0,),)))
    y = C.sign_pairing_witness(inst, (F.from_integer(ctx, 1),), ((1,), ()))
    assert len(y) == 1 and y[0] != ZERO


def test_sign_witness_gf7():
    ctx = make_field(7, 1, 1)
    h = F.from_integer(ctx, 2)  # order 3
    inst = build_wreath(WreathSpec(ctx, ((0, h),), 3, (cyclic_perm(3),)))
    z = tuple(F.from_integer(ctx, v) for v in (1, 2, 3))
    y = C.sign_pairing_witness(inst, z, ((1,), (2, 3)))
    code = sum((yi + 1) * 7 ** i for i, yi in enumerate(y))
    elements = A.closure(inst.backend, inst.generators)
    assert [g for g in elements if act_by_formula(inst.backend, g, code) == code] == [inst.backend.identity]


def test_inner_orbit_map_matches_dfs():
    from helpers import inner_orbit_map_by_dfs
    rng = random.Random(5)
    for p, k, n in [(3, 1, 1), (7, 1, 1), (11, 1, 1), (3, 1, 2), (3, 1, 3), (5, 1, 2), (2, 1, 4), (3, 1, 4)]:
        ctx = make_field(p, k, n)
        for _ in range(6):
            gens = [(rng.randrange(ctx.n), rng.randrange(ctx.order)) for _ in range(rng.randint(0, 2))]
            assert C.inner_orbit_map(ctx, gens) == \
                inner_orbit_map_by_dfs(ctx, sl.subgroup_closure(ctx, gens)), (ctx, gens)


def test_sign_witness_rejects_exactly_the_stabilized_components():
    # GF(27) with inner map (1, 2) of order 3: its twisted maps fix some
    # nonzero points, found here by a stabilizer scan over the listed group
    from helpers import point_stabilizer
    ctx = make_field(3, 1, 3)
    inst = build_wreath(WreathSpec(ctx, ((1, 2),), 3, (cyclic_perm(3),)))
    backend = A.SemilinearAction(ctx)
    inner = A.closure(backend, [(1, 2)])
    stabilized = {v for v in ctx.nonzero() if len(point_stabilizer(backend, inner, v + 1)) > 1}
    assert 0 < len(stabilized) < ctx.order
    free = min(set(ctx.nonzero()) - stabilized)
    for v in ctx.nonzero():
        z = (v, free, free)
        if v in stabilized:
            with pytest.raises(BaseStabilizerNontrivial):
                C.sign_pairing_witness(inst, z, ((1,), (2, 3)))
        else:
            y = C.sign_pairing_witness(inst, z, ((1,), (2, 3)))
            assert all(F.neg(ctx, yi) == zi or yi == zi for yi, zi in zip(y, z))


def test_sign_functions_list_no_inner_group(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the inner group was listed")
    ctx = make_field(11, 1, 1)
    inst = build_wreath(WreathSpec(ctx, ((0, F.from_integer(ctx, 3)),), 3, (cyclic_perm(3),)))
    monkeypatch.setattr(sl, "subgroup_closure", refuse)
    assert C.orbit_sign_assignment(inst).sign(2, 0) == 1
    z = tuple(F.from_integer(ctx, v) for v in (1, 1, 2))
    y = C.sign_pairing_witness(inst, z, ((1,), (2, 3)))
    assert tuple(F.to_integer(ctx, yi) for yi in y) == (1, 10, 2)


def test_sign_witness_errors():
    ctx7 = make_field(7, 1, 1)
    ctx4 = make_field(2, 1, 2)
    h3 = F.from_integer(ctx7, 2)
    w = build_wreath(WreathSpec(ctx7, ((0, h3),), 3, (cyclic_perm(3),)))
    z = tuple(F.from_integer(ctx7, v) for v in (1, 2, 3))
    with pytest.raises(EvenCharacteristic):
        even_char = build_wreath(WreathSpec(ctx4, ((0, 1),), 3, (cyclic_perm(3),)))
        C.sign_pairing_witness(even_char, (0, 0, 0), ((1,), (2, 3)))
    with pytest.raises(EvenOrder):
        h6 = F.from_integer(ctx7, 3)  # order 6
        even_inner = build_wreath(WreathSpec(ctx7, ((0, h6),), 3, (cyclic_perm(3),)))
        C.sign_pairing_witness(even_inner, z, ((1,), (2, 3)))
    with pytest.raises(BaseStabilizerNontrivial):
        C.sign_pairing_witness(w, (ZERO, z[1], z[2]), ((1,), (2, 3)))
    with pytest.raises(PartitionStabilized):
        C.sign_pairing_witness(w, z, ((1, 2, 3), ()))  # A2 empty for m > 1
    with pytest.raises(PartitionStabilized):
        C.sign_pairing_witness(w, z, ((1, 2), (2, 3)))  # not disjoint


def test_base_group_regular_implication_odd_odd():
    # for odd-order block-diagonal cores over odd characteristic: if every
    # prime has a p-regular orbit then a regular orbit exists (empirical)
    shapes = [
        (make_field(11, 1, 1), (0, 2), 3),   # Z5^3 on GF(11)^3
        (make_field(7, 1, 1), (0, 2), 3),    # Z3^3 on GF(7)^3
        (make_field(3, 1, 3), (1, 2), 2),    # twisted order-3 maps, two blocks
        (make_field(19, 1, 1), (0, 2), 2),   # Z9^2 on GF(19)^2
    ]
    import orbitforge.permutation as P
    for ctx, gen, m in shapes:
        backend = A.WreathAction(ctx, m)
        ident = P.identity_perm(m)
        gens = []
        for i in range(m):
            comps = [sl.IDENTITY] * m
            comps[i] = gen
            gens.append((tuple(comps), ident))
        base = A.ActionInstance(backend, gens)
        assert base.group_order % 2 == 1
        rep = A.enumerate_orbits(base)
        if all(rep.p_regular.values()):
            assert rep.regular_exists, (ctx, gen, m)


def test_partition_reexported():
    from orbitforge.permutation import cyclic_group
    assert C.trivial_stabilizer_partition(cyclic_group(3)) == ((1,), (2, 3))


def test_invariant_checks_survive_optimize_flag():
    # one converted check per module, each tripped under python -O
    from helpers import run_with_src
    script = (
        "from orbitforge import arith, constructions, field, semilinear\n"
        "from orbitforge.errors import ConstructionFailed\n"
        "from orbitforge.field import make_field\n"
        "def trip(call, error):\n"
        "    try:\n"
        "        call()\n"
        "    except error as exc:\n"
        "        print(type(exc).__name__)\n"
        "trip(lambda: arith.factorization(0), ValueError)\n"
        "semilinear._frobenius_pair_confirmed = lambda *args: False\n"
        "trip(lambda: semilinear.norm_subgroup_prime_analysis(make_field(2, 1, 2), 2),\n"
        "     ConstructionFailed)\n"
        "spec = constructions.WreathSpec(make_field(7, 1, 1), ((0, 2),), 3, ((1, 2, 0),))\n"
        "instance = constructions.build_wreath(spec)\n"
        "field.neg = lambda ctx, v: v  # every orbit meets its own negative\n"
        "trip(lambda: constructions.orbit_sign_assignment(instance), ConstructionFailed)\n"
    )
    proc = run_with_src(["-O", "-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError", "ConstructionFailed", "ConstructionFailed"]
