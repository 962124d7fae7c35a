"""Irreducibility by structure against the exhaustive spin: the semilinear
rule (one spin per normalizing-scalar class) and the wreath rule
(Clifford's theorem for H wr S with a transitive top)."""

import pytest

from orbitforge import action as A
from orbitforge.constructions import WreathSpec, build_wreath
from orbitforge.errors import IntransitiveTop
from orbitforge.field import make_field

from helpers import irreducible_by_exhaustive_spin

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# GF(16) twice and GF(64) as GF(8)^2 and GF(4)^3 put twists over a
# non-prime subfield; over GF(4)^3, GF(2)[K] can be smaller than GF(4)[K]
SEMILINEAR_FIELDS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 2), (5, 1, 2),
                     (3, 1, 3), (2, 3, 2), (2, 2, 3), (3, 1, 4)]
WREATH_FIELDS = [(2, 1, 1), (3, 1, 1), (2, 1, 2), (5, 1, 1), (7, 1, 1), (2, 1, 3), (3, 1, 2)]


@st.composite
def semilinear_maps(draw, ctx, count):
    """count maps whose scalars often lie in a proper subgroup of GF(q^n)*,
    so that the scalar kernel and the field it spans vary."""
    step = draw(st.sampled_from([d for d in range(1, ctx.order + 1) if ctx.order % d == 0]))
    return [(draw(st.integers(0, ctx.n - 1)), step * draw(st.integers(0, ctx.order // step - 1)))
            for _ in range(count)]


@st.composite
def semilinear_instances(draw):
    ctx = make_field(*draw(st.sampled_from(SEMILINEAR_FIELDS)))
    gens = draw(semilinear_maps(ctx, draw(st.integers(1, 3))))
    return A.ActionInstance(A.SemilinearAction(ctx), gens)


@st.composite
def wreath_instances(draw):
    p, k, n = draw(st.sampled_from(WREATH_FIELDS))
    ctx = make_field(p, k, n)
    m = draw(st.integers(1, 3 if ctx.degree < 3 else 2))
    inner = draw(semilinear_maps(ctx, draw(st.integers(0, 2))))
    tops = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=2))
    try:
        return build_wreath(WreathSpec(ctx, tuple(inner), m, tuple(map(tuple, tops))))
    except IntransitiveTop:
        hypothesis.reject()


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.one_of(semilinear_instances(), wreath_instances()))
def test_structure_rules_match_exhaustive_spin(inst):
    assert A.is_irreducible(inst) == irreducible_by_exhaustive_spin(inst)
    if inst.backend.kind == "semilinear":  # with an orbit report's representatives too
        reps = [rep for _, rep, _ in A.enumerate_orbits(inst).orbits]
        assert A.is_irreducible(inst, reps=reps) == irreducible_by_exhaustive_spin(inst)


def wreath(field, inner, m, top):
    return build_wreath(WreathSpec(make_field(*field), inner, m, (top,)))


@pytest.mark.parametrize("inst, irreducible", [
    # H = 1 is irreducible on GF(2), but with m = 3 the diagonal is invariant
    (wreath((2, 1, 1), ((0, 0),), 3, (1, 2, 0)), False),
    # the order-3 scalar of GF(16) spans GF(4) in every block
    (wreath((2, 1, 4), ((0, 5),), 2, (1, 0)), False),
    # -1 on GF(3) in three blocks, permuted by a 3-cycle
    (wreath((3, 1, 1), ((0, 1),), 3, (1, 2, 0)), True),
    # the Frobenius alone fixes the prime field of GF(81)
    (A.ActionInstance(A.SemilinearAction(make_field(3, 1, 4)), [(1, 0)]), False),
    # scalars of order 7 span GF(8), not GF(4)[K] = GF(64): the module is GF(8)^2
    (A.ActionInstance(A.SemilinearAction(make_field(2, 2, 3)), [(2, 21), (0, 54)]), False),
])
def test_pinned_cases(inst, irreducible):
    assert A.is_irreducible(inst) == irreducible_by_exhaustive_spin(inst) == irreducible
