"""The orbit sweep: round bounds on its weak cases, a property cross-check
against the scalar oracle, the quotient sweeps against the full-point sweep,
and invariant checks that survive `python -O`."""

import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from orbitforge import action as A
from orbitforge import semilinear as sl
from orbitforge.constructions import WreathSpec, build_wreath
from orbitforge.errors import ConstructionFailed
from orbitforge.field import make_field

from helpers import act_by_formula, orbit_lengths_by_scalar_bfs, run_with_src, scalar_orbit

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def round_bound(points):
    return 2 * math.ceil(math.log2(points)) + 4


def test_sweep_rounds_stride_seven_cycle():
    # one 65535-cycle that moves each point 7 steps: plain label propagation
    # needs over a hundred rounds here
    inst = A.ActionInstance(A.SemilinearAction(make_field(2, 1, 16)), [(0, 7)],
                            known_order=2 ** 16 - 1)
    labels, rounds = A._orbit_labels(inst)
    assert rounds <= round_bound(inst.point_count)
    assert labels[0] == 0 and (labels[1:] == 1).all()
    assert A.enumerate_orbits(inst).orbits == ((1, 0, 2 ** 16 - 1), (2 ** 16 - 1, 1, 1))


def test_sweep_rounds_dihedral_reflections():
    # <r1, r2> with r1 = swap and r2 = (x, y) -> (a y, x / a): two involutions,
    # so every orbit is a long path that doubling a generator cannot shorten.
    # Each hyperbola xy = c (c != 0) is one orbit of p - 1 points, the two
    # axes form one regular orbit of 2(p - 1) points.
    p, a = 251, 6  # 6 generates GF(251)*
    gens = [(0, 1, 1, 0), (0, a, pow(a, -1, p), 0)]
    inst = A.ActionInstance(A.MatrixAction(p, 2), gens, known_order=2 * (p - 1))
    _, rounds = A._orbit_labels(inst)
    assert rounds <= round_bound(inst.point_count)
    report = A.enumerate_orbits(inst)
    assert report.orbit_lengths == (1,) + (p - 1,) * (p - 1) + (2 * (p - 1),)
    assert report.regular_exists


SEMILINEAR_FIELDS = [(2, 1, 1), (2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 2), (5, 1, 2), (7, 1, 1)]
MATRIX_SHAPES = [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]
WREATH_SHAPES = [((2, 1, 1), 3), ((2, 1, 2), 2), ((2, 1, 2), 3), ((3, 1, 1), 3), ((5, 1, 1), 2)]


def semilinear_maps(ctx):
    return st.tuples(st.integers(0, ctx.n - 1), st.integers(0, max(ctx.order, 1) - 1))


@st.composite
def small_instances(draw):
    kind = draw(st.sampled_from(["semilinear", "matrix", "wreath"]))
    count = draw(st.integers(1, 3))
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


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(small_instances())
def test_sweep_matches_scalar_oracle(inst):
    points = range(inst.point_count)
    for g in inst.generators:
        assert inst.backend.perm_array(g).tolist() == [act_by_formula(inst.backend, g, x) for x in points]
    labels, rounds = A._orbit_labels(inst)
    assert rounds <= round_bound(inst.point_count)
    reps = np.flatnonzero(labels == np.arange(inst.point_count)).tolist()
    assert sorted(np.bincount(labels)[reps].tolist()) == list(orbit_lengths_by_scalar_bfs(inst))
    for rep in reps:
        orbit = scalar_orbit(inst, rep)
        assert min(orbit) == rep
        assert (labels[sorted(orbit)] == rep).all()


def test_orbit_length_check_survives_optimize_flag():
    # known_order 7 is wrong: the 8 nonzero vectors of GF(9) form one orbit
    script = (
        "from orbitforge.action import ActionInstance, SemilinearAction, enumerate_orbits\n"
        "from orbitforge.errors import ConstructionFailed\n"
        "from orbitforge.field import make_field\n"
        "inst = ActionInstance(SemilinearAction(make_field(3, 1, 2)), [(0, 1)], known_order=7)\n"
        "try:\n"
        "    enumerate_orbits(inst)\n"
        "except ConstructionFailed as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ConstructionFailed.__name__


# -- the quotient sweeps against the full-point sweep --

def full_sweep_report(inst):
    """inst's orbit report with its orbits taken from the full-point sweep."""
    def full_reps(instance):
        labels, _ = A._orbit_labels(instance)
        reps = np.flatnonzero(labels == np.arange(instance.point_count))
        return reps, np.bincount(labels)[reps]
    with mock.patch.object(A, "_orbit_reps", full_reps):
        return A.enumerate_orbits(inst).to_json_dict()


def quotient_report(inst):
    """inst's orbit report, and the number of full-point sweeps it took."""
    with mock.patch.object(A, "_orbit_labels", wraps=A._orbit_labels) as full:
        report = A.enumerate_orbits(inst).to_json_dict()
    return report, full.call_count


QUOTIENT_FIELDS = SEMILINEAR_FIELDS + [(2, 1, 6), (2, 1, 12), (3, 1, 4), (2, 2, 3)]


@st.composite
def semilinear_subgroups(draw):
    """Generators with scalars drawn from random subgroups <omega^c>, so the
    scalar kernel <omega^d> ranges from 1 (d = m) to everything (d = 1)."""
    ctx = make_field(*draw(st.sampled_from(QUOTIENT_FIELDS)))
    m = ctx.order
    divisors = [c for c in range(1, m + 1) if m % c == 0]
    gen = st.tuples(st.integers(0, ctx.n - 1),
                    st.builds(lambda e, c: e * c % m, st.integers(0, m - 1),
                              st.sampled_from(divisors)))
    return A.ActionInstance(A.SemilinearAction(ctx), draw(st.lists(gen, max_size=3)))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(semilinear_subgroups())
@hypothesis.example(A.ActionInstance(A.SemilinearAction(make_field(2, 1, 4)), [(1, 0)]))  # K = 1
@hypothesis.example(A.ActionInstance(A.SemilinearAction(make_field(2, 1, 6)), [(0, 1)]))  # d = 1
@hypothesis.example(A.ActionInstance(A.SemilinearAction(make_field(2, 1, 1)), [(0, 0)]))  # m = 1
def test_semilinear_quotient_matches_full_sweep(inst):
    report, full_sweeps = quotient_report(inst)
    assert full_sweeps == 0
    assert report == full_sweep_report(inst)


def test_semilinear_quotient_extremes():
    ctx = make_field(2, 1, 4)
    # (twist representatives, d)
    assert sl.schreier_kernel(ctx, [(1, 0)]) == ({t: (t, 0) for t in range(4)}, 15)  # K = 1: every point
    assert sl.schreier_kernel(ctx, [(0, 1)]) == ({0: (0, 0)}, 1)    # K is all scalars: one coset
    assert sl.schreier_kernel(ctx, [(2, 0), (0, 5)]) == ({0: (0, 0), 2: (2, 0)}, 5)


@st.composite
def wreath_specs(draw):
    """build_wreath specs: random inner generators and a random transitive top."""
    field, m = draw(st.sampled_from(WREATH_SHAPES))
    ctx = make_field(*field)
    inner = draw(st.lists(semilinear_maps(ctx), max_size=2))
    order = draw(st.permutations(range(m)))  # a random m-cycle keeps the top transitive
    cycle = [0] * m
    for a, b in zip(order, order[1:] + order[:1]):
        cycle[a] = b
    extra = draw(st.lists(st.permutations(range(m)).map(tuple), max_size=2))
    tops = draw(st.permutations([tuple(cycle)] + extra))
    return build_wreath(WreathSpec(ctx, tuple(inner), m, tuple(tops)))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(wreath_specs())
def test_wreath_quotient_matches_full_sweep(inst):
    report, full_sweeps = quotient_report(inst)
    assert full_sweeps == 0
    assert report == full_sweep_report(inst)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(small_instances().filter(lambda inst: inst.backend.kind != "semilinear"))
def test_matrix_and_specless_wreath_take_the_full_sweep(inst):
    report, full_sweeps = quotient_report(inst)
    assert full_sweeps == 1
    assert report == full_sweep_report(inst)


def test_full_matrix_sweep_of_2_to_the_20_points_in_bounded_memory(tmp_path):
    # one cyclic shift of GF(2)^20, swept over every point by the CLI in a
    # child that may grow its address space by 192 MiB after the imports;
    # permutation arrays from a d x N coordinate array needed about 505 MiB
    d = 20
    shift = [1 if (row - col) % d == 1 else 0 for row in range(d) for col in range(d)]
    spec = tmp_path / "shift.json"
    spec.write_text(json.dumps({"action": {"kind": "matrix", "dim": d}, "field": {"p": 2},
                                "generators": [shift]}))
    script = ("import re, resource, sys\n"
              "from orbitforge.cli import main\n"
              "status = open('/proc/self/status').read()\n"
              "limit = int(re.search(r'VmSize:\\s+(\\d+)', status).group(1)) * 1024 + (192 << 20)\n"
              "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
              f"sys.exit(main(['orbits', {str(spec)!r}]))\n")
    proc = run_with_src(["-c", script])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["group_order"] == 20
    assert len(doc["orbits"]) == 52488  # binary necklaces of length 20
