"""Independent oracles shared by the test modules.

Everything here is deliberately naive: per-point actions by formula,
products over Galois orbits, full point scans for stabilizers,
closure-based orders, one loop step per field element, element-by-element
orders, normalizer scans, and the search's decision taken in its plainest
order.  The library must agree with these, never the other way around.
"""

import os
import subprocess
import sys
from itertools import product

import numpy as np

from orbitforge import constructions as C
from orbitforge import field as F
from orbitforge import permutation as P
from orbitforge import semilinear as sl
from orbitforge.action import (
    MatrixAction,
    SemilinearAction,
    closure,
    mat_det,
    orbit_implication_report,
)
from orbitforge.arith import is_prime
from orbitforge.errors import DegreeCapExceeded, EvenOrder, NoPartitionFound
from orbitforge.field import ZERO
from orbitforge.specfile import instance_to_spec


def norm_by_product(ctx, s, y):
    """Norm as an explicit product over the order-s Galois subgroup."""
    acc = 0  # exponent of 1
    cur = y
    for _ in range(s):
        acc = F.mul(ctx, acc, cur)
        cur = F.frobenius(ctx, cur, ctx.n // s)
    return acc


def field_tables_by_scalar_loop(poly, p):
    """(exp, log) tuples for GF(p)[x]/(poly), walking the powers of x one by one."""
    degree = len(poly) - 1
    size = p ** degree
    order = size - 1
    exp = [0] * order
    log = [ZERO] * size
    cur = 1
    if p == 2:
        # digits are bits: multiply by x = shift, reduce = xor with f
        poly_packed = sum(c << i for i, c in enumerate(poly))
        top = 1 << degree
        for e in range(order):
            exp[e] = cur
            log[cur] = e
            cur <<= 1
            if cur & top:
                cur ^= poly_packed
    else:
        # packed base-p digits never carry across positions under mod-p ops
        pd1 = p ** (degree - 1)
        nz = [(poly[i], p ** i) for i in range(degree) if poly[i]]
        for e in range(order):
            exp[e] = cur
            log[cur] = e
            lead, cur = divmod(cur, pd1)
            cur *= p
            if lead:
                for ci, wi in nz:
                    digit = (cur // wi) % p
                    cur += (((digit - lead * ci) % p) - digit) * wi
    assert cur == 1, "primitive element order mismatch"
    return tuple(exp), tuple(log)


def run_with_src(args):
    """Run the interpreter on args, importing orbitforge from src/."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def brute_force_has_regular_orbit(ctx, elems) -> bool:
    """Scan every vector of GF(q^n) for a trivial stabilizer."""
    nontrivial = [f for f in elems if f != sl.IDENTITY]
    for code in range(ctx.size):
        v = ZERO if code == 0 else code - 1
        if all(sl.apply_map(ctx, f, v) != v for f in nontrivial):
            return True
    return False


def act_by_formula(backend, g, code):
    """The image code of one point under g, from the backend's defining
    formula rather than its permutation array: a matrix acts on the base-p
    digits of the code, a semilinear map on the field element g^(code-1),
    and a wreath element's inner map j moves block j into block perm[j]."""
    if isinstance(backend, MatrixAction):
        p, d = backend.p, backend.dim
        vec = [code // p ** j % p for j in range(d)]
        return sum(sum(g[i * d + j] * vec[j] for j in range(d)) % p * p ** i for i in range(d))
    if isinstance(backend, SemilinearAction):
        ctx, comps, perm = backend.ctx, (g,), (0,)
    else:
        ctx, (comps, perm) = backend.inner, g
    f = ctx.size
    out = 0
    for j, c in enumerate(comps):
        x = code // f ** j % f
        w = sl.apply_map(ctx, c, ZERO if x == 0 else x - 1)
        out += (0 if w == ZERO else w + 1) * f ** perm[j]
    return out


def point_stabilizer(backend, elements, code):
    return [g for g in elements if act_by_formula(backend, g, code) == code]


def smallest_regular_point_by_scan(ctx, elems):
    """First point code whose stabilizer in the listed subgroup is trivial."""
    backend = SemilinearAction(ctx)
    return next((code for code in range(ctx.size)
                 if point_stabilizer(backend, elems, code) == [sl.IDENTITY]), None)


def inner_orbit_map_by_dfs(ctx, inner_elements):
    """Each nonzero field element -> the minimum of its orbit, by depth-first walks."""
    reps = {}
    for start in ctx.nonzero():
        if start in reps:
            continue
        orbit = set()
        frontier = [start]
        while frontier:
            v = frontier.pop()
            if v in orbit:
                continue
            orbit.add(v)
            frontier.extend(sl.apply_map(ctx, h, v) for h in inner_elements)
        rep = min(orbit)
        for v in orbit:
            reps[v] = rep
    return reps


def all_points(ctx):
    yield ZERO
    yield from ctx.nonzero()


def scalar_orbit(instance, seed):
    """The orbit of seed, walked through act_by_formula alone."""
    orbit = {seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for g in instance.generators:
            y = act_by_formula(instance.backend, g, x)
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def orbit_lengths_by_scalar_bfs(instance):
    """Sorted orbit lengths from a point-by-point sweep through act_by_formula."""
    seen = set()
    lengths = []
    for seed in range(instance.point_count):
        if seed not in seen:
            orbit = scalar_orbit(instance, seed)
            seen |= orbit
            lengths.append(len(orbit))
    return tuple(sorted(lengths))


def spin_rank_by_numpy(seed, mats, p, dim):
    """Dimension of the smallest invariant subspace containing seed, by
    row reduction over numpy arrays (mats are dim x dim arrays)."""
    basis = np.zeros((dim, dim), dtype=np.int64)
    pivots = []
    queue = [np.asarray(seed, dtype=np.int64)]
    while queue:
        vec = reduce_mod_basis(queue.pop(), basis, pivots, p)
        if not vec.any():
            continue
        lead = int(np.flatnonzero(vec)[0])
        vec = vec * pow(int(vec[lead]), -1, p) % p
        basis[len(pivots)] = vec
        pivots.append(lead)
        if len(pivots) == dim:
            return dim
        queue.extend((m @ vec) % p for m in mats)
    return len(pivots)


def reduce_mod_basis(vec, basis, pivots, p):
    vec = vec % p
    for row, lead in enumerate(pivots):
        c = int(vec[lead])
        if c:
            vec = (vec - c * basis[row]) % p
    return vec


def irreducible_by_exhaustive_spin(instance):
    """Spin one vector of every line (leading coordinate 1) of GF(p)^dim."""
    backend = instance.backend
    p, dim = backend.characteristic, backend.matrix_dim()
    mats = [np.array(backend.matrix_of(g), dtype=np.int64).reshape(dim, dim)
            for g in instance.generators]
    for code in range(1, p ** dim):
        vec = []
        rest = code
        for _ in range(dim):
            vec.append(rest % p)
            rest //= p
        if next(v for v in vec if v) != 1:
            continue
        if spin_rank_by_numpy(vec, mats, p, dim) < dim:
            return False
    return True


def perm_array_by_matmul(p, d, g):
    """MatrixAction's permutation array from the d x N coordinate array of
    every point, multiplied by g and packed again."""
    coords = np.empty((d, p ** d), dtype=np.int64)
    rest = np.arange(p ** d, dtype=np.int64)
    for i in range(d):
        coords[i] = rest % p
        rest = rest // p
    mat = np.array(g, dtype=np.int64).reshape(d, d)
    weights = np.array([p ** i for i in range(d)], dtype=np.int64)
    return weights @ (mat @ coords % p)


def outside_prime_orders_by_scan(ctx, elems):
    """Primes s such that the set has an element of order s outside the
    multiplications, from the order of every twisted element."""
    primes = set()
    for f in elems:
        if f[0] != 0:
            o = sl.element_order(ctx, f)
            if is_prime(o):
                primes.add(o)
    return tuple(sorted(primes))


def criterion_by_standardizing(ctx, elems):
    """The regular-orbit decision along the paper's route: standardize the
    listed subgroup A, then look for each norm-one subgroup N_s, listed
    element by element, among the multiplications of the conjugate.  The
    witness is the smallest regular point of A itself, read off the
    stabilized residues of its element list."""
    std = sl.standardize_subgroup(ctx, elems, assume_subgroup=True)
    b_exponents = {e for t, e in std.subgroup if t == 0}
    for s in outside_prime_orders_by_scan(ctx, std.subgroup):
        if all(e in b_exponents for e in sl.norm_one_subgroup(ctx, s).elements):
            return sl.RegularOrbitDecision(False, None, s, len(elems))
    if len(elems) == 1:
        return sl.RegularOrbitDecision(True, 0, None, 1)
    reps = {}
    for f in elems:
        reps.setdefault(f[0], f)
    d = max(ctx.order, 1) * len(reps) // len(elems)
    r = sl.stabilized_residues(ctx, reps, d).find(0)
    assert r >= 0, "the norm-one test affirmed a regular orbit but none was found"
    return sl.RegularOrbitDecision(True, r + 1, None, len(elems))


def general_linear(p, dim):
    """Every invertible dim x dim matrix over GF(p), as row-major tuples."""
    return [m for m in product(range(p), repeat=dim * dim) if mat_det(m, dim, p) != 0]


def example2_generators_by_scan():
    """Generators (a, b, n3, n2) of the order-48 subgroup H of GL(2,7) in
    Example 2, found by scanning the normalizer of Q = <a, b>: the first n3
    with |<Q, n3>| = 24, then the first n2 giving order 48, center of order
    2 and H/Q of symmetric type."""
    a, b = (0, 6, 1, 0), (2, 3, 3, 5)
    backend = MatrixAction(7, 2)
    q_group = closure(backend, [a, b])
    q_set = frozenset(q_group)
    normalizer = [n for n in general_linear(7, 2) if C._normalizes(n, q_group, q_set, backend)]
    for n3 in (n for n in normalizer if len(closure(backend, [a, b, n])) == 24):
        for n2 in normalizer:
            cand = closure(backend, [a, b, n3, n2])
            if (len(cand) == 48 and C._center_size(cand, backend) == 2
                    and C._coset_order_profile(cand, q_group, backend) == (1, 2, 2, 2, 3, 3)):
                return a, b, n3, n2
    return None


def kept_record_by_report(cfg, instance, index, source):
    """The search's decision on one sample in its plainest order: the parity
    of |G| from group_order, the characteristic, then the full report."""
    if cfg.odd_order is not None:
        if (instance.group_order % 2 == 1) != cfg.odd_order:
            return None
    if cfg.odd_characteristic is not None:
        if (instance.backend.characteristic % 2 == 1) != cfg.odd_characteristic:
            return None
    report = orbit_implication_report(instance)
    if not (report.faithful and report.irreducible):
        return None
    record = {"index": index, "source": source, "spec": instance_to_spec(instance)}
    record.update(report.to_json_dict())
    return record


def odd_part_by_powers(mul, identity, g):
    """g to the 2-part of its order, the order found by multiplying by g
    until the identity."""
    order, acc = 1, g
    while acc != identity:
        acc = mul(acc, g)
        order += 1
    while order % 2 == 0:
        g = mul(g, g)
        order //= 2
    return g


def power_set_regular_orbit_by_scan(group):
    """The least mask with a trivial set-stabilizer, by testing each mask
    against every listed element."""
    if group.degree > P.SUBSET_SCAN_DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {group.degree} exceeds the subset-scan cap")
    for mask in range(1 << group.degree):
        if P.set_stabilizer_is_trivial(group, mask):
            return P.mask_to_points(mask)
    return None


def trivial_stabilizer_partition_by_scan(group):
    """The least proper nonempty mask with a trivial set-stabilizer and its
    complement, by testing each mask against every listed element."""
    if group.order % 2 == 0:
        raise EvenOrder(f"group order {group.order} is even")
    if group.degree > P.SUBSET_SCAN_DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {group.degree} exceeds the subset-scan cap")
    full = (1 << group.degree) - 1
    for mask in range(1, full):
        if P.set_stabilizer_is_trivial(group, mask):
            return P.mask_to_points(mask), P.mask_to_points(full ^ mask)
    raise NoPartitionFound(f"no proper subset of {group.degree} points has a trivial stabilizer")
