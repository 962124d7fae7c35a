"""Independent oracles shared by the test modules.

Everything here is deliberately naive: products over Galois orbits, full
point scans for stabilizers, closure-based orders.  The library must agree
with these, never the other way around.
"""

from orbitforge import field as F
from orbitforge import semilinear as sl
from orbitforge.field import ZERO


def norm_by_product(ctx, s, y):
    """Norm as an explicit product over the order-s Galois subgroup."""
    acc = 0  # exponent of 1
    cur = y
    for _ in range(s):
        acc = F.mul(ctx, acc, cur)
        cur = F.frobenius(ctx, cur, ctx.n // s)
    return acc


def brute_force_has_regular_orbit(ctx, elems) -> bool:
    """Scan every vector of GF(q^n) for a trivial stabilizer."""
    nontrivial = [f for f in elems if f != sl.IDENTITY]
    for code in range(ctx.size):
        v = ZERO if code == 0 else code - 1
        if all(sl.apply_map(ctx, f, v) != v for f in nontrivial):
            return True
    return False


def point_stabilizer(backend, elements, code):
    return [g for g in elements if backend.act(g, code) == code]


def all_points(ctx):
    yield ZERO
    yield from ctx.nonzero()


def scalar_orbit(instance, seed):
    """The orbit of seed, walked through backend.act alone."""
    orbit = {seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for g in instance.generators:
            y = instance.backend.act(g, x)
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def orbit_lengths_by_scalar_bfs(instance):
    """Sorted orbit lengths from a point-by-point sweep through backend.act."""
    seen = set()
    lengths = []
    for seed in range(instance.point_count):
        if seed not in seen:
            orbit = scalar_orbit(instance, seed)
            seen |= orbit
            lengths.append(len(orbit))
    return tuple(sorted(lengths))
