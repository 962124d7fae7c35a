"""Upgrading a regular orbit of the base group to one of the full group.

Over odd characteristic with an odd-order inner group, each inner orbit
pairs with its negative.  Flip the components of a base-regular vector so
that blocks in A1 sit in positive orbits and blocks in A2 in negative
ones; since only the identity of the top group stabilizes A1, nothing can
permute the resulting pattern, and the flipped vector has a trivial
stabilizer in the whole wreath group.
"""

from orbitforge import field as F
from orbitforge.action import closure
from orbitforge.constructions import (
    WreathSpec,
    build_wreath,
    orbit_sign_assignment,
    sign_pairing_witness,
)
from orbitforge.field import make_field
from orbitforge.permutation import PermGroup, trivial_stabilizer_partition

ctx = make_field(11, 1, 1)
h = F.from_integer(ctx, 3)            # 3 generates the order-5 subgroup of GF(11)*
cycle = (1, 2, 0)
instance = build_wreath(WreathSpec(ctx, ((0, h),), 3, (cycle,)))
print(f"group: order {instance.group_order} on {instance.point_count} points")

assignment = orbit_sign_assignment(instance)
by_sign = {1: [], -1: []}
for v in ctx.nonzero():
    by_sign[assignment.sign(0, v)].append(F.to_integer(ctx, v))
print("positive orbit values:", sorted(by_sign[1]))
print("negative orbit values:", sorted(by_sign[-1]))

partition = trivial_stabilizer_partition(PermGroup(3, (cycle,)))
print("block partition with trivial set-stabilizer:", partition)

z = tuple(F.from_integer(ctx, v) for v in (1, 1, 2))
y = sign_pairing_witness(instance, z, partition)
print("base-regular z =", [F.to_integer(ctx, v) for v in z],
      "-> witness y =", [F.to_integer(ctx, v) for v in y])

# scan the whole group for elements fixing y, reading each element's image
# of y off its permutation array of the 11^3 points
code = sum((yi + 1) * 11 ** i for i, yi in enumerate(y))
stabilizer = [g for g in closure(instance.backend, instance.generators)
              if instance.backend.perm_array(g)[code] == code]
print("full-group stabilizer of y:", stabilizer, "(identity only)")
