"""Small permutation groups: elements, transitivity, power-set regular orbits.

Permutations on m points are tuples of images on 0..m-1 internally; the
serialized form is the 1-indexed one-line image list, e.g. [2, 3, 1] for
the 3-cycle.  Subsets of the point set are bitmasks with bit i standing
for point i+1, so the "smallest subset" is the smallest mask.  A mask is
also a vector of GF(2)^degree, bit i its coordinate i, on which g acts by
its permutation matrix; power-set orbits are that matrix group's orbits,
found by the orbit sweep of action under its point cap.
"""

from dataclasses import dataclass, field

from .errors import DegreeCapExceeded, EvenOrder, NoPartitionFound

SUBSET_SCAN_DEGREE_CAP = 20

Perm = tuple[int, ...]


def identity_perm(m: int) -> Perm:
    return tuple(range(m))


def compose_perm(a: Perm, b: Perm) -> Perm:
    """(a o b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def inverse_perm(a: Perm) -> Perm:
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def perm_from_one_line(images: list[int]) -> Perm:
    """Parse the 1-indexed one-line form, validating bijectivity."""
    m = len(images)
    if sorted(images) != list(range(1, m + 1)):
        raise ValueError(f"not a permutation of 1..{m}: {images}")
    return tuple(v - 1 for v in images)


def perm_to_one_line(p: Perm) -> list[int]:
    return [v + 1 for v in p]


@dataclass
class PermGroup:
    """A permutation group on {1..degree} given by generators."""
    degree: int
    generators: tuple[Perm, ...]
    _elements: tuple[Perm, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree {self.degree} is negative")
        self.generators = tuple(tuple(g) for g in self.generators)
        for g in self.generators:
            self.validate(g)

    @property
    def identity(self) -> Perm:
        return identity_perm(self.degree)

    def mul(self, a: Perm, b: Perm) -> Perm:
        return compose_perm(a, b)

    def validate(self, g) -> None:
        if sorted(g) != list(range(self.degree)):
            raise ValueError(f"generator {g} is not a permutation of degree {self.degree}")

    @property
    def elements(self) -> tuple[Perm, ...]:
        """Every element, sorted, listed by action.closure under its element cap."""
        if self._elements is None:
            from .action import closure  # action imports this module
            self._elements = closure(self, self.generators)
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements)


def cyclic_group(m: int) -> PermGroup:
    """The m-cycle (1 2 ... m) acting regularly when m >= 1."""
    if m == 1:
        return PermGroup(1, (identity_perm(1),))
    cycle = tuple((i + 1) % m for i in range(m))
    return PermGroup(m, (cycle,))


def cyclic_wreath(inner: int, outer: int) -> PermGroup:
    """Z_inner wr Z_outer in its imprimitive action on inner*outer points."""
    m = inner * outer
    block_cycle = list(range(m))
    for i in range(inner):
        block_cycle[i] = (i + 1) % inner
    shift = [(i + inner) % m for i in range(m)]
    return PermGroup(m, (tuple(block_cycle), tuple(shift)))


def is_transitive(group: PermGroup) -> bool:
    """True iff the orbit of point 1 is the whole point set."""
    seen = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for g in group.generators:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return len(seen) == group.degree


def subset_image(p: Perm, mask: int) -> int:
    out = 0
    rest = mask
    while rest:
        low = rest & -rest
        out |= 1 << p[low.bit_length() - 1]
        rest ^= low
    return out


def set_stabilizer_is_trivial(group: PermGroup, mask: int) -> bool:
    ident = identity_perm(group.degree)
    return all(subset_image(p, mask) != mask for p in group.elements if p != ident)


def _regular_subset_masks(group: PermGroup):
    """Least masks, ascending, of the subset orbits of length |G|: those of
    the sets with a trivial set-stabilizer.  g's GF(2) permutation matrix
    (column j is e_g(j)) moves mask codes as subset_image(g, .) does."""
    if group.degree > SUBSET_SCAN_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"degree {group.degree} exceeds the subset-scan cap {SUBSET_SCAN_DEGREE_CAP}")
    from .action import ActionInstance, MatrixAction, _orbit_reps  # action imports this module
    d = group.degree
    mats = [tuple(int(g[c] == r) for r in range(d) for c in range(d)) for g in group.generators]
    reps, sizes = _orbit_reps(ActionInstance(MatrixAction(2, d), mats, known_order=group.order))
    return reps[sizes == group.order]


def power_set_regular_orbit(group: PermGroup) -> tuple[int, ...] | None:
    """Smallest subset (binary-encoding order) with trivial set-stabilizer.

    Returns the subset as a sorted tuple of 1-indexed points, or None when
    no subset of the power set has a trivial stabilizer.
    """
    masks = _regular_subset_masks(group)
    return mask_to_points(int(masks[0])) if len(masks) else None


def mask_to_points(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def points_to_mask(points) -> int:
    mask = 0
    for pt in points:
        mask |= 1 << (pt - 1)
    return mask


def trivial_stabilizer_partition(group: PermGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the point set into nonempty A1, A2 with Stab(A1) trivial.

    A1 is the smallest subset in binary-encoding order, other than the
    empty and full sets, whose set-stabilizer is trivial.  For odd-order
    transitive groups one always exists; a failure therefore raises
    NoPartitionFound.
    """
    if group.order % 2 == 0:
        raise EvenOrder(f"group order {group.order} is even")
    full = (1 << group.degree) - 1
    mask = next((int(m) for m in _regular_subset_masks(group) if 0 < m < full), None)
    if mask is None:
        raise NoPartitionFound(
            f"no proper subset of {group.degree} points has a trivial stabilizer")
    return mask_to_points(mask), mask_to_points(full ^ mask)


__all__ = [
    "Perm", "PermGroup", "identity_perm", "compose_perm", "inverse_perm",
    "perm_from_one_line", "perm_to_one_line", "cyclic_group", "cyclic_wreath",
    "is_transitive", "subset_image", "set_stabilizer_is_trivial",
    "power_set_regular_orbit", "mask_to_points", "points_to_mask",
    "trivial_stabilizer_partition", "SUBSET_SCAN_DEGREE_CAP",
]
