"""Builders for the concrete groups exercised by the test corpus.

Covers imprimitive wreath actions H wr S on block sums of GF(q^n), the
order-1152 central product inside GL(4,7) with its golden orbit lengths,
the appendix family of cyclic wreaths without regular orbits, and the
sign-pairing construction that upgrades a regular orbit of the base group
to a regular orbit of the full wreath group.
"""

from dataclasses import dataclass
from math import gcd

from . import field as F
from . import semilinear as sl
from .action import (
    ActionInstance,
    MatrixAction,
    WreathAction,
    WreathSpec,
    closure,
    enumerate_orbits,
    mat_identity,
    mat_kron,
)
from .arith import prime_factors
from .errors import (
    BaseStabilizerNontrivial,
    ConstructionFailed,
    ContextMismatch,
    DegenerateField,
    EvenCharacteristic,
    EvenOrder,
    GcdViolation,
    IntransitiveTop,
    PartitionStabilized,
    UnsupportedBackend,
)
from .field import ZERO, FieldContext, make_field
from .permutation import (
    PermGroup,
    identity_perm,
    is_transitive,
    points_to_mask,
    set_stabilizer_is_trivial,
    trivial_stabilizer_partition,
)

__all__ = [
    "WreathSpec", "build_wreath", "build_example1", "build_example2",
    "wolf_family", "WolfRecord",
    "SignAssignment", "orbit_sign_assignment", "sign_pairing_witness",
    "trivial_stabilizer_partition", "inner_orbit_map",
]


# -- wreath products --

def build_wreath(spec: WreathSpec) -> ActionInstance:
    """The full wreath product acting on m blocks of GF(q^n).

    Generators are the inner generators planted in block 1 plus the pure
    top permutations; with a transitive top these generate all of H wr S,
    so the group order is |H|^m * |S|, |H| from the instance's Schreier
    record of H.  The instance keeps spec as its wreath field.
    """
    ctx = spec.inner
    for g in spec.inner_gens:
        try:
            sl.validate_map(ctx, g)
        except Exception as exc:
            raise ContextMismatch(f"inner generator {g} does not fit {ctx!r}") from exc
    top = PermGroup(spec.m, spec.top_gens)
    if not is_transitive(top):
        raise IntransitiveTop(f"top generators {spec.top_gens} are not transitive on {spec.m} blocks")
    ident = identity_perm(spec.m)
    gens = [(tuple([g] + [sl.IDENTITY] * (spec.m - 1)), ident) for g in spec.inner_gens]
    gens += [(tuple([sl.IDENTITY] * spec.m), tuple(p)) for p in top.generators]
    instance = ActionInstance(WreathAction(ctx, spec.m), gens, wreath=spec)
    inner_order = sl.subgroup_order(ctx, spec.inner_gens, instance._schreier)
    instance.known_order = inner_order ** spec.m * top.order
    return instance


def build_example1() -> ActionInstance:
    """Z3 wr Z5 acting on five blocks of GF(4): odd order 1215 on 2^10 points."""
    ctx = make_field(2, 1, 2)
    cycle = tuple((i + 1) % 5 for i in range(5))
    return build_wreath(WreathSpec(ctx, ((0, 1),), 5, (cycle,)))


# -- the central product in GL(4,7) --

_EXAMPLE2_CACHE: list = []
# the generators a, b, n3, n2 of H <= GL(2, 7) in build_example2, row-major
EXAMPLE2_GENERATORS = ((0, 6, 1, 0), (2, 3, 3, 5), (0, 2, 3, 1), (1, 1, 1, 2))


def build_example2() -> ActionInstance:
    """The order-1152 subgroup of GL(4,7) built as a central product.

    The quaternion group Q is generated by a = [[0,-1],[1,0]] and
    b = [[2,3],[3,-2]] mod 7.  Two elements of its normalizer in GL(2,7)
    extend it: n3 = [[0,2],[3,1]] to order 24, then n2 = [[1,1],[1,2]] to
    the subgroup H of order 48 with center of order 2 and H/Q of symmetric
    type, the first such pair a scan of the normalizer finds (the tests
    repeat that scan).  Each of these properties is checked here.  Returns
    the group generated by h (x) I and I (x) h for the generators h of H.
    """
    if _EXAMPLE2_CACHE:
        return _EXAMPLE2_CACHE[0]
    p, dim = 7, 2
    h_gens = a, b, n3, n2 = EXAMPLE2_GENERATORS
    backend2 = MatrixAction(p, dim)
    q_group = closure(backend2, [a, b])
    if len(q_group) != 8 or not _is_quaternion8(q_group, backend2):
        raise ConstructionFailed("the seed matrices do not generate Q8")
    q_set = frozenset(q_group)
    if not all(_normalizes(n, q_group, q_set, backend2) for n in (n3, n2)):
        raise ConstructionFailed("the extending matrices do not normalize Q8")
    if len(closure(backend2, [a, b, n3])) != 24:
        raise ConstructionFailed("the third generator does not extend Q8 to order 24")
    h_group = closure(backend2, h_gens)
    if (len(h_group) != 48 or _center_size(h_group, backend2) != 2
            or _coset_order_profile(h_group, q_group, backend2) != (1, 2, 2, 2, 3, 3)):
        raise ConstructionFailed("the generators do not give the order-48 extension of Q8")

    ident = mat_identity(dim)
    backend4 = MatrixAction(p, dim * dim)
    gens = [mat_kron(h, ident, dim, dim, p) for h in h_gens]
    gens += [mat_kron(ident, h, dim, dim, p) for h in h_gens]
    order = len(closure(backend4, gens))
    if order != 1152:
        raise ConstructionFailed(f"central product has order {order}, expected 1152")
    instance = ActionInstance(backend4, gens, known_order=1152)
    _EXAMPLE2_CACHE.append(instance)
    return instance


def _is_quaternion8(group, backend) -> bool:
    involutions = [g for g in group if g != backend.identity
                   and backend.mul(g, g) == backend.identity]
    return len(involutions) == 1


def _normalizes(n, q_group, q_set, backend) -> bool:
    n_inv = backend.inv(n)
    return all(backend.mul(backend.mul(n, q), n_inv) in q_set for q in q_group)


def _center_size(group, backend) -> int:
    return sum(1 for z in group if all(backend.mul(z, g) == backend.mul(g, z) for g in group))


def _coset_order_profile(group, subgroup, backend) -> tuple[int, ...]:
    """Sorted element orders of group/subgroup (subgroup assumed normal)."""
    sub = frozenset(subgroup)
    coset_of = {}
    for g in group:
        key = min(backend.mul(q, g) for q in subgroup)
        coset_of[g] = key
    reps = sorted(set(coset_of.values()))
    ident_key = coset_of[backend.identity]
    profile = []
    for rep in reps:
        k, acc = 1, rep
        while coset_of[acc] != ident_key:
            acc = backend.mul(acc, rep)
            k += 1
        profile.append(k)
    return tuple(sorted(profile))


# -- the appendix family --

@dataclass(frozen=True)
class WolfRecord:
    """Verified claims for the cyclic-wreath family member."""
    field_size: int
    m: int
    group_order: int
    c_size: int
    c_orbit_confirmed: bool
    c_regular_primes: tuple[int, ...]   # primes dividing q^n - 1, all p-regular via C
    d_size: int
    d_orbit_confirmed: bool
    d_regular_primes: tuple[int, ...]   # primes dividing m, all p-regular via D
    p_regular_all: bool
    regular_exists: bool

    @property
    def all_claims_hold(self) -> bool:
        return (self.c_orbit_confirmed and self.d_orbit_confirmed
                and self.p_regular_all and not self.regular_exists)


def wolf_family(p: int, k: int, n: int, m: int, workers: int = 1) -> tuple[ActionInstance, WolfRecord]:
    """Full multiplicative group of GF(q^n) wreathed by Z_m, with checks.

    Requires q^n > 2, m > 1 and gcd(q^n - 1, m) = 1.  The returned record
    certifies: the all-nonzero set C is one orbit of size |G|/m and is
    p-regular for every prime dividing q^n - 1; the single-support orbit D
    has size m(q^n - 1) and is p-regular for every prime dividing m; every
    prime dividing |G| has a p-regular orbit; no regular orbit exists.
    workers has no effect.
    """
    del workers
    ctx = make_field(p, k, n)
    size = ctx.size
    if size <= 2:
        raise DegenerateField(f"field size {size} is degenerate; need q^n > 2")
    if m <= 1:
        raise DegenerateField(f"block count m = {m} is degenerate; need m > 1")
    if gcd(size - 1, m) != 1:
        raise GcdViolation(f"gcd({size - 1}, {m}) != 1")
    cycle = tuple((i + 1) % m for i in range(m))
    instance = build_wreath(WreathSpec(ctx, ((0, 1),), m, (cycle,)))
    report = enumerate_orbits(instance)
    order = instance.group_order
    expected = (size - 1) ** m * m
    if order != expected:
        raise ConstructionFailed(f"wreath group has order {order}, expected {expected}")

    c_size = (size - 1) ** m
    c_rep = sum(1 * size ** i for i in range(m))  # all-ones vector, minimal in C
    c_entry = next((o for o in report.orbits if o[1] == c_rep), None)
    c_ok = c_entry is not None and c_entry[0] == c_size == order // m
    c_primes = tuple(prime_factors(size - 1))
    c_ok = c_ok and all(c_entry[2] % q != 0 for q in c_primes)

    d_size = m * (size - 1)
    d_entry = next((o for o in report.orbits if o[1] == 1), None)  # (g^0, 0, ..., 0)
    d_ok = d_entry is not None and d_entry[0] == d_size
    d_primes = tuple(prime_factors(m))
    d_ok = d_ok and all(d_entry[2] % q != 0 for q in d_primes)

    record = WolfRecord(
        field_size=size, m=m, group_order=order,
        c_size=c_size, c_orbit_confirmed=bool(c_ok), c_regular_primes=c_primes,
        d_size=d_size, d_orbit_confirmed=bool(d_ok), d_regular_primes=d_primes,
        p_regular_all=all(report.p_regular.values()),
        regular_exists=report.regular_exists,
    )
    return instance, record


# -- sign pairing --

@dataclass(frozen=True)
class SignAssignment:
    """A sign for each orbit of the inner group on V \\ {0}, shared by all blocks.

    A pure top permutation carries block 1 to block i with the identity as
    its inner component, so every block inherits the signs of block 1;
    orbit(v) and orbit(-v) always carry opposite signs.
    """
    signs: dict[int, int]        # orbit representative -> +1/-1
    orbit_reps: dict[int, int]   # inner element exponent -> orbit representative

    def sign(self, block: int, element: int) -> int:
        """Sign of the inner orbit of a nonzero element in the given block (0-indexed)."""
        return self.signs[self.orbit_reps[element]]


def inner_orbit_map(ctx: FieldContext, inner_gens) -> dict[int, int]:
    """Map each nonzero field element to the minimum of its orbit under H = <inner_gens>.

    With (reps, d) = schreier_kernel(...), H is the union of the cosets
    u_t K and K adds the multiples of d to an exponent, so the orbit of x
    is the union of the classes u_t(x) + dZ and its minimum is the least
    u_t(x) mod d.
    """
    reps, d = sl.schreier_kernel(ctx, inner_gens)
    maps = tuple(reps.values())
    return {x: min(sl.apply_map(ctx, u, x) % d for u in maps) for x in ctx.nonzero()}


def orbit_sign_assignment(instance: ActionInstance) -> SignAssignment:
    """Signs for the inner orbits of a wreath instance, the same in every block.

    Requires odd inner order and odd characteristic so that orbits pair
    with their negatives without fixed points; pairing is anchored at the
    orbit of the minimal nonzero element of block 1, which is positive.
    """
    spec = _wreath_spec(instance)
    ctx = spec.inner
    if ctx.p == 2:
        raise EvenCharacteristic("sign pairing needs odd characteristic")
    inner_order = sl.subgroup_order(ctx, spec.inner_gens, instance._schreier)
    if inner_order % 2 == 0:
        raise EvenOrder(f"inner group order {inner_order} is even")
    reps = inner_orbit_map(ctx, spec.inner_gens)
    signs: dict[int, int] = {}
    for rep in sorted(set(reps.values())):
        if rep in signs:
            continue
        signs[rep] = 1
        paired = reps[F.neg(ctx, rep)]
        if paired == rep:
            raise ConstructionFailed("an orbit met its own negative; pairing broken")
        signs[paired] = -1
    return SignAssignment(signs=signs, orbit_reps=reps)


def _wreath_spec(instance: ActionInstance) -> WreathSpec:
    if instance.wreath is None:
        raise UnsupportedBackend("sign machinery needs an instance built by build_wreath")
    return instance.wreath


def sign_pairing_witness(instance: ActionInstance, z: tuple[int, ...],
                         partition: tuple[tuple[int, ...], tuple[int, ...]]) -> tuple[int, ...]:
    """A vector with trivial stabilizer in the whole wreath group.

    z must have all components nonzero with trivial inner stabilizers (a
    regular vector of the base group); partition = (A1, A2) splits the
    blocks (1-indexed) with Stab_S(A1) = 1.  Components in A1 are flipped
    into positive orbits and components in A2 into negative ones; the
    returned y is then checked to have a trivial stabilizer directly.
    """
    spec = _wreath_spec(instance)
    ctx = spec.inner
    assignment = orbit_sign_assignment(instance)  # validates parity too
    twist_reps, d = instance._schreier
    fixed = sl.stabilized_residues(ctx, twist_reps, d)
    top = PermGroup(spec.m, spec.top_gens)
    if top.order % 2 == 0:
        raise EvenOrder(f"top group order {top.order} is even")

    if len(z) != spec.m:
        raise BaseStabilizerNontrivial(f"z must have {spec.m} components")
    for zi in z:
        if zi == ZERO:
            raise BaseStabilizerNontrivial("a zero component is stabilized by the whole inner group")
        if fixed[zi % d]:
            raise BaseStabilizerNontrivial(f"component g^{zi} has a nontrivial inner stabilizer")

    a1, a2 = (tuple(sorted(partition[0])), tuple(sorted(partition[1])))
    blocks = set(range(1, spec.m + 1))
    if set(a1) | set(a2) != blocks or set(a1) & set(a2) or not a1 or (not a2 and spec.m > 1):
        raise PartitionStabilized(f"({a1}, {a2}) is not a valid partition of 1..{spec.m}")
    if not set_stabilizer_is_trivial(top, points_to_mask(a1)):
        raise PartitionStabilized(f"Stab_S({a1}) is nontrivial")

    reps = assignment.orbit_reps
    y = []
    for i in range(spec.m):
        want = 1 if (i + 1) in a1 else -1
        zi = z[i]
        y.append(zi if assignment.sign(i, zi) == want else F.neg(ctx, zi))
    y = tuple(y)

    # direct stabilizer check: the identity-permutation part is trivial by
    # the regularity of each component; any other pi in S can only fix y if
    # it matches inner orbits across all blocks
    for perm in top.elements:
        if perm == identity_perm(spec.m):
            continue
        if all(reps[y[perm[j]]] == reps[y[j]] for j in range(spec.m)):
            raise ConstructionFailed(f"sign construction failed: {perm} preserves the orbit pattern")
    return y
