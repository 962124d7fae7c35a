"""The semilinear group of GF(q^n) over GF(q) and its norm-one machinery.

A semilinear map is a pair (twist, scalar) acting on the field by
v -> a * v^(q^twist), with 0 -> 0.  The scalar a is a nonzero field element
stored as its exponent; twist is reduced mod n.  Maps with twist 0 are the
multiplications, which act fixed-point-freely on nonzero vectors; the full
group has order n * (q^n - 1).

On top of the group law this module provides the norm-one subgroup N of a
prime-order Galois subgroup, preimages under y -> sigma(y)/y, the prime
structure of N, and the paper's conjugation of a subgroup into a standard
position holding pure Galois elements.  The algebraic criterion deciding
whether a subgroup has a regular orbit, and the covering-prime certificate
for subgroups without one, read the subgroup's Schreier record: its twist
representatives and its scalar kernel K = <(0, d)>.
"""

from dataclasses import dataclass
from math import gcd

from . import config
from .arith import factorization, is_prime, solve_linear_congruence
from .errors import (
    ConstructionFailed,
    ElementCapExceeded,
    HasRegularOrbit,
    NotASubgroup,
    NotInGqn,
    NotInN,
    SNotDividingN,
)
from .field import ZERO, FieldContext

SemilinearMap = tuple[int, int]  # (twist, scalar exponent)

IDENTITY: SemilinearMap = (0, 0)


def validate_map(ctx: FieldContext, f: SemilinearMap) -> None:
    t, e = f
    if not (0 <= t < ctx.n and 0 <= e < ctx.order):
        raise NotInGqn(f"map {f} is not a valid element over {ctx!r}")


def compose(ctx: FieldContext, f: SemilinearMap, g: SemilinearMap) -> SemilinearMap:
    """(f o g)(v) = f(g(v)); the law is (t1+t2, a1 * a2^(q^t1))."""
    t1, e1 = f
    t2, e2 = g
    return ((t1 + t2) % ctx.n, (e1 + e2 * ctx.pow_q[t1]) % ctx.order)


def inverse(ctx: FieldContext, f: SemilinearMap) -> SemilinearMap:
    t, e = f
    ti = (ctx.n - t) % ctx.n
    return (ti, (-e * ctx.pow_q[ti]) % ctx.order)


def apply_map(ctx: FieldContext, f: SemilinearMap, v: int) -> int:
    """Image of the field element v (exponent form, ZERO for zero)."""
    if v == ZERO:
        return ZERO
    t, e = f
    return (v * ctx.pow_q[t] + e) % ctx.order


def element_order(ctx: FieldContext, f: SemilinearMap) -> int:
    k = 1
    acc = f
    while acc != IDENTITY:
        acc = compose(ctx, acc, f)
        k += 1
    return k


def conjugate_by_scalar(ctx: FieldContext, z: int, f: SemilinearMap) -> SemilinearMap:
    """z f z^{-1} where z is a nonzero field element (exponent form)."""
    t, e = f
    # scalar picks up z^(1 - q^t)
    return (t, (e + z * (1 - ctx.pow_q[t])) % ctx.order)


def scalar_maps(ctx: FieldContext) -> tuple[SemilinearMap, ...]:
    """The multiplication subgroup (twist 0), of order q^n - 1."""
    return tuple((0, e) for e in range(ctx.order))


def full_group(ctx: FieldContext) -> tuple[SemilinearMap, ...]:
    """All of the semilinear group, order n * (q^n - 1)."""
    return tuple((t, e) for t in range(ctx.n) for e in range(ctx.order))


def subgroup_closure(ctx: FieldContext, generators, cap: int | None = None) -> tuple[SemilinearMap, ...]:
    """Every element of H = <generators>, sorted canonically, without a search.

    With (reps, d) = schreier_kernel(...), Schreier's lemma gives H as the
    union of the cosets u_t K over the twist representatives u_t = (t, e_t),
    and u_t K = {(t, e) : e = e_t (mod d)} because q^t is a unit mod m.
    Raises ElementCapExceeded when |H| > cap, before listing anything.
    """
    if cap is None:
        cap = config.element_cap()
    gens = list(dict.fromkeys((int(g[0]), int(g[1])) for g in generators))
    for g in gens:
        validate_map(ctx, g)
    reps, d = schreier_kernel(ctx, gens)
    m = ctx.order
    if len(reps) * (m // d) > cap:
        raise ElementCapExceeded(f"closure exceeded the element cap {cap}")
    return tuple((t, e) for t in sorted(reps) for e in range(reps[t][1] % d, m, d))


def schreier_kernel(ctx: FieldContext, generators) -> tuple[dict[int, SemilinearMap], int]:
    """(reps, d) for H = <generators>, without listing H.

    Twists map H onto T <= Z_n, and reps holds one element u_t of H per
    twist t in T.  The scalar kernel is K = <(0, d)>, where
    d = gcd(m, exponents of its generators) divides m = q^n - 1, so
    |K| = m / d.  By Schreier's lemma the u_{t(gu)}^-1 g u generate K, over
    those u and the generators g.  K is normal in H, and H is the union of
    the cosets u_t K (Seress 2003, ch. 4).
    """
    m = ctx.order
    by_twist = {0: IDENTITY}
    walk = [IDENTITY]
    exponents = []
    for u in walk:  # grows while it is walked
        for g in generators:
            gu = compose(ctx, g, u)
            if gu[0] in by_twist:
                exponents.append(compose(ctx, inverse(ctx, by_twist[gu[0]]), gu)[1])
            else:
                by_twist[gu[0]] = gu
                walk.append(gu)
    return by_twist, gcd(m, *exponents)


def subgroup_order(ctx: FieldContext, generators, record=None) -> int:
    """|<generators>| = |T| * |K| from the Schreier kernel, without listing
    the subgroup: |K| = m / d with (reps, d) = record or schreier_kernel(...)."""
    reps, d = record or schreier_kernel(ctx, generators)
    return len(reps) * (ctx.order // d)


def stabilized_residues(ctx: FieldContext, reps: dict[int, SemilinearMap], d: int) -> bytearray:
    """Marks of the r in Z_d whose exponents r + dZ are fixed by a
    nontrivial map of H, with (reps, d) = schreier_kernel(...).

    Twist-0 maps other than the identity fix no nonzero vector.  The coset
    u_t K of u_t = (t, e_t), t != 0, fixes x exactly when
    x (q^t - 1) = -e_t (mod d): one progression of step d / gcd(q^t - 1, d),
    or none.
    """
    fixed = bytearray(d)
    for t, (_, e) in reps.items():
        if t == 0:
            continue
        a = ctx.pow_q[t] - 1
        x = solve_linear_congruence(a, -e, d)
        if x is not None:
            step = d // gcd(a, d)
            fixed[x::step] = b"\x01" * len(range(x, d, step))
    return fixed


def _record(ctx: FieldContext, elems) -> tuple[dict[int, SemilinearMap], int]:
    """(reps, d) of a listed subgroup A, as schreier_kernel(...) gives them:
    the first map of each twist, and d = m |T| / |A|."""
    reps: dict[int, SemilinearMap] = {}
    for f in elems:
        reps.setdefault(f[0], f)
    m = ctx.order
    d = m * len(reps) // len(elems)
    if d < 1 or m % d or len(reps) * (m // d) != len(elems):
        raise ConstructionFailed(f"{len(elems)} maps over {len(reps)} twists do not have "
                                 f"order |T| m / d for any d dividing m = {m}")
    return reps, d


def _smallest_regular_point(ctx: FieldContext, reps, d: int) -> int | None:
    """Smallest point code with trivial stabilizer, read off the stabilized
    residues: 0 for the trivial group, else the first unmarked r as r + 1."""
    if len(reps) == 1 and d == ctx.order:
        return 0
    r = stabilized_residues(ctx, reps, d).find(0)
    return r + 1 if r >= 0 else None


def _outside_primes(ctx: FieldContext, reps, d: int) -> tuple[int, ...]:
    """Primes s with an order-s map in H outside the multiplications: (t, e)
    of twist order s = n / gcd(t, n) has (t, e)^s = (0, e c), c = sum of
    q^(ti) over i < s, so u_t K = {(t, e_t + d j)} holds one iff s is prime
    and d c j = -e_t c (mod m) for some j.  Twist 0 gives s = 1."""
    primes = set()
    for t, (_, e) in reps.items():
        s = ctx.n // gcd(t, ctx.n)
        c = sum(ctx.pow_q[t * i % ctx.n] for i in range(s))
        if is_prime(s) and solve_linear_congruence(d * c, -e * c, ctx.order) is not None:
            primes.add(s)
    return tuple(sorted(primes))


def outside_prime_orders(ctx: FieldContext, elems) -> tuple[int, ...]:
    """Primes s with an order-s map of a listed subgroup outside the
    multiplications, read off its Schreier record."""
    return _outside_primes(ctx, *_record(ctx, tuple(elems)))


def _as_subgroup(ctx: FieldContext, maps, assume_subgroup: bool = False) -> tuple[SemilinearMap, ...]:
    elems = tuple(sorted({(int(f[0]), int(f[1])) for f in maps}))
    if not elems:
        raise NotASubgroup("empty set is not a subgroup")
    for f in elems:
        validate_map(ctx, f)
    # the maps lie in the group they generate: closed iff the orders agree
    if not assume_subgroup and (order := subgroup_order(ctx, elems)) != len(elems):
        raise NotASubgroup(f"the {len(elems)} maps generate a subgroup of order {order}")
    return elems


# -- norm-one subgroups --

@dataclass(frozen=True)
class NormOneSubgroup:
    """Kernel N of the norm of the order-s Galois subgroup, as exponents."""
    s: int
    order: int
    generator: int
    elements: tuple[int, ...]


def norm_one_subgroup(ctx: FieldContext, s: int) -> NormOneSubgroup:
    """N = {x : product of <sigma>-conjugates of x is 1}, sigma of order s.

    N is the unique subgroup of order (q^n - 1)/(q^(n/s) - 1) of the cyclic
    multiplicative group: exactly the exponent multiples of q^(n/s) - 1.
    """
    if not is_prime(s) or ctx.n % s != 0:
        raise SNotDividingN(f"s = {s} must be a prime dividing n = {ctx.n}")
    step = ctx.q ** (ctx.n // s) - 1
    size = ctx.order // step
    elements = tuple(range(0, ctx.order, step))
    if len(elements) != size:
        raise ConstructionFailed(f"norm-one subgroup has {len(elements)} elements, expected {size}")
    return NormOneSubgroup(s=s, order=size, generator=step if size > 1 else 0,
                           elements=elements)


def norm_kernel_preimage(ctx: FieldContext, s: int, x: int) -> int:
    """Smallest y (by exponent) with sigma(y)/y = x, sigma canonical of order s."""
    if not is_prime(s) or ctx.n % s != 0:
        raise SNotDividingN(f"s = {s} must be a prime dividing n = {ctx.n}")
    if x == ZERO:
        raise NotInN("zero is not in the norm-one subgroup")
    step = ctx.q ** (ctx.n // s) - 1
    y = solve_linear_congruence(step, x % ctx.order, ctx.order)
    if y is None:
        raise NotInN(f"element g^{x} has nontrivial norm")
    return y


@dataclass(frozen=True)
class PrimeEntry:
    prime: int
    multiplicity: int
    congruence_holds: bool       # prime == s or prime = 1 (mod s)
    witness: int | None          # exponent of an element of that prime order
    frobenius_confirmed: bool | None  # <sigma><b> is Frobenius with kernel <b>


@dataclass(frozen=True)
class NormPrimeAnalysis:
    s: int
    subgroup_order: int
    factors: tuple[PrimeEntry, ...]


def norm_subgroup_prime_analysis(ctx: FieldContext, s: int) -> NormPrimeAnalysis:
    """Prime factorization of |N| with the Frobenius-structure confirmations.

    For each prime r != s dividing |N| a witness b of order r is checked
    directly: no nonidentity power of sigma centralizes a nonidentity power
    of b under conjugation, so <sigma><b> is a Frobenius group of order s*r
    with kernel <b>.  Every r satisfies r >= s and r == s or r = 1 (mod s).
    """
    n_sub = norm_one_subgroup(ctx, s)
    entries = []
    for r, mult in sorted(factorization(n_sub.order).items()):
        cong = r >= s and (r == s or r % s == 1)
        if not cong:
            raise ConstructionFailed(f"prime structure violated: r={r}, s={s} over {ctx!r}")
        if r == s:
            entries.append(PrimeEntry(r, mult, cong, None, None))
            continue
        b = (n_sub.generator * (n_sub.order // r)) % ctx.order
        if element_order(ctx, (0, b)) != r:
            raise ConstructionFailed(f"witness g^{b} does not have order {r} over {ctx!r}")
        frob = _frobenius_pair_confirmed(ctx, s, b, r)
        if not frob:
            raise ConstructionFailed(f"Frobenius structure violated for r={r}, s={s} over {ctx!r}")
        entries.append(PrimeEntry(r, mult, cong, b, frob))
    return NormPrimeAnalysis(s=s, subgroup_order=n_sub.order, factors=tuple(entries))


def _frobenius_pair_confirmed(ctx: FieldContext, s: int, b: int, r: int) -> bool:
    """Check <sigma><b> has order s*r and sigma-powers centralize nothing in <b>."""
    sigma = (ctx.n // s, 0)
    elems = set()
    for i in range(s):
        for j in range(r):
            si = _map_power(ctx, sigma, i)
            bj = (0, (b * j) % ctx.order)
            elems.add(compose(ctx, si, bj))
    if len(elems) != s * r:
        return False
    for i in range(1, s):
        w = ctx.pow_q[(ctx.n // s) * i % ctx.n]
        for j in range(1, r):
            # sigma^i b^j sigma^-i = b^(j * q^((n/s) i)); centralized iff equal
            if (b * j * (w - 1)) % ctx.order == 0:
                return False
    return True


def _map_power(ctx: FieldContext, f: SemilinearMap, k: int) -> SemilinearMap:
    acc = IDENTITY
    for _ in range(k):
        acc = compose(ctx, acc, f)
    return acc


# -- standardization (conjugating Galois parts into pure position) --

@dataclass(frozen=True)
class Standardization:
    """A conjugate subgroup holding a pure Galois element per relevant prime."""
    subgroup: tuple[SemilinearMap, ...]
    conjugator: int                       # exponent z; A1 = z A z^{-1}
    pure_by_prime: dict[int, SemilinearMap]


def standardize_subgroup(ctx: FieldContext, maps, assume_subgroup: bool = False) -> Standardization:
    """Conjugate A inside the full group so that for every prime s with an
    order-s element outside the multiplications, the conjugate contains a
    pure Galois element of order s.

    Follows the iterative replacement scheme: primes are processed in
    increasing order, each step conjugating by a scalar z solved from
    (q^t - 1) * z = a in exponent form, with z constrained to the fixed
    field of the pure elements already secured.  A full scalar-conjugator
    scan is kept as a fallback; a failure of both would contradict the
    underlying theory and raises ConstructionFailed.
    """
    elems = _as_subgroup(ctx, maps, assume_subgroup)
    primes = outside_prime_orders(ctx, elems)
    work = list(elems)
    conj = 0  # exponent of the accumulated conjugator, 0 = identity scalar
    secured: dict[int, SemilinearMap] = {}
    fixed_deg = ctx.n  # z must lie in GF(q^fixed_deg)
    for s in primes:
        pure = _find_pure(ctx, work, s)
        if pure is None:
            z = _pure_making_conjugator(ctx, work, s, fixed_deg)
            if z is None:
                return _standardize_fallback(ctx, elems, primes)
            work = [conjugate_by_scalar(ctx, z, f) for f in work]
            conj = (conj + z) % ctx.order
            pure = _find_pure(ctx, work, s)
            if pure is None:
                raise ConstructionFailed(f"conjugating by g^{z} left no pure element of order {s}")
        secured[s] = pure
        fixed_deg = gcd(fixed_deg, gcd(pure[0], ctx.n))
    result = tuple(sorted(work))
    _check_standardized(ctx, result, primes)
    return Standardization(subgroup=result, conjugator=conj, pure_by_prime=secured)


def _find_pure(ctx: FieldContext, elems, s: int) -> SemilinearMap | None:
    for f in sorted(elems):
        if f[0] != 0 and f[1] == 0 and element_order(ctx, f) == s:
            return f
    return None


def _pure_making_conjugator(ctx: FieldContext, elems, s: int, fixed_deg: int) -> int | None:
    """Scalar z in GF(q^fixed_deg) conjugating some order-s element pure."""
    step = ctx.order // (ctx.q ** fixed_deg - 1)
    for t, e in sorted(elems):
        if t == 0 or element_order(ctx, (t, e)) != s:
            continue
        # z f z^{-1} pure needs (q^t - 1) * z = e (mod q^n - 1)
        z = solve_linear_congruence(ctx.pow_q[t] - 1, e, ctx.order, step=step)
        if z is not None:
            if z % step:
                raise ConstructionFailed(f"conjugator g^{z} lies outside GF(q^{fixed_deg})")
            return z
    return None


def _standardize_fallback(ctx: FieldContext, elems, primes) -> Standardization:
    for z in range(ctx.order):
        work = tuple(sorted(conjugate_by_scalar(ctx, z, f) for f in elems))
        secured = {}
        for s in primes:
            pure = _find_pure(ctx, work, s)
            if pure is None:
                break
            secured[s] = pure
        else:
            return Standardization(subgroup=work, conjugator=z, pure_by_prime=secured)
    raise ConstructionFailed(f"no scalar conjugate of the subgroup is standard over {ctx!r}")


def _check_standardized(ctx: FieldContext, elems, primes) -> None:
    for s in primes:
        if _find_pure(ctx, elems, s) is None:
            raise ConstructionFailed(f"standardization left no pure element of order {s}")


# -- the regular-orbit criterion and the covering certificate --

@dataclass(frozen=True)
class RegularOrbitDecision:
    """Outcome of the algebraic regular-orbit test for A acting on GF(q^n).

    When a regular orbit exists, regular_vector is the smallest point code
    (0 for the zero vector, e+1 for g^e) with trivial stabilizer; otherwise
    failing_prime is a prime s whose norm-one subgroup lies inside
    A intersect (multiplications).
    """
    has_regular_orbit: bool
    regular_vector: int | None
    failing_prime: int | None
    subgroup_order: int

    def to_json_dict(self) -> dict:
        return {
            "has_regular_orbit": self.has_regular_orbit,
            "regular_vector": self.regular_vector,
            "failing_prime": self.failing_prime,
            "subgroup_order": self.subgroup_order,
        }


def regular_orbit_criterion(ctx: FieldContext, maps, assume_subgroup: bool = False,
                            workers: int = 1) -> RegularOrbitDecision:
    """Decide whether the subgroup has a regular orbit on GF(q^n).

    The decision reads the Schreier record (reps, d) of A: no regular orbit
    iff some outside prime s (an order-s map of A twists) has N_s =
    <g^(q^(n/s) - 1)> in B = A intersect (multiplications) = <g^d>, that is
    d | q^(n/s) - 1; the least such s fails.  Scalar conjugation fixes B and
    those primes, so the paper's standardization (standardize_subgroup,
    checked against this by the tests) is not needed.  The witness is the
    smallest regular point of A, read off the stabilized residues;
    ConstructionFailed if the two disagree.  workers has no effect.
    """
    del workers
    return _criterion(ctx, *_record(ctx, _as_subgroup(ctx, maps, assume_subgroup)))


def _criterion(ctx: FieldContext, reps, d: int) -> RegularOrbitDecision:
    """regular_orbit_criterion on a record (reps, d) from _record or schreier_kernel;
    the cosets u_t K, and so the answer, do not depend on which u_t is kept."""
    witness = _smallest_regular_point(ctx, reps, d)
    failing = next((s for s in _outside_primes(ctx, reps, d)
                    if (ctx.q ** (ctx.n // s) - 1) % d == 0), None)
    if (witness is None) == (failing is None):
        raise ConstructionFailed(f"failing prime {failing} and smallest regular point "
                                 f"{witness} contradict each other")
    return RegularOrbitDecision(failing is None, witness, failing,
                                len(reps) * (ctx.order // d))


@dataclass(frozen=True)
class CoveringWitness:
    """For each point of GF(q^n), an order-s element of A fixing it."""
    prime: int
    fixers: tuple[SemilinearMap, ...]  # indexed by point code


def covering_prime_witness(ctx: FieldContext, maps, assume_subgroup: bool = False,
                           workers: int = 1) -> CoveringWitness:
    """Certificate that a single prime s covers every vector with a fixer.

    Requires the subgroup to have no regular orbit (checked on the
    stabilized residues, raising HasRegularOrbit otherwise).  Returns the
    smallest prime s for which every point of the field is fixed by some
    order-s element, with the first such element per point.  workers has
    no effect.
    """
    del workers
    elems = _as_subgroup(ctx, maps, assume_subgroup)
    reps, d = _record(ctx, elems)
    if _smallest_regular_point(ctx, reps, d) is not None:
        raise HasRegularOrbit("the subgroup has a regular orbit; no covering prime exists")
    orders = {f: element_order(ctx, f) for f in elems}
    for s in _outside_primes(ctx, reps, d):
        of_order_s = [f for f in elems if orders[f] == s]
        fixers = []
        for code in range(ctx.size):
            v = code - 1  # code 0 is ZERO
            fixer = next((f for f in of_order_s if apply_map(ctx, f, v) == v), None)
            if fixer is None:
                break
            fixers.append(fixer)
        else:
            return CoveringWitness(prime=s, fixers=tuple(fixers))
    raise ConstructionFailed("no covering prime found; contradicts the covering theorem")


# -- exhaustive survey of 1- and 2-generated subgroups (for small fields) --

def small_subgroup_survey(ctx: FieldContext) -> list[tuple[tuple[SemilinearMap, ...], tuple[SemilinearMap, ...]]]:
    """Every subgroup of the full semilinear group generated by at most two
    elements, as (elements, generators) pairs with canonical generators.

    Pairs (a, b) with a <= b run in the order of the sorted full group, and
    the first pair to generate a subgroup names it.  Every subgroup is
    listed by subgroup_closure, capped at the full group's order.
    """
    els = full_group(ctx)
    cap = len(els)
    # <a, b> depends only on <a> | <b>, so generating pairs whose cyclic
    # subgroups repeat an earlier pair can be skipped outright
    cyclic_key: dict[tuple, int] = {}
    cyclic_id = [cyclic_key.setdefault(subgroup_closure(ctx, [g], cap), len(cyclic_key))
                 for g in els]
    seen_pairs: set[tuple[int, int]] = set()
    seen: dict[tuple, tuple] = {}
    for i, a in enumerate(els):
        for j in range(i, len(els)):
            pair = (min(cyclic_id[i], cyclic_id[j]), max(cyclic_id[i], cyclic_id[j]))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            elements = subgroup_closure(ctx, [a, els[j]], cap)
            seen.setdefault(elements, (elements, (a, els[j])))
    return list(seen.values())


def gn_subgroup(ctx: FieldContext, s: int) -> tuple[SemilinearMap, ...]:
    """The obstruction group: order-s Galois subgroup extending the norm-one N."""
    n_sub = norm_one_subgroup(ctx, s)
    twists = range(0, ctx.n, ctx.n // s)
    return tuple(sorted((t, e) for t in twists for e in n_sub.elements))


__all__ = [
    "SemilinearMap", "IDENTITY", "compose", "inverse", "apply_map",
    "element_order", "conjugate_by_scalar", "scalar_maps",
    "full_group", "subgroup_closure", "schreier_kernel", "subgroup_order",
    "stabilized_residues", "gn_subgroup",
    "NormOneSubgroup", "norm_one_subgroup", "norm_kernel_preimage",
    "NormPrimeAnalysis", "PrimeEntry", "norm_subgroup_prime_analysis",
    "Standardization", "standardize_subgroup", "outside_prime_orders",
    "RegularOrbitDecision", "regular_orbit_criterion",
    "CoveringWitness", "covering_prime_witness",
    "small_subgroup_survey",
]
