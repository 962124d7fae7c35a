import random
import time

import pytest

from orbitforge import field as F
from orbitforge import semilinear as sl
from orbitforge.arith import is_prime
from orbitforge.errors import (
    HasRegularOrbit,
    NotASubgroup,
    NotInGqn,
    NotInN,
    SNotDividingN,
)
from orbitforge.field import ZERO, make_field

from helpers import (
    brute_force_has_regular_orbit,
    criterion_by_standardizing,
    outside_prime_orders_by_scan,
)


def test_compose_identity():
    ctx = make_field(2, 1, 4)
    for g in sl.full_group(ctx)[:20]:
        assert sl.compose(ctx, sl.IDENTITY, g) == g
        assert sl.compose(ctx, g, sl.IDENTITY) == g


def test_compose_gf4_frobenius_square():
    ctx = make_field(2, 1, 2)
    f = (1, 1)  # v -> g * v^2
    assert sl.compose(ctx, f, f) == (0, 0)
    for v in ctx.elements():
        assert sl.apply_map(ctx, sl.compose(ctx, f, f), v) == \
            sl.apply_map(ctx, f, sl.apply_map(ctx, f, v))


def test_inverse_random_gf81():
    ctx = make_field(3, 1, 4)
    rng = random.Random(3)
    group = sl.full_group(ctx)
    for _ in range(50):
        f = rng.choice(group)
        assert sl.compose(ctx, f, sl.inverse(ctx, f)) == sl.IDENTITY


def test_composition_law_matches_pointwise_action():
    for (p, k, n) in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)]:
        ctx = make_field(p, k, n)
        group = sl.full_group(ctx)
        for f in group:
            for g in group:
                c = sl.compose(ctx, f, g)
                for v in ctx.elements():
                    assert sl.apply_map(ctx, c, v) == sl.apply_map(ctx, f, sl.apply_map(ctx, g, v))


def test_scalar_maps_act_freely():
    ctx = make_field(3, 1, 2)
    for f in sl.scalar_maps(ctx):
        if f == sl.IDENTITY:
            continue
        for v in ctx.nonzero():
            assert sl.apply_map(ctx, f, v) != v


def test_norm_one_subgroup_sizes():
    assert sl.norm_one_subgroup(make_field(2, 1, 2), 2).order == 3   # 3/1
    assert sl.norm_one_subgroup(make_field(2, 1, 4), 2).order == 5   # 15/3
    assert sl.norm_one_subgroup(make_field(3, 1, 2), 2).order == 4   # 8/2
    assert sl.norm_one_subgroup(make_field(2, 1, 6), 3).order == 21  # 63/3


def test_norm_one_subgroup_elementwise_gf9():
    ctx = make_field(3, 1, 2)
    n_sub = sl.norm_one_subgroup(ctx, 2)
    members = set(n_sub.elements)
    for x in ctx.nonzero():
        assert (x in members) == (F.norm_map(ctx, 2, x) == 0)


def test_norm_one_generator_generates():
    ctx = make_field(2, 1, 6)
    n_sub = sl.norm_one_subgroup(ctx, 3)
    acc, seen = 0, set()
    for _ in range(n_sub.order):
        seen.add(acc)
        acc = F.mul(ctx, acc, n_sub.generator)
    assert seen == set(n_sub.elements)


def test_norm_kernel_preimage_examples():
    ctx4 = make_field(2, 1, 2)
    assert sl.norm_kernel_preimage(ctx4, 2, 0) == 0  # x = 1 -> y = 1
    assert sl.norm_kernel_preimage(ctx4, 2, 1) == 1  # x = g -> y = g
    ctx16 = make_field(2, 1, 4)
    for x in sl.norm_one_subgroup(ctx16, 2).elements:
        y = sl.norm_kernel_preimage(ctx16, 2, x)
        sigma_y = F.frobenius(ctx16, y, ctx16.n // 2)
        assert F.div(ctx16, sigma_y, y) == x


def test_norm_kernel_preimage_minimality_and_errors():
    ctx = make_field(2, 1, 4)
    for x in sl.norm_one_subgroup(ctx, 2).elements:
        y = sl.norm_kernel_preimage(ctx, 2, x)
        for smaller in range(y):
            sigma = F.frobenius(ctx, smaller, ctx.n // 2)
            assert F.div(ctx, sigma, smaller) != x
    with pytest.raises(NotInN):
        sl.norm_kernel_preimage(ctx, 2, 1)  # g has norm g^5 != 1
    with pytest.raises(NotInN):
        sl.norm_kernel_preimage(ctx, 2, ZERO)
    with pytest.raises(SNotDividingN):
        sl.norm_kernel_preimage(ctx, 3, 0)


def test_prime_analysis_gf16():
    rec = sl.norm_subgroup_prime_analysis(make_field(2, 1, 4), 2)
    assert rec.subgroup_order == 5
    (entry,) = rec.factors
    assert entry.prime == 5 and entry.congruence_holds and entry.frobenius_confirmed


def test_prime_analysis_gf4():
    rec = sl.norm_subgroup_prime_analysis(make_field(2, 1, 2), 2)
    assert rec.subgroup_order == 3
    assert rec.factors[0].prime == 3 and rec.factors[0].congruence_holds


def test_prime_analysis_gf64_s3():
    rec = sl.norm_subgroup_prime_analysis(make_field(2, 1, 6), 3)
    assert rec.subgroup_order == 21
    assert [e.prime for e in rec.factors] == [3, 7]
    seven = rec.factors[1]
    assert seven.congruence_holds and seven.frobenius_confirmed  # 7 = 1 (mod 3)


def test_gn_subgroup_structure():
    # every element outside N has order exactly s and N is cyclic normal of
    # index s, over the whole grid of contexts with |GN| <= 10^4
    from orbitforge.arith import is_prime as _is_prime, prime_factors
    checked = 0
    for p in (x for x in range(2, 257) if _is_prime(x)):
        if p * p > 2 ** 16:
            break
        k = 1
        while p ** (2 * k) <= 2 ** 16:
            n = 2
            while p ** (k * n) <= 2 ** 16:
                ctx = make_field(p, k, n)
                for s in prime_factors(n):
                    n_sub = sl.norm_one_subgroup(ctx, s)
                    if s * n_sub.order > 10 ** 4:
                        continue
                    gn = sl.gn_subgroup(ctx, s)
                    assert len(gn) == s * n_sub.order
                    for f in gn:
                        if f[0] != 0:
                            assert sl.element_order(ctx, f) == s, (p, k, n, s, f)
                    checked += 1
                    if len(gn) <= 500:
                        members = set(gn)
                        n_maps = {(0, e) for e in n_sub.elements}
                        for f in gn:
                            assert sl.compose(ctx, f, f) in members
                            f_inv = sl.inverse(ctx, f)
                            for x in n_maps:
                                assert sl.compose(ctx, sl.compose(ctx, f, x), f_inv) in n_maps
                n += 1
            k += 1
    assert checked >= 100


def test_gn_subgroup_equals_closure_of_sigma_and_norm_generator():
    for (p_, k, n, s) in [(2, 1, 4, 2), (2, 1, 6, 2), (2, 1, 6, 3), (3, 1, 4, 2)]:
        ctx = make_field(p_, k, n)
        n_sub = sl.norm_one_subgroup(ctx, s)
        generated = sl.subgroup_closure(ctx, [(ctx.n // s, 0), (0, n_sub.generator)])
        assert generated == sl.gn_subgroup(ctx, s)


def test_standardize_two_primes_simultaneously():
    # a subgroup of G(2^6) with twisted elements of orders 2 and 3: one
    # conjugate must hold pure Galois elements for both primes at once
    ctx = make_field(2, 1, 6)
    sub = sl.subgroup_closure(ctx, [(3, 21), (2, 9)])
    primes = sl.outside_prime_orders(ctx, sub)
    std = sl.standardize_subgroup(ctx, sub)
    for s in primes:
        pure = std.pure_by_prime[s]
        assert pure[1] == 0 and sl.element_order(ctx, pure) == s
        assert pure in std.subgroup
    conj = tuple(sorted(sl.conjugate_by_scalar(ctx, std.conjugator, f) for f in sub))
    assert conj == std.subgroup


def test_standardize_larger_fields_random():
    rng = random.Random(23)
    for (p_, k, n) in [(3, 1, 4), (2, 1, 8), (2, 2, 4), (2, 1, 6)]:
        ctx = make_field(p_, k, n)
        for _ in range(8):
            gens = [(rng.randrange(ctx.n), rng.randrange(ctx.order))
                    for _ in range(rng.randint(1, 2))]
            sub = sl.subgroup_closure(ctx, gens)
            if len(sub) > 3000:
                continue
            std = sl.standardize_subgroup(ctx, sub, assume_subgroup=True)
            conj = tuple(sorted(sl.conjugate_by_scalar(ctx, std.conjugator, f) for f in sub))
            assert conj == std.subgroup
            for s in sl.outside_prime_orders(ctx, sub):
                assert sl.element_order(ctx, std.pure_by_prime[s]) == s


def test_standardize_single_twisted_generator():
    ctx = make_field(2, 1, 2)
    sub = sl.subgroup_closure(ctx, [(1, 1)])
    std = sl.standardize_subgroup(ctx, sub)
    assert std.conjugator == 1  # z = g
    assert (1, 0) in std.subgroup
    assert std.pure_by_prime == {2: (1, 0)}


def test_standardize_scalar_subgroup_is_fixed():
    ctx = make_field(2, 1, 2)
    sub = sl.subgroup_closure(ctx, [(0, 1)])
    std = sl.standardize_subgroup(ctx, sub)
    assert std.conjugator == 0 and std.subgroup == sub


def test_standardize_gn_already_standard():
    ctx = make_field(2, 1, 4)
    gn = sl.gn_subgroup(ctx, 2)
    std = sl.standardize_subgroup(ctx, gn)
    assert std.conjugator == 0
    assert std.subgroup == gn
    assert std.pure_by_prime[2] == (2, 0)


def test_standardize_soundness_random():
    # conjugation by the returned scalar maps the input onto the output
    rng = random.Random(11)
    for (p, k, n) in [(2, 1, 4), (3, 1, 2), (2, 1, 6), (2, 2, 2)]:
        ctx = make_field(p, k, n)
        group = sl.full_group(ctx)
        for _ in range(12):
            gens = [rng.choice(group) for _ in range(rng.randint(1, 2))]
            sub = sl.subgroup_closure(ctx, gens)
            std = sl.standardize_subgroup(ctx, sub)
            assert len(std.subgroup) == len(sub)
            conj = tuple(sorted(sl.conjugate_by_scalar(ctx, std.conjugator, f) for f in sub))
            assert conj == std.subgroup
            for s in sl.outside_prime_orders(ctx, sub):
                pure = std.pure_by_prime[s]
                assert pure[1] == 0 and pure[0] != 0
                assert sl.element_order(ctx, pure) == s


def test_standardize_fallback_agrees_with_primary_path():
    # the exhaustive-conjugator fallback must satisfy the same contract
    from orbitforge.semilinear import _standardize_fallback
    for (p_, k, n) in [(2, 1, 2), (2, 1, 4), (2, 1, 6), (3, 1, 2)]:
        ctx = make_field(p_, k, n)
        for gens in [[(1, 1)], [(ctx.n // 2, 1), (0, 1)]]:
            sub = sl.subgroup_closure(ctx, gens)
            primes = sl.outside_prime_orders(ctx, sub)
            std = _standardize_fallback(ctx, sub, primes)
            conj = tuple(sorted(sl.conjugate_by_scalar(ctx, std.conjugator, f) for f in sub))
            assert conj == std.subgroup
            for s in primes:
                assert sl.element_order(ctx, std.pure_by_prime[s]) == s
                assert std.pure_by_prime[s][1] == 0


def test_not_a_subgroup_rejected():
    ctx = make_field(2, 1, 4)
    with pytest.raises(NotASubgroup):
        sl.standardize_subgroup(ctx, [(0, 1)])  # not closed
    with pytest.raises(NotASubgroup):
        sl.regular_orbit_criterion(ctx, [(0, 1), (0, 2)])
    with pytest.raises(NotInGqn):
        sl.standardize_subgroup(ctx, [(0, 99)])


def test_criterion_scalar_group_free_action():
    ctx = make_field(2, 1, 4)
    dec = sl.regular_orbit_criterion(ctx, sl.scalar_maps(ctx))
    assert dec.has_regular_orbit and dec.regular_vector == 1  # smallest nonzero point


def test_criterion_full_gamma_gf4():
    ctx = make_field(2, 1, 2)
    dec = sl.regular_orbit_criterion(ctx, sl.full_group(ctx))
    assert not dec.has_regular_orbit and dec.failing_prime == 2
    assert not brute_force_has_regular_orbit(ctx, sl.full_group(ctx))


def test_criterion_gn16():
    ctx = make_field(2, 1, 4)
    dec = sl.regular_orbit_criterion(ctx, sl.gn_subgroup(ctx, 2))
    assert not dec.has_regular_orbit and dec.failing_prime == 2


def test_criterion_witness_is_smallest():
    ctx = make_field(3, 1, 2)
    sub = sl.subgroup_closure(ctx, [(1, 0)])  # pure Frobenius, fixes GF(3)
    dec = sl.regular_orbit_criterion(ctx, sub)
    assert dec.has_regular_orbit
    # the witness must be the first point (code order) with trivial stabilizer
    for code in range(dec.regular_vector):
        v = ZERO if code == 0 else code - 1
        assert any(sl.apply_map(ctx, f, v) == v for f in sub if f != sl.IDENTITY)


def test_criterion_witness_is_a_point_of_the_subgroup_itself():
    # <(1, 1)> over GF(16) is not standard; its conjugate's smallest regular
    # point is code 2, but code 1 is regular for the subgroup itself
    ctx = make_field(2, 1, 4)
    dec = sl.regular_orbit_criterion(ctx, sl.subgroup_closure(ctx, [(1, 1)]))
    assert dec.has_regular_orbit and dec.regular_vector == 1


def test_criterion_workers_agree():
    ctx = make_field(3, 1, 4)
    sub = sl.subgroup_closure(ctx, [(0, 16)])
    one = sl.regular_orbit_criterion(ctx, sub, workers=1)
    many = sl.regular_orbit_criterion(ctx, sub, workers=8)
    assert one == many


def test_covering_witness_full_gamma_gf4():
    ctx = make_field(2, 1, 2)
    wit = sl.covering_prime_witness(ctx, sl.full_group(ctx))
    assert wit.prime == 2 and len(wit.fixers) == 4
    for code, fx in enumerate(wit.fixers):
        v = ZERO if code == 0 else code - 1
        assert sl.apply_map(ctx, fx, v) == v
        assert sl.element_order(ctx, fx) == 2


def test_covering_witness_gn16():
    ctx = make_field(2, 1, 4)
    wit = sl.covering_prime_witness(ctx, sl.gn_subgroup(ctx, 2))
    assert wit.prime == 2 and len(wit.fixers) == 16
    for code, fx in enumerate(wit.fixers):
        v = ZERO if code == 0 else code - 1
        assert sl.apply_map(ctx, fx, v) == v


def test_covering_witness_rejects_free_action():
    ctx = make_field(3, 1, 2)
    with pytest.raises(HasRegularOrbit):
        sl.covering_prime_witness(ctx, sl.scalar_maps(ctx))


def test_covering_witness_workers_agree():
    ctx = make_field(2, 1, 4)
    gn = sl.gn_subgroup(ctx, 2)
    assert sl.covering_prime_witness(ctx, gn, workers=1) == \
        sl.covering_prime_witness(ctx, gn, workers=8)


def test_criterion_matches_brute_force_small_fields():
    # the full grid lives in the acceptance suite; spot-check three fields here
    for (p, k, n) in [(2, 1, 2), (2, 1, 3), (3, 1, 2)]:
        ctx = make_field(p, k, n)
        for elements, gens in sl.small_subgroup_survey(ctx):
            dec = sl.regular_orbit_criterion(ctx, elements, assume_subgroup=True)
            assert dec.has_regular_orbit == brute_force_has_regular_orbit(ctx, elements), gens


SURVEY_FIELDS = [(p, k, n) for p in range(2, 129) if is_prime(p)
                 for k in range(1, 8) for n in range(1, 8) if p ** (k * n) <= 128]


def test_criterion_matches_standardizing_oracle_on_surveys():
    # every subgroup of the survey of every field of at most 128 elements
    checked = 0
    for fld in SURVEY_FIELDS:
        ctx = make_field(*fld)
        for elements, gens in sl.small_subgroup_survey(ctx):
            decision = sl.regular_orbit_criterion(ctx, elements, assume_subgroup=True)
            assert decision == criterion_by_standardizing(ctx, elements), (fld, gens)
            assert sl.outside_prime_orders(ctx, elements) == \
                outside_prime_orders_by_scan(ctx, elements), (fld, gens)
            checked += 1
    assert checked > 1000


def _random_generators(rng, ctx):
    """One or two maps whose subgroup has a small scalar kernel, or, as in
    the obstruction group G_s N_s, an order-s twist beside a subgroup of N_s."""
    n, m = ctx.n, ctx.order
    small = [c for c in range(1, m + 1) if m % c == 0 and m // c <= 300]
    scalar = [(rng.randrange(n), rng.randrange(m) * rng.choice(small) % m)
              for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.5:
        return scalar
    s = rng.choice([s for s in (2, 3) if n % s == 0])
    step = ctx.q ** (n // s) - 1
    twist = n // s * rng.randrange(1, s)
    e = step * rng.randrange(m // step) if rng.random() < 0.5 else scalar[0][1]
    return [(twist, e), (0, step * rng.choice([1, 1, 2, 3]) % m)]


def test_criterion_matches_standardizing_oracle_on_large_fields():
    rng = random.Random(20261020)
    for fld in [(2, 1, 16), (3, 1, 8), (5, 1, 6)]:
        ctx = make_field(*fld)
        outcomes = set()
        checked = 0
        while checked < 16:
            gens = _random_generators(rng, ctx)
            if sl.subgroup_order(ctx, gens) > 3000:
                continue
            elements = sl.subgroup_closure(ctx, gens)
            decision = sl.regular_orbit_criterion(ctx, elements, assume_subgroup=True)
            assert decision == criterion_by_standardizing(ctx, elements), (fld, gens)
            assert sl.outside_prime_orders(ctx, elements) == \
                outside_prime_orders_by_scan(ctx, elements), (fld, gens)
            outcomes.add(decision.has_regular_orbit)
            checked += 1
        assert outcomes == {True, False}, fld


def test_criterion_on_listed_groups_without_assume_subgroup_is_fast():
    ctx = make_field(2, 1, 10)
    full = sl.full_group(ctx)
    t0 = time.perf_counter()
    decision = sl.regular_orbit_criterion(ctx, full)
    assert time.perf_counter() - t0 < 1
    assert decision == sl.RegularOrbitDecision(False, None, 2, 10 * 1023)
    ctx = make_field(2, 1, 12)
    all_but_one = sl.full_group(ctx)[:-1]
    t0 = time.perf_counter()
    with pytest.raises(NotASubgroup):
        sl.regular_orbit_criterion(ctx, all_but_one)
    assert time.perf_counter() - t0 < 2


def test_criterion_reads_only_the_schreier_record(monkeypatch):
    # no standardization, no listed norm-one subgroup, no element order
    surveys = [(ctx, elements, criterion_by_standardizing(ctx, elements))
               for ctx in (make_field(2, 1, 6), make_field(2, 2, 3), make_field(2, 3, 2))
               for elements, _ in sl.small_subgroup_survey(ctx)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the criterion must read the Schreier record only")
    for name in ("standardize_subgroup", "norm_one_subgroup", "element_order"):
        monkeypatch.setattr(sl, name, forbidden)
    for ctx, elements, expected in surveys:
        assert sl.regular_orbit_criterion(ctx, elements) == expected


def test_conjugate_count_of_elementary_abelian_square():
    # for odd s (the only case the odd-order machinery uses; s = 2 genuinely
    # violates this count, e.g. over GF(9)): the number of conjugates of
    # B = <sigma, x> (x a scalar of order s fixed by sigma) equals the
    # Hall s'-part of the norm-one subgroup
    from orbitforge.arith import factorization
    cases = 0
    for (p, k, n, s) in [(2, 1, 6, 3), (2, 2, 3, 3), (3, 1, 4, 2), (2, 2, 2, 3)]:
        ctx = make_field(p, k, n)
        if ctx.n % s != 0 or ctx.size > 81 or s % 2 == 0:
            continue
        n_sub = sl.norm_one_subgroup(ctx, s)
        subfield_units = ctx.q ** (ctx.n // s) - 1
        if subfield_units % s != 0:
            continue  # no scalar of order s inside the fixed field
        cases += 1
        x = (0, (ctx.order // s))  # scalar of order s; lies in the fixed field
        assert F.frobenius(ctx, x[1], ctx.n // s) == x[1]
        sigma = (ctx.n // s, 0)
        b_group = sl.subgroup_closure(ctx, [sigma, x])
        assert len(b_group) == s * s
        conjugates = set()
        for gamma in sl.full_group(ctx):
            gamma_inv = sl.inverse(ctx, gamma)
            image = tuple(sorted(sl.compose(ctx, sl.compose(ctx, gamma, f), gamma_inv)
                                 for f in b_group))
            conjugates.add(image)
        hall = n_sub.order
        for r, mult in factorization(n_sub.order).items():
            if r == s:
                hall //= r ** mult
        assert len(conjugates) == hall
    assert cases >= 2


def test_gcd_identity_on_grid():
    # gcd((q^n-1)/(q^(n/s)-1), q^(n/s)-1) = s whenever s | q^(n/s)-1
    from math import gcd
    checked = 0
    for q in [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25]:
        for s in [2, 3, 5]:
            for n in [s, 2 * s, 3 * s]:
                a = q ** (n // s) - 1
                if a % s != 0:
                    continue
                total = (q ** n - 1) // a
                assert gcd(total, a) == s
                checked += 1
    assert checked > 20


CRITERION_FIELDS = [(2, 1, 4), (2, 1, 6), (2, 1, 8), (2, 1, 10), (2, 1, 12), (2, 2, 3), (2, 2, 6),
                    (3, 1, 3), (3, 1, 4), (3, 1, 6), (3, 1, 7), (5, 1, 3), (5, 1, 5), (7, 1, 4)]


def test_criterion_matches_enumerate_orbits():
    # the orbit report is the brute-force oracle on up to 2^12 points
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from orbitforge import action as A

    @st.composite
    def subgroups(draw):
        ctx = make_field(*draw(st.sampled_from(CRITERION_FIELDS)))
        m = ctx.order
        small = [c for c in range(1, m + 1) if m % c == 0 and m // c <= 64]  # scalars of order <= 64
        gen = st.tuples(st.integers(0, ctx.n - 1),
                        st.builds(lambda j, c: j * c % m, st.integers(0, m - 1), st.sampled_from(small)))
        gens = draw(st.lists(gen, min_size=1, max_size=2))
        hypothesis.assume(sl.subgroup_order(ctx, gens) <= 1000)
        return ctx, gens

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(subgroups())
    def check(drawn):
        ctx, gens = drawn
        decision = sl.regular_orbit_criterion(ctx, sl.subgroup_closure(ctx, gens), assume_subgroup=True)
        assert sl._criterion(ctx, *sl.schreier_kernel(ctx, gens)) == decision  # the record of prop2
        report = A.enumerate_orbits(A.ActionInstance(A.SemilinearAction(ctx), gens))
        assert decision.has_regular_orbit == report.regular_exists
        assert decision.subgroup_order == report.group_order
        regular_reps = [rep for _, rep, stab in report.orbits if stab == 1]
        assert decision.regular_vector == min(regular_reps, default=None)
    check()


SCAN_FIELDS = [(2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 1, 4), (5, 1, 2),
               (2, 1, 6), (3, 1, 3), (7, 1, 2), (2, 2, 3), (3, 1, 4), (2, 1, 8)]


def test_smallest_regular_point_matches_point_scan():
    # the stabilized residues against a scan of every point's stabilizer
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from helpers import smallest_regular_point_by_scan

    @st.composite
    def subgroups(draw):
        ctx = make_field(*draw(st.sampled_from(SCAN_FIELDS)))
        m = max(ctx.order, 1)
        small = [c for c in range(1, m + 1) if m % c == 0]
        gen = st.tuples(st.integers(0, ctx.n - 1),
                        st.builds(lambda j, c: j * c % m, st.integers(0, m - 1), st.sampled_from(small)))
        gens = draw(st.lists(gen, max_size=2))
        hypothesis.assume(sl.subgroup_order(ctx, gens) * ctx.size <= 100_000)
        return ctx, sl.subgroup_closure(ctx, gens)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.example((make_field(2, 1, 1), (sl.IDENTITY,)))
    @hypothesis.given(subgroups())
    def check(drawn):
        ctx, elems = drawn
        record = sl._record(ctx, elems)
        assert sl._smallest_regular_point(ctx, *record) == smallest_regular_point_by_scan(ctx, elems)
    check()


def test_smallest_regular_point_without_twisted_fixed_points():
    # on GF(9), <(1, 1)> = {(0, 0), (0, 4), (1, 1), (1, 5)}: d = 4 and
    # 2x = -1 (mod 4) has no solution, so no nonzero point is fixed
    ctx = make_field(3, 1, 2)
    reps, d = sl.schreier_kernel(ctx, [(1, 1)])
    assert d == 4 and sl.stabilized_residues(ctx, reps, d) == bytearray(4)
    record = sl._record(ctx, sl.subgroup_closure(ctx, [(1, 1)]))
    assert sl._smallest_regular_point(ctx, *record) == 1


def test_subgroup_closure_matches_generic_closure():
    # the coset listing against the generic breadth-first closure, with the
    # element cap at |H| and |H| - 1
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from orbitforge import action as A
    from orbitforge.errors import ElementCapExceeded

    @st.composite
    def generator_sets(draw):
        ctx = make_field(*draw(st.sampled_from([(2, 1, 1), (3, 1, 1), *CRITERION_FIELDS[:8]])))
        gen = st.tuples(st.integers(0, ctx.n - 1), st.integers(0, max(ctx.order, 1) - 1))
        return ctx, draw(st.lists(gen, max_size=3))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(generator_sets())
    def check(drawn):
        ctx, gens = drawn
        hypothesis.assume(sl.subgroup_order(ctx, gens) <= 5000)
        backend = A.SemilinearAction(ctx)
        listed = sl.subgroup_closure(ctx, [list(g) for g in gens])  # JSON-style generators
        assert listed == A.closure(backend, gens)
        assert sl.subgroup_closure(ctx, gens, cap=len(listed)) == listed
        if len(listed) > 1:
            with pytest.raises(ElementCapExceeded):
                sl.subgroup_closure(ctx, gens, cap=len(listed) - 1)
            with pytest.raises(ElementCapExceeded):
                A.closure(backend, gens, cap=len(listed) - 1)
    check()
