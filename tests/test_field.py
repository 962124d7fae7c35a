import json

import numpy as np
import pytest

from orbitforge import action as A
from orbitforge import field as F
from orbitforge.arith import is_prime, prime_factors
from orbitforge.errors import (ConstructionFailed, NonPrime, SizeCapExceeded, SNotDividingN,
                               ZeroInput)
from orbitforge.field import ZERO, make_field
from orbitforge.specfile import instance_from_spec, instance_to_spec

from helpers import field_tables_by_scalar_loop, norm_by_product, run_with_src


def test_make_field_smallest():
    ctx = make_field(2, 1, 2)
    assert ctx.size == 4 and ctx.order == 3 and ctx.q == 2


def test_make_field_gf49():
    # the ground field of the 2-dimensional primitive action over GF(7)
    ctx = make_field(7, 1, 2)
    assert ctx.size == 49 and ctx.q == 7 and ctx.degree == 2


def test_exp_log_round_trip_gf81():
    ctx = make_field(3, 1, 4)
    for e in ctx.nonzero():
        assert ctx.log_table[ctx.exp_table[e]] == e
    assert len(set(ctx.exp_table)) == 80


def test_make_field_errors():
    with pytest.raises(NonPrime):
        make_field(6, 1, 2)
    with pytest.raises(SizeCapExceeded):
        make_field(2, 1, 30)
    with pytest.raises(ValueError):
        make_field(3, 0, 2)


def _packed_product(ctx, a, b):
    """Independent oracle: schoolbook polynomial product mod (poly, p)."""
    p = ctx.p
    da = [(a // p ** i) % p for i in range(ctx.degree)]
    db = [(b // p ** i) % p for i in range(ctx.degree)]
    res = [0] * (2 * ctx.degree)
    for i, ai in enumerate(da):
        for j, bj in enumerate(db):
            res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(len(res) - 1, ctx.degree - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(ctx.degree):
                res[i - ctx.degree + j] = (res[i - ctx.degree + j] - c * ctx.poly[j]) % p
    return sum(c * p ** i for i, c in enumerate(res[:ctx.degree]))


def test_exp_table_multiplicative():
    # exp(e1) * exp(e2) = exp((e1 + e2) mod q^n - 1) as field elements,
    # with the product recomputed by schoolbook polynomial arithmetic
    for (p, k, n) in [(2, 1, 4), (3, 1, 2), (5, 1, 2), (2, 2, 2)]:
        ctx = make_field(p, k, n)
        for e1 in ctx.nonzero():
            for e2 in ctx.nonzero():
                want = ctx.exp_table[(e1 + e2) % ctx.order]
                got = _packed_product(ctx, ctx.exp_table[e1], ctx.exp_table[e2])
                assert got == want


def test_primitive_element_order():
    for (p, k, n) in [(2, 1, 4), (3, 1, 2), (5, 1, 2), (7, 1, 2), (2, 1, 6)]:
        ctx = make_field(p, k, n)
        proper_divisors = [d for d in range(1, ctx.order) if ctx.order % d == 0]
        for d in proper_divisors:
            assert F.power(ctx, 1, d) != 0  # g^d != 1
        assert F.power(ctx, 1, ctx.order) == 0  # g^(q^n - 1) = 1


def test_frobenius_fixes_exactly_base_subfield():
    for (p, k, n) in [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2), (3, 2, 2)]:
        ctx = make_field(p, k, n)
        fixed = [x for x in ctx.elements() if F.frobenius(ctx, x, 1) == x]
        assert len(fixed) == ctx.q


def test_frobenius_order_is_n():
    for (p, k, n) in [(2, 1, 4), (3, 1, 3), (2, 2, 3), (5, 1, 2)]:
        ctx = make_field(p, k, n)
        for x in list(ctx.nonzero())[:40]:
            y = x
            for _ in range(n):
                y = F.frobenius(ctx, y, 1)
            assert y == x
        if n > 1:
            g = 1
            assert F.frobenius(ctx, g, 1) != g


def test_smallest_primitive_polynomial_matches_naive_search():
    # independent oracle: try all monic polynomials in lex order, testing
    # primitivity by walking the powers of x explicitly
    def naive(p, d):
        from itertools import product as iproduct
        size = p ** d
        for tail in iproduct(range(p), repeat=d):
            f = list(tail) + [1]
            if f[0] == 0:
                continue
            seen = set()
            cur = [0] * d
            cur[0] = 1
            ok = True
            for _ in range(size - 1):
                key = tuple(cur)
                if key in seen:
                    ok = False
                    break
                seen.add(key)
                lead = cur[-1]
                cur[1:] = cur[:-1]
                cur[0] = 0
                if lead:
                    for i in range(d):
                        cur[i] = (cur[i] - lead * f[i]) % p
            if ok and len(seen) == size - 1 and cur[0] == 1 and not any(cur[1:]):
                return tuple(f)
        raise AssertionError("no primitive polynomial found")

    for (p, d) in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]:
        assert F.smallest_primitive_polynomial(p, d) == naive(p, d)


def test_field_caching_returns_identical_context():
    assert make_field(2, 1, 4) is make_field(2, 1, 4)


def test_norm_gf4():
    ctx = make_field(2, 1, 2)
    assert F.norm_map(ctx, 2, 1) == 0  # g * g^2 = g^3 = 1


def test_norm_gf9_is_minus_one():
    ctx = make_field(3, 1, 2)
    got = F.norm_map(ctx, 2, 1)
    assert got == 4 == ctx.minus_one  # g^(1+3), the element of order 2
    assert got == norm_by_product(ctx, 2, 1)


def test_norm_gf81():
    ctx = make_field(3, 1, 4)
    assert F.norm_map(ctx, 2, 1) == 10  # g^(1+9)
    for y in ctx.nonzero():
        nm = F.norm_map(ctx, 2, y)
        assert nm == norm_by_product(ctx, 2, y)
        assert F.frobenius(ctx, nm, 2) == nm  # lands in GF(9)


def test_norm_errors():
    ctx = make_field(3, 1, 4)
    with pytest.raises(ZeroInput):
        F.norm_map(ctx, 2, ZERO)
    with pytest.raises(SNotDividingN):
        F.norm_map(ctx, 3, 1)
    with pytest.raises(SNotDividingN):
        F.norm_map(ctx, 4, 1)


def test_norm_multiplicative_exhaustive():
    # every field of size <= 2^12 used elsewhere in the suite
    for (p, k, n) in [(2, 1, 2), (2, 1, 4), (2, 1, 6), (3, 1, 2), (3, 1, 4), (5, 1, 2), (2, 2, 2), (2, 2, 3)]:
        ctx = make_field(p, k, n)
        s = next(r for r in prime_factors(ctx.n))
        for x in ctx.nonzero():
            for y in list(ctx.nonzero())[:25]:
                lhs = F.norm_map(ctx, s, F.mul(ctx, x, y))
                rhs = F.mul(ctx, F.norm_map(ctx, s, x), F.norm_map(ctx, s, y))
                assert lhs == rhs


def test_norm_surjective_with_equal_fibers():
    for (p, k, n, s) in [(2, 1, 4, 2), (3, 1, 2, 2), (2, 1, 6, 2), (2, 1, 6, 3), (3, 1, 4, 2)]:
        ctx = make_field(p, k, n)
        fibers = {}
        for y in ctx.nonzero():
            fibers.setdefault(F.norm_map(ctx, s, y), []).append(y)
        subfield_order = ctx.q ** (ctx.n // s) - 1
        expected_fiber = ctx.order // subfield_order
        assert len(fibers) == subfield_order
        assert all(len(v) == expected_fiber for v in fibers.values())


def test_add_and_neg():
    for (p, k, n) in [(2, 1, 3), (3, 1, 2), (5, 1, 2), (7, 1, 1)]:
        ctx = make_field(p, k, n)
        els = list(ctx.elements())
        for x in els:
            assert F.add(ctx, x, ZERO) == x
            assert F.add(ctx, x, F.neg(ctx, x)) == ZERO
            for y in els:
                assert F.add(ctx, x, y) == F.add(ctx, y, x)
                assert F.sub(ctx, F.add(ctx, x, y), y) == x


def test_value_round_trip():
    ctx = make_field(11, 1, 1)
    for v in range(11):
        assert F.to_integer(ctx, F.from_integer(ctx, v)) == v


def test_coordinates_shape():
    ctx = make_field(3, 1, 4)
    assert F.coordinates(ctx, ZERO) == (0, 0, 0, 0)
    one = F.coordinates(ctx, 0)
    assert one == (1, 0, 0, 0)


# every p^d <= 2^12 with p <= 61 (degree 1 and GF(2), of order 1, included),
# then three fields whose order is not a multiple of the lane width
SCALAR_LOOP_FIELDS = [(p, d) for p in range(2, 62) if is_prime(p)
                      for d in range(1, 13) if p ** d <= 2 ** 12] + [(2, 16), (3, 10), (257, 2)]


def test_tables_match_scalar_loop():
    for p, d in SCALAR_LOOP_FIELDS:
        poly, exp, log = F._field_tables(p, d)
        want_exp, want_log = field_tables_by_scalar_loop(poly, p)
        assert exp.tolist() == list(want_exp), (p, d)
        assert log.tolist() == list(want_log), (p, d)


def test_pinned_primitive_polynomials():
    assert F.smallest_primitive_polynomial(2, 20) == (1,) + (0,) * 16 + (1, 0, 0, 1)
    assert F.smallest_primitive_polynomial(2, 22) == (1,) + (0,) * 20 + (1, 1)
    assert F.smallest_primitive_polynomial(3, 12) == (2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1)


def test_tables_are_read_only_int32():
    ctx = make_field(2, 1, 4)
    for table in (ctx.exp_table, ctx.log_table):
        assert table.dtype == np.int32
        with pytest.raises(ValueError):
            table[0] = 1


def test_int32_size_limit_ignores_larger_cap(monkeypatch):
    builds = []
    monkeypatch.setattr(F, "_field_tables", lambda *args: builds.append(args))
    monkeypatch.setattr(F, "DEFAULT_FIELD_SIZE_CAP", 2 ** 40)
    with pytest.raises(SizeCapExceeded):
        make_field(2, 1, 31)
    assert builds == []


def cached_table_bytes():
    tables = {id(c.log_table): c.exp_table.nbytes + c.log_table.nbytes
              for c in F._contexts.values()}
    return sum(tables.values())


def test_field_cache_is_bounded_by_table_bytes(table_builds):
    # 2^17 to 2^20 elements take 1 to 8 MiB of tables; (2, 2, 9) shares (2, 1, 18)'s
    for field in [(2, 1, 18), (3, 1, 11), (2, 1, 19), (5, 1, 7), (2, 1, 20), (7, 1, 2),
                  (3, 1, 11), (2, 1, 18), (2, 2, 9), (3, 2, 5), (2, 1, 17), (2, 1, 19),
                  (11, 1, 3)]:
        make_field(*field)
        assert list(F._contexts)[-1] == field
        p, degree = table_builds[-1]
        assert cached_table_bytes() <= max(4 << 20, 8 * p ** degree)
    assert len(table_builds) == 12
    assert list(F._contexts) == [(11, 1, 3)]


def test_field_cache_keeps_a_small_field_that_is_used_again(table_builds):
    small = make_field(3, 1, 4)
    for big in [(2, 1, 18), (5, 1, 8), (3, 1, 11), (2, 1, 18)]:  # 1.4 to 3 MiB of tables
        make_field(*big)
        assert make_field(3, 1, 4) is small
    # least recently used goes first: each big field but the last evicts the one before it
    assert table_builds == [(3, 4), (2, 18), (5, 8), (3, 11), (2, 18)]
    assert list(F._contexts) == [(3, 1, 11), (2, 1, 18), (3, 1, 4)]


def test_field_cache_shares_tables_across_splits(table_builds):
    a, b, c = make_field(2, 1, 16), make_field(2, 2, 8), make_field(2, 4, 4)
    assert table_builds == [(2, 16)]
    assert a.exp_table is b.exp_table is c.exp_table and a.log_table is c.log_table
    assert (a.q, b.q, c.q) == (2, 4, 16) and a != b


def test_element_ops_return_python_ints():
    for (p, k, n) in [(2, 1, 4), (3, 1, 2), (5, 2, 1)]:
        ctx = make_field(p, k, n)
        values = [F.add(ctx, 3, 5), F.sub(ctx, 3, 5), F.from_integer(ctx, 2),
                  F.to_integer(ctx, 3), *F.coordinates(ctx, 3)]
        assert all(type(v) is int for v in values)


def test_matrix_realization_spec_is_json():
    inst = A.ActionInstance(A.SemilinearAction(make_field(3, 1, 2)), [(1, 0), (0, 2)])
    doc = instance_to_spec(A.matrix_realization(inst))
    assert instance_to_spec(instance_from_spec(json.loads(json.dumps(doc)))) == doc


def test_field_checks_survive_optimize_flag():
    script = (
        "from orbitforge import field as F\n"
        "from orbitforge.errors import ConstructionFailed, SNotDividingN\n"
        "def raised(call):\n"
        "    try:\n"
        "        call()\n"
        "    except (ConstructionFailed, SNotDividingN) as exc:\n"
        "        return type(exc).__name__\n"
        "print(raised(lambda: F.subfield_step(F.make_field(2, 1, 4), 3)))\n"
        "F.frobenius = lambda ctx, x, t=1: x + 1  # a broken Frobenius moves every norm\n"
        "print(raised(lambda: F.norm_map(F.make_field(3, 1, 4), 2, 1)))\n"
        "# x^2 + 1 is irreducible over GF(3) but x has order 4, not 8\n"
        "F.smallest_primitive_polynomial = lambda p, degree: (1, 0, 1)\n"
        "print(raised(lambda: F.make_field(3, 1, 2)))\n"
    )
    proc = run_with_src(["-O", "-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [SNotDividingN.__name__] + [ConstructionFailed.__name__] * 2


@pytest.mark.parametrize("field", [(4093, 1, 2), (2 ** 24 - 3, 1, 1)])
def test_memory_bound_at_size_cap(field):
    # both have about 16.7M elements, just under the default 2^24 size cap
    script = ("import resource\n"
              "from orbitforge.field import make_field\n"
              f"make_field{field}\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    proc = run_with_src(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 300 * 1024  # ru_maxrss is in KiB on Linux
