"""Exact arithmetic in GF(p^(k*n)) via discrete-log tables.

A field context fixes q = p^k and an extension degree n over GF(q), so the
full field has p^(k*n) elements.  Nonzero elements are represented by their
discrete logarithm with respect to a fixed primitive element g: the integer
e in [0, q^n - 2] stands for g^e.  Zero is the sentinel ZERO (-1), matching
the wire format used in group-spec files.  Multiplication is addition of
exponents.  Coordinates over the prime field come from two read-only int32
arrays, built in about sqrt(q^n) numpy steps: exp_table[e] is the packed
base-p form of g^e and log_table inverts it, with log_table[0] = ZERO.

make_field keeps contexts in one LRU cache, equal (p, k*n) sharing tables.  A
build first drops the least recently used until all tables, 8 bytes per element,
fit in 4 MiB (any field up to 2^19 elements does); the newest always stays.

The primitive element is the residue class of x modulo the lexicographically
smallest primitive polynomial of the right degree (coefficients compared
low-degree-first), which makes every table, and hence every downstream
witness, deterministic.
"""

import math
from itertools import product

import numpy as np

from .arith import is_prime, prime_factors
from .config import DEFAULT_FIELD_SIZE_CAP
from .errors import (ConstructionFailed, NonPrime, NoPrimitivePolynomial, SizeCapExceeded,
                     SNotDividingN, ZeroInput)

ZERO = -1
_CACHE_BYTES = 4 << 20  # tables kept besides the newest field's (8 bytes per element)
_contexts: dict = {}  # (p, k, n) -> FieldContext, least recently used first

FieldElement = int  # ZERO or an exponent in [0, q^n - 2]


# -- int64 matrices over GF(p): entries stay below p, so sums stay below d*p^2 < 2^63 --

def _companion(f, p):
    """Matrix of multiplication by x on GF(p)[x]/(f) in the basis 1, x, ..."""
    d = len(f) - 1
    c = np.zeros((d, d), dtype=np.int64)
    c[np.arange(1, d), np.arange(d - 1)] = 1
    c[:, d - 1] = [-a % p for a in f[:d]]
    return c


def _mat_pow(m, e, p):
    result = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            result = result @ m % p
        e >>= 1
        if e:
            m = m @ m % p
    return result


def _x_is_primitive(f, p, group_order, order_primes):
    """Does the class of x generate the full multiplicative group mod f?

    x^e = 1 mod f exactly when C^e = I for the companion matrix C of f.
    True forces f irreducible: the unit group of GF(p)[x]/(f) has order
    strictly below p^deg(f) - 1 unless f is irreducible.
    """
    c = _companion(f, p)
    one = np.eye(len(c), dtype=np.int64)
    return (np.array_equal(_mat_pow(c, group_order, p), one)
            and not any(np.array_equal(_mat_pow(c, group_order // r, p), one)
                        for r in order_primes))


def smallest_primitive_polynomial(p: int, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest primitive polynomial, low coefficients first.

    Returned as the full monic coefficient tuple (c0, ..., c_{degree-1}, 1).
    """
    group_order = p ** degree - 1
    order_primes = prime_factors(group_order)
    # the constant term of a primitive polynomial is (-1)^degree times the
    # norm of a primitive element, which is itself a primitive root of GF(p)
    sign = 1 if degree % 2 == 0 else -1
    root_checks = [(p - 1) // r for r in prime_factors(p - 1)]
    for c0 in range(1, p):
        if any(pow(sign * c0, c, p) == 1 for c in root_checks):
            continue
        for rest in product(range(p), repeat=degree - 1):
            f = (c0,) + rest + (1,)
            # cheap filter: no roots in GF(p)
            if degree > 1 and any(_poly_eval(f, a, p) == 0 for a in range(p)):
                continue
            if _x_is_primitive(f, p, group_order, order_primes):
                return f
    raise NoPrimitivePolynomial(f"no primitive polynomial of degree {degree} over GF({p})")


def _poly_eval(f, a, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % p
    return acc


def _field_tables(p: int, degree: int):
    """(poly, exp, log): exp[e] is the packed base-p form of g^e, log its inverse.

    Lane j holds the width ~ sqrt(order) powers from g^(j*width) on.  The
    starts come from doubling with C^width, C the companion matrix of poly,
    and then all lanes are multiplied by x together.
    """
    poly = smallest_primitive_polynomial(p, degree)
    size = p ** degree
    order = size - 1
    width = math.isqrt(order - 1) + 1
    lanes = -(-order // width)
    starts = np.zeros((lanes, degree), dtype=np.int64)  # coordinate rows
    starts[0, 0] = 1
    jump = _mat_pow(_companion(poly, p), width, p).T
    done = 1
    while done < lanes:
        count = min(done, lanes - done)
        starts[done:done + count] = starts[:count] @ jump % p
        jump = jump @ jump % p
        done += count
    cur = starts @ p ** np.arange(degree, dtype=np.int64)
    block = np.empty((lanes, width), dtype=np.int32)
    if p == 2:
        # digits are bits: multiply by x = shift, reduce = xor with f
        poly_packed = sum(c << i for i, c in enumerate(poly))
        for i in range(width):
            block[:, i] = cur
            cur <<= 1
            cur ^= (cur >> degree) * poly_packed
    else:
        # packed base-p digits never carry across positions under mod-p ops
        pd1 = p ** (degree - 1)
        nz = [(poly[i], p ** i) for i in range(degree) if poly[i]]
        for i in range(width):
            block[:, i] = cur
            lead, cur = np.divmod(cur, pd1)
            cur *= p
            for ci, wi in nz:
                digit = cur // wi % p
                cur += ((digit - lead * ci) % p - digit) * wi
    block.flags.writeable = False
    exp = block.reshape(-1)[:order]
    log = np.full(size, ZERO, dtype=np.int32)
    for start in range(0, order, 1 << 16):  # no order-sized temporary
        log[exp[start:start + (1 << 16)]] = np.arange(start, min(start + (1 << 16), order))
    # g has order q^n - 1 exactly when its powers hit every nonzero element once
    if log[0] != ZERO or log[1:].min() == ZERO:
        raise ConstructionFailed(f"x is not primitive modulo {poly} over GF({p})")
    log.flags.writeable = False
    return poly, exp, log


class FieldContext:
    """Immutable handle on GF(q^n), q = p^k, with exp/log tables.

    exp_table and log_table are read-only int32 ndarrays (see the module
    docstring); every operation in this module is a pure function of
    (context, inputs).
    """

    __slots__ = ("p", "k", "n", "q", "degree", "size", "order", "poly",
                 "exp_table", "log_table", "pow_q", "minus_one")

    def __init__(self, p: int, k: int, n: int, poly, exp_table, log_table):
        self.p = p
        self.k = k
        self.n = n
        self.q = p ** k
        self.degree = k * n
        self.size = p ** (k * n)
        self.order = self.size - 1
        self.poly = poly
        self.exp_table = exp_table
        self.log_table = log_table
        self.pow_q = tuple(pow(self.q, t, self.order) for t in range(n))
        self.minus_one = 0 if p == 2 else self.order // 2

    def __repr__(self):
        return f"FieldContext(p={self.p}, k={self.k}, n={self.n})"

    def __eq__(self, other):
        return (isinstance(other, FieldContext)
                and (self.p, self.k, self.n) == (other.p, other.k, other.n))

    def __hash__(self):
        return hash((self.p, self.k, self.n))

    def nonzero(self):
        """All nonzero elements, ascending by exponent."""
        return range(self.order)

    def elements(self):
        """All elements: ZERO first, then exponents ascending."""
        yield ZERO
        yield from range(self.order)


def check_field_args(p: int, k: int, n: int) -> None:
    """Raise unless make_field(p, k, n) may build GF(p^(k*n)) under DEFAULT_FIELD_SIZE_CAP.

    Bounded work for any input: p over the cap fails before the primality
    test, and the exponent is compared before p ** (k*n) is built.
    """
    if not isinstance(p, int):
        raise NonPrime(f"p must be prime, got {p}")
    cap = min(DEFAULT_FIELD_SIZE_CAP, 2 ** 31 - 1)  # int32 tables cannot index a larger field
    if p > cap:
        raise SizeCapExceeded(f"p = {p} exceeds the size cap {cap}")
    if not is_prime(p):
        raise NonPrime(f"p must be prime, got {p}")
    if k < 1 or n < 1:
        raise ValueError(f"k and n must be positive, got k={k}, n={n}")
    if k * n >= cap.bit_length() or p ** (k * n) > cap:  # p >= 2, so 2^(k*n) > cap
        raise SizeCapExceeded(f"{p}^{k * n} exceeds the size cap {cap}")


def make_field(p: int, k: int, n: int) -> FieldContext:
    """Context for GF(p^(k*n)) with distinguished subfield GF(q), q = p^k."""
    check_field_args(p, k, n)
    ctx = _contexts.pop((p, k, n), None)
    if ctx is None:
        tables = next(((c.poly, c.exp_table, c.log_table) for c in _contexts.values()
                       if (c.p, c.degree) == (p, k * n)), None)
        while tables is None and _contexts and 8 * (p ** (k * n) + sum(
                {(c.p, c.degree): c.size for c in _contexts.values()}.values())) > _CACHE_BYTES:
            del _contexts[next(iter(_contexts))]
        ctx = FieldContext(p, k, n, *(tables or _field_tables(p, k * n)))
    _contexts[(p, k, n)] = ctx  # most recently used last
    return ctx


# -- element operations (exponent representation) --

def mul(ctx: FieldContext, x: FieldElement, y: FieldElement) -> FieldElement:
    if x == ZERO or y == ZERO:
        return ZERO
    return (x + y) % ctx.order


def inv(ctx: FieldContext, x: FieldElement) -> FieldElement:
    if x == ZERO:
        raise ZeroInput("zero has no inverse")
    return (-x) % ctx.order


def div(ctx: FieldContext, x: FieldElement, y: FieldElement) -> FieldElement:
    return mul(ctx, x, inv(ctx, y))


def power(ctx: FieldContext, x: FieldElement, e: int) -> FieldElement:
    if x == ZERO:
        if e <= 0:
            raise ZeroInput("0**e undefined for e <= 0")
        return ZERO
    return (x * e) % ctx.order


def neg(ctx: FieldContext, x: FieldElement) -> FieldElement:
    if x == ZERO:
        return ZERO
    return mul(ctx, x, ctx.minus_one)


def add(ctx: FieldContext, x: FieldElement, y: FieldElement) -> FieldElement:
    if x == ZERO:
        return y
    if y == ZERO:
        return x
    p = ctx.p
    vx, vy = ctx.exp_table.item(x), ctx.exp_table.item(y)
    packed = 0
    w = 1
    while vx or vy:
        packed += ((vx % p + vy % p) % p) * w
        vx //= p
        vy //= p
        w *= p
    return ctx.log_table.item(packed)


def sub(ctx: FieldContext, x: FieldElement, y: FieldElement) -> FieldElement:
    return add(ctx, x, neg(ctx, y))


def frobenius(ctx: FieldContext, x: FieldElement, t: int = 1) -> FieldElement:
    """x -> x^(q^t), the t-th power of the Frobenius over GF(q)."""
    if x == ZERO:
        return ZERO
    return (x * ctx.pow_q[t % ctx.n]) % ctx.order


def from_integer(ctx: FieldContext, packed: int) -> FieldElement:
    """Element from its packed base-p coordinate form (0 -> ZERO)."""
    if not 0 <= packed < ctx.size:
        raise ValueError(f"packed value {packed} out of range for {ctx!r}")
    return ctx.log_table.item(packed)  # log_table[0] is ZERO


def to_integer(ctx: FieldContext, x: FieldElement) -> int:
    """Packed base-p coordinate form (ZERO -> 0)."""
    return 0 if x == ZERO else ctx.exp_table.item(x)


def coordinates(ctx: FieldContext, x: FieldElement) -> tuple[int, ...]:
    """Coordinates over GF(p) in the power basis 1, x, ..., x^(degree-1)."""
    v = to_integer(ctx, x)
    p = ctx.p
    out = []
    for _ in range(ctx.degree):
        out.append(v % p)
        v //= p
    return tuple(out)


def subfield_step(ctx: FieldContext, j: int) -> int:
    """Exponent step of GF(q^j)^x inside GF(q^n)^x; requires j | n."""
    if ctx.n % j:
        raise SNotDividingN(f"j = {j} must divide n = {ctx.n}")
    return ctx.order // (ctx.q ** j - 1)


def in_subfield(ctx: FieldContext, x: FieldElement, j: int) -> bool:
    """Is x in the intermediate field GF(q^j)?  Requires j | n."""
    if x == ZERO:
        return True
    return x % subfield_step(ctx, j) == 0


def norm_map(ctx: FieldContext, s: int, y: FieldElement) -> FieldElement:
    """Product of the <sigma>-conjugates of y, sigma = (x -> x^(q^(n/s))).

    s must be a prime dividing n; the result lies in GF(q^(n/s)).
    """
    if y == ZERO:
        raise ZeroInput("norm of zero is undefined")
    _check_s(ctx, s)
    v = sum(ctx.pow_q[(ctx.n // s) * j % ctx.n] for j in range(s))
    # v = 1 + q^(n/s) + ... + q^((n/s)(s-1)) reduced mod q^n - 1
    result = (y * v) % ctx.order
    if frobenius(ctx, result, ctx.n // s) != result:
        raise ConstructionFailed(f"norm of {y} is not fixed by the Frobenius of GF(q^(n/s))")
    return result


def _check_s(ctx: FieldContext, s: int) -> None:
    if not is_prime(s) or ctx.n % s != 0:
        raise SNotDividingN(f"s = {s} must be a prime dividing n = {ctx.n}")


__all__ = [
    "ZERO", "FieldElement", "FieldContext", "make_field", "check_field_args",
    "smallest_primitive_polynomial",
    "mul", "inv", "div", "power", "neg", "add", "sub", "frobenius",
    "from_integer", "to_integer", "coordinates",
    "subfield_step", "in_subfield", "norm_map",
]
