"""Finite group actions on indexed vector sets, with orbit enumeration.

Three backends share one engine:

  * semilinear  -- maps (twist, scalar) on GF(q^n); point code 0 is the
    zero vector and code e+1 is g^e.
  * matrix      -- d x d matrices over a prime field GF(p) as flat
    row-major tuples; a vector's index is its base-p encoding with
    coordinate 0 least significant.
  * wreath      -- tuples ((g_1..g_m), pi) of inner semilinear maps and a
    block permutation; ((g, pi) . v)_i = g_{pi^-1(i)}(v_{pi^-1(i)}), and a
    point's index is sum(code(v_i) * f^(i-1)) over blocks.

Orbit enumeration labels the points of a permutation domain with the
least index in their orbit, by min-label hooking and pointer jumping over
one permutation array per generator.  The domain is a quotient wherever
the group's structure gives one: for a semilinear group the cosets of its
scalar kernel plus the zero vector, for a wreath product built by
build_wreath the m-tuples of inner-orbit labels.  Only matrix groups and
wreath instances without their construction data sweep every point.
Reports are canonical: each orbit is represented by its least point code,
orbits are sorted by (length, representative), lengths ascending.
Stabilizer orders come from |G| / |orbit|, never from explicit stabilizer
computation, and |G| comes from a semilinear group's Schreier record or
the other backends' order(generators), never from listing the group.
Points move only through perm_array, the images of every point at once.
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod

import numpy as np

from . import config
from .arith import prime_factors
from .errors import (
    ConstructionFailed,
    ElementCapExceeded,
    NotInGqn,
    PointCapExceeded,
)
from .field import ZERO, FieldContext
from . import field as field_ops
from . import semilinear as sl
from .permutation import compose_perm, identity_perm, inverse_perm


# -- backends --

class SemilinearAction:
    """The semilinear group of GF(q^n) acting on the field itself."""

    kind = "semilinear"

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.point_count = ctx.size
        self.characteristic = ctx.p
        self.identity = sl.IDENTITY

    def __repr__(self):
        return f"SemilinearAction({self.ctx!r})"

    def validate(self, g):
        sl.validate_map(self.ctx, g)

    def mul(self, a, b):
        return sl.compose(self.ctx, a, b)

    def perm_array(self, g) -> np.ndarray:
        return _code_table(self.ctx, g, self.ctx.order)

    def matrix_dim(self) -> int:
        return self.ctx.degree

    def matrix_of(self, g):
        return _semilinear_matrix(self.ctx, g)

    def point_coordinates(self, code: int) -> tuple[int, ...]:
        v = ZERO if code == 0 else code - 1
        return field_ops.coordinates(self.ctx, v)


class MatrixAction:
    """GL(dim, p) on the column vectors of GF(p)^dim."""

    kind = "matrix"

    def __init__(self, p: int, dim: int):
        self.p = p
        self.dim = dim
        self.point_count = p ** dim
        self.characteristic = p
        self.identity = mat_identity(dim)

    def __repr__(self):
        return f"MatrixAction(p={self.p}, dim={self.dim})"

    def validate(self, g):
        if len(g) != self.dim * self.dim or not all(0 <= v < self.p for v in g):
            raise NotInGqn(f"matrix {g} is not a valid {self.dim}x{self.dim} element mod {self.p}")
        if mat_det(g, self.dim, self.p) == 0:
            raise NotInGqn("matrix is singular")

    def mul(self, a, b):
        return mat_mul(a, b, self.dim, self.p)

    def inv(self, a):
        return mat_inv(a, self.dim, self.p)

    def perm_array(self, g) -> np.ndarray:
        """Image codes of all point codes, by linearity: x + a*p^j goes to
        g(x) + a*(column j of g).  For p = 2 the array doubles per coordinate
        by XOR with column j's code.  For odd p each tuple of high coordinates
        adds its image's digits to those of the low block (at most
        max(p, 2^16) points), so no other temporary outgrows d x block; when
        the low block is the whole space, its digits are the image's."""
        p, d = self.p, self.dim
        mat = np.array(g, dtype=np.int64).reshape(d, d)
        weights = p ** np.arange(d, dtype=np.int64)
        low = next((j for j in range(d, 0, -1) if p ** j <= 1 << 16), min(d, 1))
        if p != 2 and low == d:
            return weights @ _span_digits(mat, p)
        out = np.zeros(self.point_count, dtype=np.int64)
        if p == 2:
            for j, col in enumerate((weights @ mat).tolist()):
                np.bitwise_xor(out[:1 << j], col, out=out[1 << j:2 << j])
            return out
        digits, highs = _span_digits(mat[:, :low], p), _span_digits(mat[:, low:], p)
        block = digits.shape[1]
        for h in range(highs.shape[1]):
            out[h * block:(h + 1) * block] = weights @ ((digits + highs[:, h:h + 1]) % p)
        return out

    def order(self, generators) -> int:
        return chain_order(self, generators)

    def matrix_dim(self) -> int:
        return self.dim

    def matrix_of(self, g):
        return g

    def point_coordinates(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.dim):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)


class WreathAction:
    """Inner semilinear maps on m blocks, extended by block permutations."""

    kind = "wreath"

    def __init__(self, inner_ctx: FieldContext, m: int):
        self.inner = inner_ctx
        self.m = m
        self.point_count = inner_ctx.size ** m
        self.characteristic = inner_ctx.p
        self.identity = (tuple(sl.IDENTITY for _ in range(m)), identity_perm(m))

    def __repr__(self):
        return f"WreathAction({self.inner!r}, m={self.m})"

    def validate(self, g):
        comps, perm = g
        if len(comps) != self.m or sorted(perm) != list(range(self.m)):
            raise NotInGqn(f"{g} is not a valid wreath element with {self.m} blocks")
        for c in comps:
            sl.validate_map(self.inner, c)

    def mul(self, a, b):
        # (g; pi) o (h; rho) = ((g_rho(1) h_1, ..., g_rho(m) h_m); pi o rho)
        (ga, pa), (gb, pb) = a, b
        ctx = self.inner
        comps = tuple(sl.compose(ctx, ga[pb[j]], gb[j]) for j in range(self.m))
        return (comps, compose_perm(pa, pb))

    def perm_array(self, g) -> np.ndarray:
        # block j's image lands in block perm[j]
        comps, perm = g
        ctx, f = self.inner, self.inner.size
        return _over_blocks(np.add, [_code_table(ctx, c, ctx.order) * f ** perm[j]
                                     for j, c in enumerate(comps)])

    def order(self, generators) -> int:
        return chain_order(self, generators)

    def matrix_dim(self) -> int:
        return self.m * self.inner.degree

    def matrix_of(self, g):
        comps, perm = g
        d = self.inner.degree
        dim = self.m * d
        out = [0] * (dim * dim)
        pinv = inverse_perm(perm)
        for i in range(self.m):
            j = pinv[i]
            block = _semilinear_matrix(self.inner, comps[j])
            for r in range(d):
                for c in range(d):
                    out[(i * d + r) * dim + (j * d + c)] = block[r * d + c]
        return tuple(out)

    def point_coordinates(self, code: int) -> tuple[int, ...]:
        f = self.inner.size
        out = []
        for _ in range(self.m):
            block = code % f
            code //= f
            v = ZERO if block == 0 else block - 1
            out.extend(field_ops.coordinates(self.inner, v))
        return tuple(out)


def _code_table(ctx: FieldContext, g, d: int) -> np.ndarray:
    """The map (t, e): v -> g^e * v^(q^t) on point codes mod d, as a lookup array.

    Code 0 is the zero vector, which stays put, and code x+1 is g^x, which
    goes to g^(x*q^t + e).  With d = q^n - 1 these are the field's point
    codes; with a divisor d of it, code r+1 stands for the exponents r + dZ.
    """
    t, e = g
    out = np.zeros(d + 1, dtype=np.int64)
    out[1:] = (np.arange(d, dtype=np.int64) * (ctx.pow_q[t] % d) + e) % d + 1
    return out


def _span_digits(cols, p: int) -> np.ndarray:
    """Column sum(a_j * p^j) holds the digits of sum(a_j * cols[:, j]) mod p."""
    digits = np.zeros((len(cols), 1), dtype=np.int64)
    for col in cols.T:
        digits = ((digits[:, None, :] + col[:, None, None] * np.arange(p)[:, None]) % p
                  ).reshape(len(cols), -1)
    return digits


def _over_blocks(ufunc, columns) -> np.ndarray:
    """ufunc of the per-block columns over the grid of their index tuples.

    Entry sum(i_j * k^j) of the flat result, for k entries per column, is
    ufunc(columns[0][i_0], ..., columns[m-1][i_{m-1}]): block 0 is the
    least significant axis, as in the wreath point code.
    """
    out = columns[0]
    for col in columns[1:]:
        out = ufunc.outer(col, out)
    return out.reshape(-1)


def _semilinear_matrix(ctx: FieldContext, g) -> tuple[int, ...]:
    """The GF(p)-linear matrix of v -> a*v^(q^t) in the power basis."""
    d = ctx.degree
    out = [0] * (d * d)
    for j in range(d):
        basis_exp = ctx.log_table.item(ctx.p ** j)
        img = field_ops.coordinates(ctx, sl.apply_map(ctx, g, basis_exp))
        for i in range(d):
            out[i * d + j] = img[i]
    return tuple(out)


# -- flat tuple matrices over GF(p) --

def mat_identity(dim: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(dim) for j in range(dim))


def mat_mul(a, b, dim: int, p: int) -> tuple[int, ...]:
    out = [0] * (dim * dim)
    for i in range(dim):
        arow = a[i * dim:(i + 1) * dim]
        for j in range(dim):
            acc = 0
            for k in range(dim):
                acc += arow[k] * b[k * dim + j]
            out[i * dim + j] = acc % p
    return tuple(out)


def mat_det(a, dim: int, p: int) -> int:
    rows = [list(a[i * dim:(i + 1) * dim]) for i in range(dim)]
    det = 1
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if rows[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col] % p
        inv_piv = pow(rows[col][col], -1, p)
        for r in range(col + 1, dim):
            factor = rows[r][col] * inv_piv % p
            if factor:
                rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[col])]
    return det % p


def mat_inv(a, dim: int, p: int) -> tuple[int, ...]:
    aug = [list(a[i * dim:(i + 1) * dim]) + [1 if j == i else 0 for j in range(dim)]
           for i in range(dim)]
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if aug[r][col] % p), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_piv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv_piv % p for x in aug[col]]
        for r in range(dim):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(x - factor * y) % p for x, y in zip(aug[r], aug[col])]
    return tuple(aug[i][dim + j] for i in range(dim) for j in range(dim))


def mat_kron(a, b, da: int, db: int, p: int) -> tuple[int, ...]:
    """Kronecker product of a (da x da) and b (db x db), mod p."""
    dim = da * db
    out = [0] * (dim * dim)
    for i in range(da):
        for j in range(da):
            aij = a[i * da + j]
            if aij == 0:
                continue
            for r in range(db):
                for c in range(db):
                    out[(i * db + r) * dim + (j * db + c)] = aij * b[r * db + c] % p
    return tuple(out)


# -- instances, closure and order --

def closure(backend, generators, cap: int | None = None) -> tuple:
    """Full element list of <generators>, canonically sorted (not for orders).

    The only breadth-first closure: backend is any object with identity,
    mul and validate, that is one of the three action backends or a
    permutation.PermGroup.  Raises ElementCapExceeded once the list would
    pass cap elements.
    """
    if cap is None:
        cap = config.element_cap()
    gens = []
    for g in generators:
        backend.validate(g)
        if g not in gens:
            gens.append(g)
    seen = {backend.identity}
    frontier = [backend.identity]
    mul = backend.mul
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = mul(a, g)
                if c not in seen:
                    seen.add(c)
                    if len(seen) > cap:
                        raise ElementCapExceeded(f"closure exceeded the element cap {cap}")
                    new.append(c)
        frontier = new
    return tuple(sorted(seen))


def chain_order(backend, generators) -> int:
    """|<generators>| by deterministic Schreier-Sims on their GF(p)-matrices.

    Base e_0..e_{d-1} (Sims 1970; Seress 2003, ch. 4): level j keeps strong
    generators fixing e_0..e_{j-1} and a transversal u of their orbit on e_j,
    point -> (u, u^-1).  Levels are completed deepest first; a Schreier
    generator that does not sift to the identity joins the levels it passed.
    Only the identity fixes every e_j, so |G| is the product of the orbit
    lengths.  That product only grows and never exceeds |G|, so the cap
    error comes exactly when |G| > element_cap(), as in closure.
    """
    p, d = backend.characteristic, backend.matrix_dim()
    cap = config.element_cap()
    ident = np.eye(d, dtype=np.int64)
    gens = [[] for _ in range(d)]
    trans = [[(ident, ident)] for _ in range(d)]
    where = [{ident[:, j].tobytes(): 0} for j in range(d)]  # point -> index in trans[j]
    tested = [set() for _ in range(d)]

    def sift(g, j):
        for j in range(j, d):
            at = where[j].get(g[:, j].tobytes())  # g e_j is column j of g
            if at is None:
                return j, g
            if at:  # entry 0 is the identity
                g = trans[j][at][1] @ g % p
        return d, g

    def join(g, lo, hi):
        g_inv = np.array(mat_inv(g.ravel().tolist(), d, p), dtype=np.int64).reshape(d, d)
        for j in range(lo, hi + 1):
            gens[j].append((g, g_inv))
            rest = prod(len(t) for i, t in enumerate(trans) if i != j)
            for a, (u, u_inv) in enumerate(trans[j]):  # grows while it is walked
                for b, (x, x_inv) in enumerate(gens[j]):
                    key = (x @ u[:, j] % p).tobytes()
                    if key not in where[j]:
                        where[j][key] = len(trans[j])
                        trans[j].append((x @ u % p, u_inv @ x_inv % p))
                        tested[j].add((a, b))  # its Schreier generator is the identity
                        if rest * len(trans[j]) > cap:
                            raise ElementCapExceeded(f"group order exceeds the element cap {cap}")

    for g in generators:
        join(np.array(backend.matrix_of(g), dtype=np.int64).reshape(d, d), 0, 0)
    j = d - 1
    while j >= 0:
        for a, b in ((a, b) for a in range(len(trans[j])) for b in range(len(gens[j]))
                     if (a, b) not in tested[j]):
            tested[j].add((a, b))
            xu = gens[j][b][0] @ trans[j][a][0] % p
            h = trans[j][where[j][xu[:, j].tobytes()]][1] @ xu % p
            stop, residue = sift(h, j + 1)
            if stop < d:
                join(residue, j + 1, stop)
                j = stop
                break
        else:
            j -= 1
    return prod(len(t) for t in trans)


class ActionInstance:
    """A finitely generated group with one of the three action backends.

    known_order, when given, is trusted as |G|.
    """

    def __init__(self, backend, generators, known_order: int | None = None,
                 meta: dict | None = None):
        self.backend = backend
        self.generators = tuple(generators)
        for g in self.generators:
            backend.validate(g)
        self.known_order = known_order
        self._order = None
        self.meta = meta or {}

    def __repr__(self):
        return (f"ActionInstance({self.backend!r}, {len(self.generators)} generators, "
                f"order={self.known_order or '?'})")

    @property
    def point_count(self) -> int:
        return self.backend.point_count

    @property
    def group_order(self) -> int:
        """|G|, once: known_order, else the Schreier record or backend.order."""
        if self.known_order is not None:
            return self.known_order
        if self._order is None:
            if isinstance(self.backend, SemilinearAction):
                self._order = sl.subgroup_order(self.backend.ctx, self.generators, self._schreier)
            else:
                self._order = self.backend.order(self.generators)
        return self._order

    @cached_property
    def _schreier(self):
        """(reps, d) = sl.schreier_kernel(...) of a semilinear group, once; a
        build_wreath instance's inner group has it in meta["inner_schreier"]."""
        record = self.meta.get("inner_schreier")
        return record or sl.schreier_kernel(self.backend.ctx, self.generators)

    @cached_property
    def _orbits(self):
        """(reps, sizes) = _orbit_reps(self), kept until enumerate_orbits takes them."""
        return _orbit_reps(self)


# -- orbit enumeration --

@dataclass
class OrbitReport:
    """Orbit structure of an instance, canonical and JSON-serializable."""
    group_order: int
    point_count: int
    orbits: tuple[tuple[int, int, int], ...]  # (length, representative, stabilizer order)
    orbit_lengths: tuple[int, ...]
    regular_exists: bool
    p_regular: dict[int, bool]

    def to_json_dict(self) -> dict:
        return {
            "group_order": self.group_order,
            "orbit_lengths": list(self.orbit_lengths),
            "regular": self.regular_exists,
            "p_regular": {str(p): v for p, v in sorted(self.p_regular.items())},
            "orbits": [
                {"length": ln, "rep": rep, "stab_order": st}
                for ln, rep, st in self.orbits
            ],
        }


def enumerate_orbits(instance: ActionInstance, workers: int = 1) -> OrbitReport:
    """Orbits of the instance, each represented by its least point index.

    The orbits come from _orbit_reps, which sweeps a quotient of the point
    set for semilinear groups and for wreath products built by
    build_wreath, and every point otherwise; the report is the same either
    way.  workers has no effect; it is accepted so callers that pass a
    worker count keep working, and the report is the same for every value.
    """
    del workers
    n_points = instance.point_count
    reps, sizes = instance._orbits  # checks the point cap before |G| is computed
    del instance._orbits  # so the arrays do not outlive the report
    order = instance.group_order
    by_length = np.argsort(sizes, kind="stable")  # reps ascend, so ties stay sorted
    lengths = tuple(sizes[by_length].tolist())
    stab = {}
    for length in sorted(set(lengths)):
        if order % length:
            raise ConstructionFailed(
                f"orbit length {length} does not divide group order {order}")
        stab[length] = order // length
    full = tuple((ln, rep, stab[ln]) for ln, rep in zip(lengths, reps[by_length].tolist()))
    regular = 1 in stab.values()
    p_reg = {p: any(st % p != 0 for st in stab.values()) for p in prime_factors(order)}
    return OrbitReport(
        group_order=order,
        point_count=n_points,
        orbits=full,
        orbit_lengths=lengths,
        regular_exists=regular,
        p_regular=p_reg,
    )


def _orbit_reps(instance: ActionInstance) -> tuple[np.ndarray, np.ndarray]:
    """Every orbit's least point code, ascending, and the orbit's length.

    Raises PointCapExceeded before building any array when the point count
    is over config.point_cap(), whichever domain is then swept.  Semilinear
    instances and wreath instances built by build_wreath (marked by
    meta["wreath_spec"]) sweep a quotient; every other instance sweeps all
    its points.
    """
    n_points = instance.point_count
    _check_point_cap(n_points)
    backend = instance.backend
    if isinstance(backend, SemilinearAction):
        return _quotient_orbits(*_semilinear_quotient(backend.ctx, instance.generators,
                                                      instance._schreier[1]))
    spec = instance.meta.get("wreath_spec")
    if isinstance(backend, WreathAction) and spec is not None:
        return _quotient_orbits(*_wreath_quotient(spec, instance._schreier[1]))
    labels, _ = _orbit_labels(instance)
    reps = np.flatnonzero(labels == np.arange(n_points))
    return reps, np.bincount(labels)[reps]


def _check_point_cap(n_points: int) -> None:
    cap = config.point_cap()
    if n_points > cap:
        raise PointCapExceeded(f"{n_points} points exceed the point cap {cap}")


def _quotient_orbits(perms, weights, codes) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of a group on points, read off its action on a quotient.

    Quotient point i stands for weights[i] points whose least code is
    codes[i], and codes ascend with i, so an orbit's least quotient point
    carries its least code and its length is the orbit's sum of weights.
    """
    labels, _ = _sweep(len(codes), perms)
    roots = np.flatnonzero(labels == np.arange(len(codes)))
    return codes[roots], np.bincount(labels, weights)[roots].astype(np.int64)


def _semilinear_quotient(ctx: FieldContext, generators, d: int):
    """H <= GammaL(1, q^n) on the cosets of its scalar kernel K = <(0, d)>.

    K is normal in H, so the H-orbits on exponents are unions of the cosets
    x + dZ, m = q^n - 1, and (t, e) acts on Z_d by x -> x*q^t + e.  Point 0
    is the zero vector; point r+1 is the coset of r, of m/d points whose
    least exponent r has code r+1 (Holt-Eick-O'Brien 2005, ch. 4: orbits
    modulo a normal subgroup).  d = m when K = 1, and then the quotient is
    the point set.
    """
    weights = np.full(d + 1, max(ctx.order, 1) // d, dtype=np.int64)
    weights[0] = 1
    return [_code_table(ctx, g, d) for g in generators], weights, np.arange(d + 1)


def _wreath_quotient(spec, d: int):
    """The full H wr S of build_wreath on the k^m grid of inner-orbit labels.

    The base group H^m moves each block within its H-orbit independently,
    so the orbits are the S-orbits on m-tuples of the k inner orbits, and
    the tuple (l_j) stands for the product of the O_{l_j}: prod |O_{l_j}|
    points with least code sum(code(l_j) * f^j).  Labels are numbered by
    least code, so the least tuple of an S-orbit, in grid order, holds its
    least code.  Inner generators fix every label and sweep nothing.
    """
    codes, sizes = _quotient_orbits(*_semilinear_quotient(spec.inner, spec.inner_gens, d))
    k, f, m = len(codes), spec.inner.size, spec.m
    labels = np.arange(k, dtype=np.int64)
    perms = [_over_blocks(np.add, [labels * k ** perm[j] for j in range(m)])
             for perm in spec.top_gens]
    return (perms, _over_blocks(np.multiply, [sizes] * m),
            _over_blocks(np.add, [codes * f ** j for j in range(m)]))


def _orbit_labels(instance: ActionInstance) -> tuple[np.ndarray, int]:
    """Least point index of every point's orbit, and the rounds it took,
    by a sweep over every point: the generators' full permutation arrays."""
    return _sweep(instance.point_count,
                  [instance.backend.perm_array(g) for g in instance.generators])


def _sweep(n_points: int, perms) -> tuple[np.ndarray, int]:
    """Least index of every point's orbit under the permutation arrays of
    range(n_points), and the rounds it took.

    Orbits are the connected components of the graph joining x to g(x) for
    each generator g.  A round takes the generator arrays and their inverses
    in turn, and for each one jumps pointers and hooks labels along it
    (FastSV: Shiloach-Vishkin 1982, Zhang-Azad-Hu 2020); then it shortcuts.
    Pointer jumping keeps the round count near the log of the point count
    (7 on one 65535-cycle), where plain label propagation needs rounds in
    proportion to the orbit diameter.  A label only ever drops to another
    label of the same orbit, so once no generator moves a label, every point
    carries its orbit's minimum.
    """
    ident = np.arange(n_points, dtype=np.int64)
    edges = list(perms)
    for perm in perms:
        inv = np.empty_like(perm)
        inv[perm] = ident
        edges.append(inv)
    label = ident.copy()
    rounds = 0
    while True:
        rounds += 1
        for edge in edges:
            reached = label[label][edge]
            np.minimum.at(label, label, reached)   # hook x's parent under it
            np.minimum(label, reached, out=label)  # and x itself
        np.minimum(label, label[label], out=label)  # shortcut
        if all(np.array_equal(label[perm], label) for perm in perms):
            return label, rounds


# -- irreducibility --

def is_irreducible(instance: ActionInstance, reps: list[int] | None = None) -> bool:
    """No proper nonzero GF(p)-subspace is invariant under all generators.

    Decided by spinning: spin(v), the smallest invariant subspace holding
    v, must be the whole space for each v != 0.  spin(g.v) = g.spin(v), so
    one spin per orbit representative decides; reps, when given, are an
    orbit report's, otherwise _orbit_reps gives them.  Semilinear groups
    spin fewer (_scalar_class_reps).  H wr S from build_wreath is
    irreducible iff H = <inner_gens> is, and H != 1 or m = 1 (Clifford;
    Manz-Wolf 1993): then its transitive top permutes m non-isomorphic
    irreducible summands; else W^m, W H-invariant, or the diagonal is
    invariant.  Every path checks the point cap first, as _orbit_reps does.
    """
    backend, gens = instance.backend, instance.generators
    _check_point_cap(instance.point_count)
    spec = instance.meta.get("wreath_spec")
    if isinstance(backend, WreathAction) and spec is not None:
        if spec.m > 1 and all(g == sl.IDENTITY for g in spec.inner_gens):
            return False
        backend, gens, reps = SemilinearAction(spec.inner), spec.inner_gens, None
    if isinstance(backend, SemilinearAction):
        reps = _scalar_class_reps(backend.ctx, gens, instance._schreier, reps)
    elif reps is None:
        reps = _orbit_reps(instance)[0].tolist()
    p, dim = backend.characteristic, backend.matrix_dim()
    mats = [[mat[i * dim:(i + 1) * dim] for i in range(dim)]
            for mat in map(backend.matrix_of, gens)]
    return dim > 0 and all(_spin_rank(backend.point_coordinates(c), mats, p, dim) == dim
                           for c in sorted(reps) if c)  # the zero vector is code 0 everywhere


def _scalar_class_reps(ctx: FieldContext, generators, record, reps=None) -> set[int]:
    """Point codes whose spins decide if H = <generators> is irreducible.

    Invariant subspaces are modules for F = GF(p)[K] = GF(p^f), K the scalar
    kernel, f least with |K| | p^f - 1, so F* = <w^c0>, m = c0 (p^f - 1).
    With t0 = gcd(n, twists), each a in C = <w^s>, s = c0 / gcd(c0, q^t0 - 1
    mod m), has a^(q^t - 1) in F* for every twist t of H, so a maps
    invariant subspaces to invariant subspaces and spin(a.v) has the
    dimension of spin(v).  Code r+1 is w^r, so one code per class mod s of
    the orbit representatives reps decides; without reps, the H-orbits on
    Z_s, which are the <H, C>-orbits, are swept.  record is H's (reps, d).
    """
    twists, d = record
    m = max(ctx.order, 1)
    f = next(f for f in range(1, ctx.degree + 1) if (ctx.p ** f - 1) % (m // d) == 0)
    c0 = m // (ctx.p ** f - 1)
    s = c0 // gcd(c0, (pow(ctx.q, gcd(ctx.n, *twists), m) - 1) % m)
    if reps is None:
        labels, _ = _sweep(s + 1, [_code_table(ctx, g, s) for g in generators])
        reps = np.flatnonzero(labels == np.arange(s + 1)).tolist()
    return {(r - 1) % s + 1 for r in reps if r}


def _spin_rank(seed, mats, p: int, dim: int) -> int:
    """Dimension of the smallest subspace holding seed and invariant under
    mats (lists of row tuples mod p), by reduction to rows leading with 1."""
    basis = []  # (pivot, row), each row reduced against the earlier ones
    queue = [list(seed)]
    while queue:
        vec = queue.pop()
        for lead, row in basis:
            c = vec[lead]
            if c:
                vec = [(x - c * y) % p for x, y in zip(vec, row)]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        inv = pow(vec[lead], -1, p)
        vec = [x * inv % p for x in vec]
        basis.append((lead, vec))
        if len(basis) == dim:
            break
        queue.extend([sum(map(operator.mul, row, vec)) % p for row in rows] for rows in mats)
    return len(basis)


def matrix_realization(instance: ActionInstance) -> ActionInstance:
    """The same group as explicit matrices over the prime field."""
    backend = instance.backend
    if isinstance(backend, MatrixAction):
        return instance
    target = MatrixAction(backend.characteristic, backend.matrix_dim())
    gens = [backend.matrix_of(g) for g in instance.generators]
    return ActionInstance(target, gens, known_order=instance.known_order)


# -- the implication report --

@dataclass
class ImplicationReport:
    """Does p-regularity for every prime force a regular orbit here?

    is_counterexample is True exactly when the action is faithful and
    irreducible, every prime dividing the group order has a p-regular
    orbit, and yet no regular orbit exists.  faithful is always True: every
    backend is a concrete transformation of its points, and only the
    identity element fixes every point, which the tests check against full
    permutation arrays.
    """
    group_order: int
    faithful: bool
    irreducible: bool
    primes: tuple[int, ...]
    p_regular: dict[int, bool]
    all_p_regular: bool
    regular_exists: bool
    is_counterexample: bool
    odd_order: bool
    odd_characteristic: bool
    orbit_lengths: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "group_order": self.group_order,
            "faithful": self.faithful,
            "irreducible": self.irreducible,
            "primes": list(self.primes),
            "p_regular": {str(p): v for p, v in sorted(self.p_regular.items())},
            "all_p_regular": self.all_p_regular,
            "regular": self.regular_exists,
            "is_counterexample": self.is_counterexample,
            "odd_order": self.odd_order,
            "odd_characteristic": self.odd_characteristic,
            "orbit_lengths": list(self.orbit_lengths),
        }


def orbit_implication_report(instance: ActionInstance, workers: int = 1) -> ImplicationReport:
    """The report of one orbit sweep: irreducibility spins the sweep's orbit
    representatives, so the points are swept once.  workers has no effect."""
    del workers
    report = enumerate_orbits(instance)
    irreducible = is_irreducible(instance, reps=[rep for _, rep, _ in report.orbits])
    primes = tuple(prime_factors(report.group_order))
    all_p = all(report.p_regular[p] for p in primes)
    return ImplicationReport(
        group_order=report.group_order,
        faithful=True,
        irreducible=irreducible,
        primes=primes,
        p_regular=dict(report.p_regular),
        all_p_regular=all_p,
        regular_exists=report.regular_exists,
        is_counterexample=irreducible and all_p and not report.regular_exists,
        odd_order=report.group_order % 2 == 1,
        odd_characteristic=instance.backend.characteristic % 2 == 1,
        orbit_lengths=report.orbit_lengths,
    )


__all__ = [
    "SemilinearAction", "MatrixAction", "WreathAction", "ActionInstance",
    "closure", "chain_order", "OrbitReport", "enumerate_orbits",
    "is_irreducible", "matrix_realization",
    "ImplicationReport", "orbit_implication_report",
    "mat_identity", "mat_mul", "mat_det", "mat_inv", "mat_kron",
]
