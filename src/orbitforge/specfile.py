"""Group-spec documents: the JSON ingestion format for action instances.

A document looks like

    {"action": {"kind": "semilinear"}, "field": {"p": 2, "k": 1, "n": 4},
     "generators": [{"twist": 1, "scalar": 0}, ...]}

with kind-specific extras: matrix adds "dim" under "action" and takes
row-major integer generator matrices mod p; wreath adds "m" and
"top_gens" (1-indexed one-line images) and its generators are the inner
semilinear generators of the base group.  Field elements on the wire are
-1 for zero, otherwise the exponent of the primitive element.
"""

import json
from numbers import Integral

from .action import ActionInstance, MatrixAction, SemilinearAction, WreathAction, mat_det
from .constructions import WreathSpec, build_wreath
from .errors import CapExceeded, SchemaError
from .field import FieldContext, check_field_args, make_field
from .permutation import perm_from_one_line, perm_to_one_line

KINDS = ("semilinear", "matrix", "wreath")


def load_spec_path(path: str) -> ActionInstance:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read group spec {path}: {exc}") from exc
    return instance_from_spec(doc)


def instance_from_spec(doc) -> ActionInstance:
    if not isinstance(doc, dict):
        raise SchemaError("group spec must be a JSON object")
    action = doc.get("action")
    if not isinstance(action, dict) or action.get("kind") not in KINDS:
        raise SchemaError(f"action.kind must be one of {KINDS}")
    kind = action["kind"]
    gens = doc.get("generators")
    if not isinstance(gens, list) or not gens:
        raise SchemaError("generators must be a nonempty list")
    if kind == "semilinear":
        ctx = _field_from(doc)
        maps = [_semilinear_gen(ctx, g) for g in gens]
        return ActionInstance(SemilinearAction(ctx), maps)
    if kind == "matrix":
        return _matrix_instance(doc, action, gens)
    return _wreath_instance(doc, action, gens)


def _int(value, what: str) -> int:
    """value as an int; strings, floats, booleans, null and containers are schema errors."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _field_numbers(doc) -> tuple[int, int, int]:
    spec = doc.get("field")
    if not isinstance(spec, dict) or "p" not in spec:
        raise SchemaError("field must be an object {p, k, n} with at least p")
    return (_int(spec["p"], "field.p"), _int(spec.get("k", 1), "field.k"),
            _int(spec.get("n", 1), "field.n"))


def _field_from(doc) -> FieldContext:
    p, k, n = _field_numbers(doc)
    spec = doc["field"]
    try:
        return make_field(p, k, n)
    except CapExceeded:  # a field over the size cap exits 3
        raise
    except Exception as exc:
        raise SchemaError(f"cannot build field {spec}: {exc}") from exc


def _semilinear_gen(ctx, g):
    if not isinstance(g, dict) or "twist" not in g or "scalar" not in g:
        raise SchemaError(f"semilinear generator must be {{twist, scalar}}, got {g}")
    t, e = _int(g["twist"], "twist"), _int(g["scalar"], "scalar")
    if not 0 <= t < ctx.n:
        raise SchemaError(f"twist {t} out of range for n = {ctx.n}")
    if not 0 <= e < ctx.order:
        raise SchemaError(f"scalar exponent {e} out of range (nonzero scalars only)")
    return (t, e)


def _matrix_instance(doc, action, gens) -> ActionInstance:
    p = _field_numbers(doc)[0]
    try:
        check_field_args(p, 1, 1)
    except ValueError as exc:
        raise SchemaError(f"matrix spec needs a prime field.p: {exc}") from exc
    if "dim" not in action:
        raise SchemaError("matrix spec needs action.dim")
    dim = _int(action["dim"], "action.dim")
    if dim < 1:
        raise SchemaError(f"dim must be positive, got {dim}")
    mats = []
    for g in gens:  # before the backend, which computes p ** dim
        if not isinstance(g, list) or len(g) != dim * dim:
            raise SchemaError(f"matrix generator must be a row-major list of {dim * dim} ints")
        mat = tuple(_int(v, "matrix entry") % p for v in g)
        if mat_det(mat, dim, p) == 0:
            raise SchemaError(f"generator {g} is singular mod {p}")
        mats.append(mat)
    return ActionInstance(MatrixAction(p, dim), mats)


def _wreath_instance(doc, action, gens) -> ActionInstance:
    ctx = _field_from(doc)
    if "m" not in action or "top_gens" not in action:
        raise SchemaError("wreath spec needs action.m and action.top_gens")
    m, top = _int(action["m"], "action.m"), action["top_gens"]
    if m < 1:
        raise SchemaError(f"m must be positive, got {m}")
    if not isinstance(top, list) or not top or not all(isinstance(images, list) for images in top):
        raise SchemaError("top_gens must be a nonempty list of one-line images")
    try:
        perms = tuple(perm_from_one_line([_int(v, "top image") for v in images]) for images in top)
    except ValueError as exc:
        raise SchemaError(f"bad top generator: {exc}") from exc
    if any(len(images) != m for images in top):
        raise SchemaError(f"top generators must have length m = {m}")
    inner = tuple(_semilinear_gen(ctx, g) for g in gens)
    try:
        return build_wreath(WreathSpec(ctx, inner, m, perms))
    except (SchemaError, CapExceeded):  # a top group over the element cap exits 3
        raise
    except Exception as exc:
        raise SchemaError(f"cannot build wreath instance: {exc}") from exc


def instance_to_spec(instance: ActionInstance) -> dict:
    """Serialize back to the ingestion format (inverse of instance_from_spec)."""
    backend = instance.backend
    if isinstance(backend, SemilinearAction):
        ctx = backend.ctx
        return {
            "action": {"kind": "semilinear"},
            "field": {"p": ctx.p, "k": ctx.k, "n": ctx.n},
            "generators": [{"twist": t, "scalar": e} for t, e in instance.generators],
        }
    if isinstance(backend, MatrixAction):
        return {
            "action": {"kind": "matrix", "dim": backend.dim},
            "field": {"p": backend.p, "k": 1, "n": 1},
            "generators": [list(g) for g in instance.generators],
        }
    if isinstance(backend, WreathAction):
        spec = instance.wreath
        if spec is None:
            raise SchemaError("wreath instance lacks its construction data; cannot serialize")
        ctx = spec.inner
        return {
            "action": {"kind": "wreath", "m": spec.m,
                       "top_gens": [perm_to_one_line(p) for p in spec.top_gens]},
            "field": {"p": ctx.p, "k": ctx.k, "n": ctx.n},
            "generators": [{"twist": t, "scalar": e} for t, e in spec.inner_gens],
        }
    raise SchemaError(f"unknown backend {backend!r}")


def dumps_canonical(obj) -> str:
    """Compact JSON with a stable layout, for byte-comparable outputs."""
    return json.dumps(obj, separators=(",", ":"))


__all__ = ["load_spec_path", "instance_from_spec", "instance_to_spec", "dumps_canonical", "KINDS"]
