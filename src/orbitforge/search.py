"""Seeded randomized search for actions where p-regularity for every prime
fails to force a regular orbit.

A search draws generating sets from configured ambient groups (semilinear,
matrix, or wreath templates), filters them by the configured parity of the
group order and field characteristic, keeps only faithful irreducible
instances, and reports one JSON record per kept instance.  Everything is
driven by one seeded generator, so a config reproduces its exact record
stream; counterexample records carry their full group spec for replay.
"""

import json
import random
import sys
from dataclasses import dataclass
from math import lcm

from . import __version__ as VERSION
from . import config as caps
from .action import (
    ActionInstance,
    MatrixAction,
    SemilinearAction,
    _check_point_cap,
    is_irreducible,
    mat_det,
    orbit_implication_report,
)
from .constructions import WreathSpec, build_example1, build_example2, build_wreath
from .errors import CapExceeded, IntransitiveTop, SchemaError
from .field import make_field
from .permutation import compose_perm
from .semilinear import compose, element_order
from .specfile import _field_from, _int, instance_to_spec


@dataclass(frozen=True)
class SearchConfig:
    templates: tuple[dict, ...]
    samples: int
    seed: int
    gen_count: tuple[int, int] = (1, 3)
    odd_order: bool | None = None
    odd_characteristic: bool | None = None
    include_examples: bool = False
    max_attempts: int = 400

    @classmethod
    def from_dict(cls, doc) -> "SearchConfig":
        if not isinstance(doc, dict):
            raise SchemaError("search config must be a JSON object")
        try:
            samples = _int(doc["samples"], "samples")
            seed = _int(doc["seed"], "seed")
            raw_templates = doc["templates"]
        except KeyError as exc:
            raise SchemaError(f"search config needs samples, seed, templates: {exc}") from exc
        if samples < 0:
            raise SchemaError("samples must be nonnegative")
        if not isinstance(raw_templates, list) or not raw_templates:
            raise SchemaError("templates must be a nonempty list")
        templates = tuple(_validated_template(t) for t in raw_templates)
        gen_count = doc.get("gen_count", (1, 3))
        if not (isinstance(gen_count, (list, tuple)) and len(gen_count) == 2
                and 1 <= _int(gen_count[0], "gen_count[0]") <= _int(gen_count[1], "gen_count[1]")):
            raise SchemaError(f"gen_count must be [lo, hi] with 1 <= lo <= hi, got {gen_count!r}")
        odd_char = _flag(doc, "odd_characteristic", None)
        if odd_char is not None:
            # drop templates a characteristic filter could never accept
            templates = tuple(t for t in templates
                              if (t["field"]["p"] % 2 == 1) == odd_char)
            if not templates:
                raise SchemaError("no template matches the characteristic filter")
        return cls(
            templates=templates,
            samples=samples,
            seed=seed,
            gen_count=tuple(gen_count),
            odd_order=_flag(doc, "odd_order", None),
            odd_characteristic=odd_char,
            include_examples=_flag(doc, "include_examples", False),
            max_attempts=_int(doc.get("max_attempts", 400), "max_attempts"),
        )


def _flag(doc: dict, key: str, default: bool | None) -> bool | None:
    """doc[key] as a JSON boolean, also null where the default is null."""
    value = doc.get(key, default)
    if not isinstance(value, bool) and (value is not None or default is not None):
        either = "true, false or null" if default is None else "true or false"
        raise SchemaError(f"{key} must be {either}, got {value!r}")
    return value


def _validated_template(t) -> dict:
    if not isinstance(t, dict) or t.get("kind") not in ("semilinear", "matrix", "wreath"):
        raise SchemaError(f"template kind must be semilinear/matrix/wreath: {t}")
    ctx = _field_from(t)  # the spec reader: JSON integers, and over the size cap exits 3
    out = {"kind": t["kind"], "field": {"p": ctx.p, "k": ctx.k, "n": ctx.n}}
    if t["kind"] == "matrix":
        out["dim"] = _int(t.get("dim", 2), "template dim")
        if out["dim"] < 1:
            raise SchemaError(f"template dim must be positive: {t}")
    if t["kind"] == "wreath":
        out["m"] = _int(t.get("m", 2), "template m")
        if out["m"] < 1:
            raise SchemaError(f"template m must be positive: {t}")
    return out


def _odd_part_power(mul, g, order: int):
    """g raised to the 2-part of its order, leaving the odd part."""
    while order % 2 == 0:
        g = mul(g, g)
        order //= 2
    return g


def _cycle_lcm(perm: list[int], starts) -> int:
    """lcm of the lengths of the cycles of perm through the points starts."""
    out = 1
    for x in starts:
        y, length = perm[x], 1
        while y != x:
            y, length = perm[y], length + 1
        out = lcm(out, length)
    return out


def _draw_instance(rng, template, gen_count, force_odd: bool) -> ActionInstance:
    kind = template["kind"]
    fld = template["field"]
    count = rng.randint(*gen_count)
    if kind == "semilinear":
        ctx = make_field(fld["p"], fld["k"], fld["n"])
        backend = SemilinearAction(ctx)
        gens = [(rng.randrange(ctx.n), rng.randrange(max(ctx.order, 1)))
                for _ in range(count)]
        if force_odd:
            gens = [_odd_part_power(backend.mul, g, element_order(ctx, g)) for g in gens]
        return ActionInstance(backend, gens)
    if kind == "matrix":
        p, dim = fld["p"], template["dim"]
        backend = MatrixAction(p, dim)
        gens = []
        for _ in range(count):
            while True:
                mat = tuple(rng.randrange(p) for _ in range(dim * dim))
                if mat_det(mat, dim, p) != 0:
                    break
            gens.append(mat)
        if force_odd:  # only the identity fixes every e_j, of code p^j
            _check_point_cap(backend.point_count)
            gens = [_odd_part_power(backend.mul, g, _cycle_lcm(
                backend.perm_array(g).tolist(), [p ** j for j in range(dim)])) for g in gens]
        return ActionInstance(backend, gens)
    ctx = make_field(fld["p"], fld["k"], fld["n"])
    m = template["m"]
    inner = []
    for _ in range(count):
        g = (rng.randrange(ctx.n), rng.randrange(max(ctx.order, 1)))
        if force_odd:
            g = _odd_part_power(lambda a, b: compose(ctx, a, b), g, element_order(ctx, g))
        inner.append(g)
    tops = []
    for _ in range(max(1, count - 1)):
        perm = tuple(rng.sample(range(m), m))
        if force_odd:
            perm = _odd_part_power(compose_perm, perm, _cycle_lcm(perm, range(m)))
        tops.append(perm)
    return build_wreath(WreathSpec(ctx, tuple(inner), m, tuple(tops)))


def _kept_record(cfg: SearchConfig, instance: ActionInstance, index: int,
                 source: str) -> dict | None:
    """The instance's record if it passes the parity filters and acts
    faithfully and irreducibly, else None.  The characteristic is tested
    first; a matrix group whose |G| needs chain_order is then swept once,
    and rejected if reducible or, under odd_order, if an orbit length (a
    divisor of |G|) is even.  Only then come |G|, its parity and the
    orbit_implication_report, which reuses the sweep."""
    if cfg.odd_characteristic is not None:
        if (instance.backend.characteristic % 2 == 1) != cfg.odd_characteristic:
            return None
    if isinstance(instance.backend, MatrixAction) and instance.known_order is None:
        reps, sizes = instance._orbits
        if (cfg.odd_order and (sizes % 2 == 0).any()
                or not is_irreducible(instance, reps=reps.tolist())):
            return None
    if cfg.odd_order is not None:
        if (instance.group_order % 2 == 1) != cfg.odd_order:
            return None
    report = orbit_implication_report(instance)
    if not (report.faithful and report.irreducible):
        return None
    record = {"index": index, "source": source, "spec": instance_to_spec(instance)}
    record.update(report.to_json_dict())
    return record


def iter_search(cfg: SearchConfig, workers: int = 1, log=None):
    """Yield one record dict per kept instance, deterministically.

    Known example constructions come first when include_examples is set
    (only those matching the parity filters); then seeded random samples
    until cfg.samples records are produced or the attempt budget runs out.
    Each sample is swept once, and a matrix sample is tested on its sweep
    before chain_order gives |G| (see _kept_record); a record is yielded as
    soon as it is kept.  Cap violations are logged and skipped, never fatal.
    workers has no effect.
    """
    del workers
    log = log if log is not None else sys.stderr
    index = 0
    if cfg.include_examples:
        for name, builder in (("example1", build_example1), ("example2", build_example2)):
            record = _kept_record(cfg, builder(), index, name)
            if record is not None:
                yield record
                index += 1
    rng = random.Random(cfg.seed)
    accepted = 0
    budget = cfg.samples * cfg.max_attempts
    while accepted < cfg.samples and budget > 0:
        template = rng.choice(cfg.templates)
        budget -= 1
        try:
            instance = _draw_instance(rng, template, cfg.gen_count,
                                      force_odd=cfg.odd_order is True)
            record = _kept_record(cfg, instance, index, f"sample-{accepted}")
        except (CapExceeded, IntransitiveTop) as exc:
            print(f"search: skipped a sample ({exc})", file=log)
            continue
        if record is not None:
            yield record
            index += 1
            accepted += 1
    if accepted < cfg.samples:
        print(f"search: attempt budget exhausted after {accepted} accepted samples", file=log)


def run_search(cfg: SearchConfig, out_path: str | None = None, stream=None,
               workers: int = 1, log=None) -> dict:
    """Stream records as JSON lines; persist counterexamples for replay.

    Returns a summary dict.  Counterexample records are appended to
    out_path as JSON lines wrapped with the run metadata needed to replay
    them (seed, caps, version).  workers has no effect.
    """
    del workers
    stream = stream if stream is not None else sys.stdout
    meta = {"seed": cfg.seed, "samples": cfg.samples,
            "element_cap": caps.element_cap(), "point_cap": caps.point_cap(),
            "version": VERSION}
    total = 0
    hits = 0
    sink = open(out_path, "a") if out_path else None
    try:
        for record in iter_search(cfg, log=log):
            total += 1
            print(json.dumps(record, separators=(",", ":")), file=stream)
            if record["is_counterexample"]:
                hits += 1
                if sink is not None:
                    wrapped = {"run": meta, "record": record}
                    print(json.dumps(wrapped, separators=(",", ":")), file=sink)
    finally:
        if sink is not None:
            sink.close()
    return {"records": total, "counterexamples": hits}


__all__ = ["SearchConfig", "iter_search", "run_search", "VERSION"]
