"""Command-line front end.

Subcommands:

  orbits <spec.json>            orbit report of a group-spec file as JSON
  verify <name> [params]        re-check every claim of a named construction
  prop2 <spec.json>             regular-orbit criterion vs. brute force
  search <config.json>          randomized counterexample search
  field-info --p --k --n        field context summary
  gluck <perm-spec.json>        power-set regular orbit of a permutation group

Exit codes: 0 success, 1 failed claim or criterion/oracle disagreement,
2 schema or parameter error, 3 resource cap exceeded.  All structured
output goes to stdout as JSON; diagnostics go to stderr.
"""

import argparse
import json
import sys

from .action import (
    SemilinearAction,
    enumerate_orbits,
    is_irreducible,
    orbit_implication_report,
)
from .constructions import build_example1, build_example2, wolf_family
from .errors import (
    CapExceeded,
    DegenerateField,
    GcdViolation,
    NonPrime,
    OrbitforgeError,
    SchemaError,
)
from .field import check_field_args, smallest_primitive_polynomial
from .permutation import PermGroup, is_transitive, perm_from_one_line, power_set_regular_orbit
from .search import SearchConfig, run_search
from .semilinear import _criterion
from .specfile import _int, dumps_canonical, load_spec_path

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_CAP = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SchemaError, ValueError, OSError) as exc:
        # malformed documents and bad parameters, including the
        # ValueError-derived domain errors like NonPrime or GcdViolation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OrbitforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orbitforge")
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbits = sub.add_parser("orbits", help="orbit report for a group-spec file")
    p_orbits.add_argument("spec")
    p_orbits.set_defaults(func=cmd_orbits)

    p_verify = sub.add_parser("verify", help="re-check a named construction")
    p_verify.add_argument("name", choices=["example1", "example2", "wolf"])
    p_verify.add_argument("--p", type=int)
    p_verify.add_argument("--k", type=int, default=1)
    p_verify.add_argument("--n", type=int, default=1)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--json", action="store_true", dest="as_json")
    p_verify.set_defaults(func=cmd_verify)

    p_prop2 = sub.add_parser("prop2", help="regular-orbit criterion with oracle cross-check")
    p_prop2.add_argument("spec")
    p_prop2.set_defaults(func=cmd_prop2)

    p_search = sub.add_parser("search", help="randomized counterexample search")
    p_search.add_argument("config")
    p_search.add_argument("--out", default="results.jsonl")
    p_search.set_defaults(func=cmd_search)

    p_field = sub.add_parser("field-info", help="field context summary")
    p_field.add_argument("--p", type=int, required=True)
    p_field.add_argument("--k", type=int, default=1)
    p_field.add_argument("--n", type=int, default=1)
    p_field.set_defaults(func=cmd_field_info)

    p_gluck = sub.add_parser("gluck", help="power-set regular orbit of a permutation group")
    p_gluck.add_argument("spec")
    p_gluck.set_defaults(func=cmd_gluck)
    return parser


def cmd_orbits(args) -> int:
    instance = load_spec_path(args.spec)
    report = enumerate_orbits(instance)
    print(dumps_canonical(report.to_json_dict()))
    return EXIT_OK


def cmd_prop2(args) -> int:
    instance = load_spec_path(args.spec)
    if not isinstance(instance.backend, SemilinearAction):
        raise SchemaError("prop2 needs a semilinear group spec")
    decision = _criterion(instance.backend.ctx, *instance._schreier)  # the sweep's record too
    oracle = enumerate_orbits(instance)
    agrees = oracle.regular_exists == decision.has_regular_orbit
    out = decision.to_json_dict()
    out["oracle_agrees"] = agrees
    print(dumps_canonical(out))
    return EXIT_OK if agrees else EXIT_FAIL


def verify_claims(name: str, p=None, k=1, n=1, m=None) -> list[tuple[str, bool]]:
    """(claim, passed) pairs for a named construction."""
    if name == "example1":
        report = orbit_implication_report(build_example1())
        return [
            ("acts faithfully and irreducibly", report.faithful and report.irreducible),
            ("has a 3-regular orbit and a 5-regular orbit",
             report.p_regular.get(3, False) and report.p_regular.get(5, False)),
            ("has no regular orbit", not report.regular_exists),
        ]
    if name == "example2":
        report = orbit_implication_report(build_example2())
        return [
            ("group order is 1152 = 2^7 * 3^2", report.group_order == 1152),
            ("acts faithfully and irreducibly", report.faithful and report.irreducible),
            ("has a 2-regular orbit and a 3-regular orbit",
             report.p_regular.get(2, False) and report.p_regular.get(3, False)),
            ("has no regular orbit", not report.regular_exists),
        ]
    if name == "wolf":
        if p is None or m is None:
            raise SchemaError("wolf needs --p and --m (and usually --k/--n)")
        try:
            instance, record = wolf_family(p, k, n, m)
        except (DegenerateField, GcdViolation, NonPrime) as exc:
            raise SchemaError(f"bad wolf parameters: {exc}") from exc
        return [
            ("acts faithfully and irreducibly", is_irreducible(instance)),
            (f"C is one orbit of size |G|/m = {record.c_size}, p-regular for p | q^n-1",
             record.c_orbit_confirmed),
            (f"D is one orbit of size m(q^n-1) = {record.d_size}, p-regular for p | m",
             record.d_orbit_confirmed),
            ("a p-regular orbit exists for every prime p dividing |G|",
             record.p_regular_all),
            ("no regular orbit exists", not record.regular_exists),
        ]
    raise SchemaError(f"unknown example name {name!r}")


def cmd_verify(args) -> int:
    claims = verify_claims(args.name, p=args.p, k=args.k, n=args.n, m=args.m)
    if args.as_json:
        doc = {"example": args.name,
               "claims": [{"claim": c, "passed": ok} for c, ok in claims],
               "all_passed": all(ok for _, ok in claims)}
        print(dumps_canonical(doc))
    else:
        for claim, ok in claims:
            print(f"{'PASS' if ok else 'FAIL'}  {claim}")
    return EXIT_OK if all(ok for _, ok in claims) else EXIT_FAIL


def cmd_search(args) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read search config {args.config}: {exc}") from exc
    cfg = SearchConfig.from_dict(doc)
    summary = run_search(cfg, out_path=args.out)
    print(f"search: {summary['records']} records, "
          f"{summary['counterexamples']} counterexamples", file=sys.stderr)
    return EXIT_OK


def cmd_field_info(args) -> int:
    p, k, n = args.p, args.k, args.n
    check_field_args(p, k, n)  # no exp/log tables: the summary needs only the polynomial
    print(dumps_canonical({
        "p": p, "k": k, "n": n, "q": p ** k,
        "degree": k * n, "size": p ** (k * n),
        "poly": list(smallest_primitive_polynomial(p, k * n)),
    }))
    return EXIT_OK


def cmd_gluck(args) -> int:
    try:
        with open(args.spec) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read permutation spec {args.spec}: {exc}") from exc
    if not isinstance(doc, dict) or "degree" not in doc or "generators" not in doc:
        raise SchemaError("permutation spec needs degree and generators")
    try:
        degree = _int(doc["degree"], "degree")
        gens = tuple(perm_from_one_line([_int(v, "image") for v in images])
                     for images in doc["generators"])
        group = PermGroup(degree, gens)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad permutation spec: {exc}") from exc
    witness = power_set_regular_orbit(group)
    print(dumps_canonical({
        "degree": degree,
        "order": group.order,
        "transitive": is_transitive(group),
        "witness": list(witness) if witness is not None else None,
    }))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
