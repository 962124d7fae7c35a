"""Acceptance gate: every criterion at its stated tolerance, one line each.

Each criterion computes its artifacts through a builder that takes a worker
count and returns canonical JSON; the determinism criterion at the end
recomputes every artifact in this process (a second run) and in a fresh
interpreter under a different PYTHONHASHSEED, and compares byte for byte.
Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from math import gcd

from orbitforge import action as A
from orbitforge import constructions as C
from orbitforge import field as F
from orbitforge import permutation as P
from orbitforge import semilinear as sl
from orbitforge.arith import is_prime, prime_factors
from orbitforge.constructions import WreathSpec, build_wreath
from orbitforge.field import make_field
from orbitforge.search import SearchConfig, iter_search

from helpers import act_by_formula

GOLDEN_EXAMPLE2 = (1, 48, 48, 48, 144, 144, 144, 192, 192, 192, 288, 288, 288, 384)

ARTIFACTS: dict[int, str] = {}

# sha256 of each criterion's artifact, pinned: a changed artifact fails its criterion
GOLDEN_SHA256 = {
    1: "6d85daeaedb2027ac45c82e8e0fc6b74e4fc0cde6935536b6d2fb51f386f4e5e",
    2: "76bd50f6cb16f30c344d3ed151cf10614a7a07d712f10b132cdb7be85ec95f03",
    3: "206e60a308f972388edfddc33b016dd43272c4874291c153a336be07d1586fae",
    4: "1ce0b8f52e318bab4a18645eb736b1c40df45bf9ef65ae3d70109d9ead7cf21f",
    5: "045501d0ddc1cf34833f43fa25ac542a23ba44a0a49b969319af4c1f978474c7",
    6: "26e3175e346ceaf2c6e701db1fa2f32d09406515e7f5a36507c9e802f02c85e2",
    7: "bed16ec4219285d7decb15637f1dd4693eedfb3f8d72858db0acdacdb8605943",
    8: "08548402ea055065f6b8f7c5f087506df4be66928a6aa2204cf1d5171900dfb4",
    9: "5fd7709c9b8bf16302109bb89d6c07239b1399ee1dce1ead7c11114d67ded418",
}


def canon(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def assert_golden(*crits):
    for crit in crits:
        digest = hashlib.sha256(ARTIFACTS[crit].encode()).hexdigest()
        assert digest == GOLDEN_SHA256[crit], f"criterion {crit} artifact has sha256 {digest}"


# -- builders ---------------------------------------------------------------

def artifact_c1(workers: int) -> dict[int, str]:
    inst = C.build_example2()
    rep = A.enumerate_orbits(inst, workers=workers)
    return {1: canon(rep.to_json_dict())}


def artifact_c2(workers: int) -> dict[int, str]:
    inst = C.build_example1()
    rep = A.enumerate_orbits(inst, workers=workers)
    doc = rep.to_json_dict()
    doc["faithful"] = A.orbit_implication_report(inst).faithful
    doc["irreducible"] = A.is_irreducible(inst)
    return {2: canon(doc)}


def artifact_c3(workers: int) -> dict[int, str]:
    del workers  # pure arithmetic, nothing to partition
    entries = []
    for p in (x for x in range(2, 257) if is_prime(x)):
        if p * p > 2 ** 16:
            break
        k = 1
        while p ** (2 * k) <= 2 ** 16:
            n = 2
            while p ** (k * n) <= 2 ** 16:
                ctx = make_field(p, k, n)
                for s in prime_factors(n):
                    n_sub = sl.norm_one_subgroup(ctx, s)
                    formula = (ctx.q ** n - 1) // (ctx.q ** (n // s) - 1)
                    if not n_sub.order == formula == len(n_sub.elements):
                        raise AssertionError((p, k, n, s))
                    entries.append({"p": p, "k": k, "n": n, "s": s, "order": formula})
                n += 1
            k += 1
    return {3: canon(entries)}


SURVEY_SPLITS = [
    (2, 1, 2),            # 4
    (2, 1, 3),            # 8
    (3, 1, 2),            # 9
    (2, 1, 4), (2, 2, 2),  # 16
    (5, 1, 2),            # 25
    (3, 1, 3),            # 27
    (2, 1, 6), (2, 2, 3), (2, 3, 2),  # 64
]


def artifact_c45(workers: int) -> dict[int, str]:
    agreement = []
    covering = []
    for (p, k, n) in SURVEY_SPLITS:
        ctx = make_field(p, k, n)
        for elements, gens in sl.small_subgroup_survey(ctx):
            decision = sl.regular_orbit_criterion(ctx, elements, assume_subgroup=True,
                                                  workers=workers)
            inst = A.ActionInstance(A.SemilinearAction(ctx), list(gens), known_order=len(elements))
            oracle = A.enumerate_orbits(inst, workers=workers)
            assert decision.has_regular_orbit == oracle.regular_exists, (p, k, n, gens)
            agreement.append({
                "field": [p, k, n], "generators": [list(g) for g in gens],
                "subgroup_order": len(elements),
                "criterion": decision.has_regular_orbit,
                "oracle": oracle.regular_exists,
            })
            if decision.has_regular_orbit:
                continue
            witness = sl.covering_prime_witness(ctx, elements, assume_subgroup=True,
                                                workers=workers)
            for code, fixer in enumerate(witness.fixers):
                v = F.ZERO if code == 0 else code - 1
                assert sl.apply_map(ctx, fixer, v) == v
                assert sl.element_order(ctx, fixer) == witness.prime
            assert len(witness.fixers) == ctx.size
            covering.append({
                "field": [p, k, n], "generators": [list(g) for g in gens],
                "prime": witness.prime,
                "fixers": [list(fx) for fx in witness.fixers],
            })
    return {4: canon(agreement), 5: canon(covering)}


def artifact_c6(workers: int) -> dict[int, str]:
    entries = []
    for size in range(3, 1025):
        factors = prime_factors(size)
        if len(factors) != 1:
            continue
        p = factors[0]
        d = 0
        x = size
        while x > 1:
            x //= p
            d += 1
        m = 2
        while size ** m <= 2 ** 20:
            if gcd(size - 1, m) == 1:
                _, record = C.wolf_family(p, 1, d, m, workers=workers)
                assert record.all_claims_hold, (size, m)
                assert record.c_size == record.group_order // m
                assert record.d_size == m * (size - 1)
                entries.append({
                    "field_size": size, "m": m, "group_order": record.group_order,
                    "c_size": record.c_size, "d_size": record.d_size,
                    "regular": record.regular_exists,
                })
            m += 1
    return {6: canon(entries)}


ODD_ODD_SEARCH = {
    "samples": 1000, "seed": 20240308,
    "odd_order": True, "odd_characteristic": True,
    "templates": [
        {"kind": "semilinear", "field": {"p": 3, "k": 1, "n": 4}},
        {"kind": "semilinear", "field": {"p": 5, "k": 1, "n": 2}},
        {"kind": "matrix", "field": {"p": 7}, "dim": 2},
        {"kind": "wreath", "field": {"p": 11}, "m": 3},
        {"kind": "wreath", "field": {"p": 7}, "m": 3},
    ],
}
CHAR2_SEARCH = {
    "samples": 60, "seed": 20240308, "odd_characteristic": False,
    "include_examples": True,
    "templates": [
        {"kind": "wreath", "field": {"p": 2, "k": 1, "n": 2}, "m": 5},
        {"kind": "semilinear", "field": {"p": 2, "k": 1, "n": 4}},
        {"kind": "semilinear", "field": {"p": 2, "k": 1, "n": 6}},
    ],
}
EVEN_ORDER_SEARCH = {
    "samples": 60, "seed": 20240308,
    "odd_order": False, "odd_characteristic": True,
    "include_examples": True,
    "templates": [
        {"kind": "matrix", "field": {"p": 7}, "dim": 2},
        {"kind": "semilinear", "field": {"p": 5, "k": 1, "n": 2}},
        {"kind": "semilinear", "field": {"p": 3, "k": 1, "n": 4}},
    ],
}


def artifact_c7(workers: int) -> dict[int, str]:
    out = {}
    for name, raw in (("odd_odd", ODD_ODD_SEARCH), ("char2", CHAR2_SEARCH),
                      ("even_order", EVEN_ORDER_SEARCH)):
        cfg = SearchConfig.from_dict(raw)
        records = list(iter_search(cfg, workers=workers, log=io.StringIO()))
        out[name] = records
    assert len(out["odd_odd"]) == 1000
    assert sum(r["is_counterexample"] for r in out["odd_odd"]) == 0
    assert sum(r["is_counterexample"] for r in out["char2"]) >= 1
    assert sum(r["is_counterexample"] for r in out["even_order"]) >= 1
    return {7: canon(out)}


SIGN_POOL = [
    # (p, k, n, inner generator) with odd inner order
    (7, 1, 1, "order3"),
    (11, 1, 1, "order5"),
    (13, 1, 1, "order3"),
    (19, 1, 1, "order9"),
    (31, 1, 1, "order15"),
    (3, 1, 3, "twisted3"),
]


def _sign_pool_generator(ctx, tag):
    if tag.startswith("order"):
        d = int(tag[5:])
        assert ctx.order % d == 0
        return (0, ctx.order // d)
    # twisted3: a twist-1 map of order 3 over GF(27)
    g = (1, 2)
    assert sl.element_order(ctx, g) == 3
    return g


def artifact_c8(workers: int) -> dict[int, str]:
    del workers  # witnesses are scalar work; determinism is the contract
    rng = random.Random(20250808)
    entries = []
    while len(entries) < 50:
        p, k, n, tag = SIGN_POOL[rng.randrange(len(SIGN_POOL))]
        ctx = make_field(p, k, n)
        gen = _sign_pool_generator(ctx, tag)
        inner = sl.subgroup_closure(ctx, [gen])
        m = rng.choice([3, 5])
        if len(inner) ** m * m > 2 * 10 ** 5:
            m = 3
        if len(inner) ** m * m > 2 * 10 ** 5:
            continue
        cycle = tuple((i + 1) % m for i in range(m))
        inst = build_wreath(WreathSpec(ctx, (gen,), m, (cycle,)))
        z = []
        for _ in range(m):
            while True:
                v = rng.randrange(ctx.order)
                if all(sl.apply_map(ctx, h, v) != v for h in inner if h != sl.IDENTITY):
                    z.append(v)
                    break
        partition = P.trivial_stabilizer_partition(P.PermGroup(m, (cycle,)))
        y = C.sign_pairing_witness(inst, tuple(z), partition)
        # independent check: scan the whole group for stabilizing elements
        elements = A.closure(inst.backend, inst.generators)
        if len(elements) != inst.group_order:
            raise AssertionError((p, k, n, tag, m, len(elements), inst.group_order))
        code = 0
        weight = 1
        for yi in y:
            code += (yi + 1) * weight
            weight *= ctx.size
        stab = [g for g in elements if act_by_formula(inst.backend, g, code) == code]
        if stab != [inst.backend.identity]:
            raise AssertionError((p, k, n, tag, m, z))
        entries.append({"field": [p, k, n], "inner": list(gen), "m": m,
                        "z": list(z), "y": list(y)})
    return {8: canon(entries)}


def artifact_c9(workers: int) -> dict[int, str]:
    del workers
    corpus = [("cyclic", P.cyclic_group(d)) for d in (3, 5, 7, 9, 11, 13, 15)]
    corpus += [("wreath", P.cyclic_wreath(3, 3)), ("wreath", P.cyclic_wreath(5, 3)),
               ("wreath", P.cyclic_wreath(3, 5))]
    entries = []
    for kind, group in corpus:
        if not (group.order % 2 == 1 and P.is_transitive(group)):
            raise AssertionError((kind, group.degree))
        witness = P.power_set_regular_orbit(group)
        if witness is None:
            raise AssertionError((kind, group.degree))
        mask = P.points_to_mask(witness)
        stabilizer = [g for g in group.elements if P.subset_image(g, mask) == mask]
        if stabilizer != [P.identity_perm(group.degree)]:
            raise AssertionError((kind, group.degree, witness))
        entries.append({"kind": kind, "degree": group.degree, "order": group.order,
                        "witness": list(witness)})
    return {9: canon(entries)}


BUILDERS = [artifact_c1, artifact_c2, artifact_c3, artifact_c45,
            artifact_c6, artifact_c7, artifact_c8, artifact_c9]


# -- criteria ---------------------------------------------------------------

def test_criterion_1_example2_golden():
    t0 = time.time()
    ARTIFACTS.update(artifact_c1(workers=1))
    assert_golden(1)
    doc = json.loads(ARTIFACTS[1])
    assert doc["group_order"] == 1152
    assert tuple(doc["orbit_lengths"]) == GOLDEN_EXAMPLE2
    assert sum(doc["orbit_lengths"]) == 2401
    elapsed = time.time() - t0
    assert elapsed < 5
    print(f"\nACCEPTANCE 1 PASS: |G| = 1152 with the golden orbit multiset ({elapsed:.1f}s)")


def test_criterion_2_example1_claims():
    t0 = time.time()
    ARTIFACTS.update(artifact_c2(workers=1))
    assert_golden(2)
    doc = json.loads(ARTIFACTS[2])
    assert doc["faithful"] is True
    assert doc["irreducible"] is True
    assert doc["p_regular"] == {"3": True, "5": True}
    assert doc["regular"] is False
    elapsed = time.time() - t0
    assert elapsed < 5
    print(f"ACCEPTANCE 2 PASS: wreath counterexample verified on 2^10 points ({elapsed:.1f}s)")


def test_criterion_3_norm_order_formula():
    t0 = time.time()
    ARTIFACTS.update(artifact_c3(workers=1))
    assert_golden(3)
    entries = json.loads(ARTIFACTS[3])
    assert len(entries) >= 100
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"ACCEPTANCE 3 PASS: norm-one order formula on {len(entries)} grid points ({elapsed:.1f}s)")


def test_criterion_4_and_5_criterion_oracle_and_covering():
    t0 = time.time()
    ARTIFACTS.update(artifact_c45(workers=1))
    assert_golden(4, 5)
    agreement = json.loads(ARTIFACTS[4])
    covering = json.loads(ARTIFACTS[5])
    assert all(e["criterion"] == e["oracle"] for e in agreement)
    without_regular = [e for e in agreement if not e["criterion"]]
    assert len(covering) == len(without_regular) > 0
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"ACCEPTANCE 4 PASS: criterion agrees with brute force on {len(agreement)} subgroups ({elapsed:.1f}s)")
    print(f"ACCEPTANCE 5 PASS: covering primes certified for {len(covering)} subgroups")


def test_criterion_6_wolf_grid():
    t0 = time.time()
    ARTIFACTS.update(artifact_c6(workers=1))
    assert_golden(6)
    entries = json.loads(ARTIFACTS[6])
    assert len(entries) >= 40
    assert all(not e["regular"] for e in entries)
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"ACCEPTANCE 6 PASS: appendix family verified on {len(entries)} members ({elapsed:.1f}s)")


def test_criterion_7_search_regimes():
    t0 = time.time()
    ARTIFACTS.update(artifact_c7(workers=1))
    assert_golden(7)
    out = json.loads(ARTIFACTS[7])
    assert len(out["odd_odd"]) == 1000
    assert sum(r["is_counterexample"] for r in out["odd_odd"]) == 0
    assert sum(r["is_counterexample"] for r in out["char2"]) >= 1
    assert sum(r["is_counterexample"] for r in out["even_order"]) >= 1
    elapsed = time.time() - t0
    assert elapsed < 600
    print(f"ACCEPTANCE 7 PASS: 1000 odd/odd samples clean; both even regimes hit ({elapsed:.1f}s)")


def test_criterion_8_sign_witnesses():
    t0 = time.time()
    ARTIFACTS.update(artifact_c8(workers=1))
    assert_golden(8)
    entries = json.loads(ARTIFACTS[8])
    assert len(entries) == 50
    elapsed = time.time() - t0
    print(f"ACCEPTANCE 8 PASS: 50 sign-pairing witnesses with trivial stabilizers ({elapsed:.1f}s)")


def test_criterion_9_power_set_corpus():
    t0 = time.time()
    ARTIFACTS.update(artifact_c9(workers=1))
    assert_golden(9)
    entries = json.loads(ARTIFACTS[9])
    assert len(entries) == 10
    assert all(e["degree"] <= 15 for e in entries)
    elapsed = time.time() - t0
    print(f"ACCEPTANCE 9 PASS: power-set witnesses for {len(entries)} odd transitive groups ({elapsed:.1f}s)")


# prints every builder's artifacts as one JSON object, keyed by criterion
FRESH_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:]
import test_acceptance
out = {}
for builder in test_acceptance.BUILDERS:
    out.update(builder(workers=1))
print(json.dumps(out))
"""


def _fresh_interpreter_artifacts() -> dict[int, str]:
    """Every artifact from a new interpreter whose string hashes differ from this one's."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, "..", "src")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed)
    flags = ["-O"] * sys.flags.optimize
    proc = subprocess.run([sys.executable, *flags, "-c", FRESH_RUN, src, here],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return {int(crit): blob for crit, blob in json.loads(proc.stdout).items()}


def test_criterion_10_determinism():
    t0 = time.time()
    assert set(ARTIFACTS) == set(range(1, 10)), "criteria 1-9 must run first"
    for builder in BUILDERS:
        for crit, blob in builder(workers=1).items():
            assert blob == ARTIFACTS[crit], f"criterion {crit} changed between runs"
    fresh = _fresh_interpreter_artifacts()
    assert set(fresh) == set(ARTIFACTS)
    for crit, blob in fresh.items():
        assert blob == ARTIFACTS[crit], f"criterion {crit} differs in a fresh interpreter"
    elapsed = time.time() - t0
    print(f"ACCEPTANCE 10 PASS: byte-identical JSON across runs and interpreters ({elapsed:.1f}s)")
