import io
import json
import random

import pytest

from orbitforge import search
from orbitforge import semilinear as sl
from orbitforge.errors import IntransitiveTop, SchemaError
from orbitforge.permutation import compose_perm
from orbitforge.search import SearchConfig, iter_search, run_search
from orbitforge.specfile import instance_from_spec
from orbitforge import action as A

from helpers import odd_part_by_powers

ODD_ODD_TEMPLATES = [
    {"kind": "semilinear", "field": {"p": 3, "k": 1, "n": 4}},
    {"kind": "semilinear", "field": {"p": 5, "k": 1, "n": 2}},
    {"kind": "matrix", "field": {"p": 7}, "dim": 2},
    {"kind": "wreath", "field": {"p": 11}, "m": 3},
    {"kind": "wreath", "field": {"p": 7}, "m": 3},
]


def odd_odd_config(samples, seed):
    return SearchConfig.from_dict({
        "samples": samples, "seed": seed,
        "odd_order": True, "odd_characteristic": True,
        "templates": ODD_ODD_TEMPLATES,
    })


def test_config_validation():
    with pytest.raises(SchemaError):
        SearchConfig.from_dict({"samples": 1, "seed": 0, "templates": []})
    with pytest.raises(SchemaError):
        SearchConfig.from_dict({"samples": 1, "seed": 0,
                                "templates": [{"kind": "weird", "field": {"p": 3}}]})
    with pytest.raises(SchemaError):
        SearchConfig.from_dict({"samples": 1, "seed": 0, "odd_characteristic": True,
                                "templates": [{"kind": "semilinear", "field": {"p": 2, "n": 2}}]})
    with pytest.raises(SchemaError):
        SearchConfig.from_dict({"samples": 1, "seed": 0, "gen_count": [0, 2],
                                "templates": [{"kind": "semilinear", "field": {"p": 3, "n": 2}}]})


def test_config_rejects_nonprime_field():
    with pytest.raises(SchemaError):
        SearchConfig.from_dict({"samples": 1, "seed": 0,
                                "templates": [{"kind": "semilinear", "field": {"p": 6, "n": 2}}]})


def test_records_respect_filters():
    cfg = odd_odd_config(40, seed=13)
    records = list(iter_search(cfg, log=io.StringIO()))
    assert len(records) == 40
    for rec in records:
        assert rec["odd_order"] and rec["odd_characteristic"]
        assert rec["faithful"] and rec["irreducible"]
        assert rec["group_order"] % 2 == 1


def test_stream_determinism():
    cfg = odd_odd_config(25, seed=77)
    lines1 = [json.dumps(r) for r in iter_search(cfg, log=io.StringIO())]
    lines2 = [json.dumps(r) for r in iter_search(cfg, log=io.StringIO())]
    assert lines1 == lines2


def test_worker_pool_does_not_change_output():
    cfg = odd_odd_config(15, seed=3)
    one = [json.dumps(r) for r in iter_search(cfg, workers=1, log=io.StringIO())]
    many = [json.dumps(r) for r in iter_search(cfg, workers=8, log=io.StringIO())]
    assert one == many


def test_char2_includes_example1_counterexample():
    cfg = SearchConfig.from_dict({
        "samples": 6, "seed": 5, "odd_characteristic": False, "include_examples": True,
        "templates": [
            {"kind": "wreath", "field": {"p": 2, "k": 1, "n": 2}, "m": 5},
            {"kind": "semilinear", "field": {"p": 2, "k": 1, "n": 4}},
        ],
    })
    records = list(iter_search(cfg, log=io.StringIO()))
    assert records[0]["source"] == "example1"
    assert records[0]["is_counterexample"]
    assert all(not r["odd_characteristic"] for r in records)


def test_even_order_includes_example2_counterexample():
    cfg = SearchConfig.from_dict({
        "samples": 4, "seed": 5, "odd_order": False, "odd_characteristic": True,
        "include_examples": True,
        "templates": [{"kind": "matrix", "field": {"p": 7}, "dim": 2}],
    })
    records = list(iter_search(cfg, log=io.StringIO()))
    assert records[0]["source"] == "example2"
    assert records[0]["is_counterexample"]
    assert all(r["group_order"] % 2 == 0 for r in records)


def test_cross_process_hash_seed_independence(tmp_path):
    # outputs must not depend on interpreter hash randomization
    import os
    import subprocess
    import sys
    script = tmp_path / "emit.py"
    script.write_text(
        "import io, json, sys\n"
        "from orbitforge.search import SearchConfig, iter_search\n"
        "from orbitforge.action import enumerate_orbits\n"
        "from orbitforge.constructions import build_example1\n"
        "cfg = SearchConfig.from_dict({'samples': 8, 'seed': 3,\n"
        "    'odd_order': True, 'odd_characteristic': True,\n"
        "    'templates': [{'kind': 'wreath', 'field': {'p': 11}, 'm': 3},\n"
        "                  {'kind': 'semilinear', 'field': {'p': 5, 'k': 1, 'n': 2}}]})\n"
        "for rec in iter_search(cfg, log=io.StringIO()):\n"
        "    print(json.dumps(rec, separators=(',', ':')))\n"
        "print(json.dumps(enumerate_orbits(build_example1()).to_json_dict()))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_counterexample_replay(tmp_path):
    cfg = SearchConfig.from_dict({
        "samples": 3, "seed": 5, "odd_characteristic": False, "include_examples": True,
        "templates": [{"kind": "wreath", "field": {"p": 2, "k": 1, "n": 2}, "m": 5}],
    })
    out = tmp_path / "hits.jsonl"
    stream = io.StringIO()
    summary = run_search(cfg, out_path=str(out), stream=stream, log=io.StringIO())
    assert summary["counterexamples"] >= 1
    persisted = [json.loads(line) for line in out.read_text().splitlines()]
    assert persisted
    for wrapped in persisted:
        assert wrapped["run"]["seed"] == 5
        rec = wrapped["record"]
        inst = instance_from_spec(rec["spec"])
        replay = A.enumerate_orbits(inst)
        assert list(replay.orbit_lengths) == rec["orbit_lengths"]
        assert replay.group_order == rec["group_order"]
        assert replay.regular_exists == rec["regular"]


def test_one_version_literal(tmp_path):
    # pyproject.toml and search records take the version from __version__
    tomllib = pytest.importorskip("tomllib")
    import os

    import orbitforge
    from orbitforge import search

    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "orbitforge.__version__"}
    assert orbitforge.__version__ == search.VERSION == "0.1.0"
    cfg = SearchConfig.from_dict({
        "samples": 1, "seed": 5, "odd_characteristic": False, "include_examples": True,
        "templates": [{"kind": "wreath", "field": {"p": 2, "k": 1, "n": 2}, "m": 5}],
    })
    out = tmp_path / "hits.jsonl"
    run_search(cfg, out_path=str(out), stream=io.StringIO(), log=io.StringIO())
    versions = {json.loads(line)["run"]["version"] for line in out.read_text().splitlines()}
    assert versions == {"0.1.0"}


def test_each_sample_is_swept_once(monkeypatch):
    swept = {}
    held = []  # keeps every swept instance alive, so no id is reused
    original = A._orbit_reps

    def counting(instance):
        held.append(instance)
        swept[id(instance)] = swept.get(id(instance), 0) + 1
        return original(instance)

    monkeypatch.setattr(A, "_orbit_reps", counting)
    records = list(iter_search(odd_odd_config(12, seed=21), log=io.StringIO()))
    assert len(records) == 12
    assert len(swept) >= len(records)
    assert max(swept.values()) == 1


def test_each_sample_builds_one_schreier_record(monkeypatch):
    # its order, its quotient sweep and its irreducibility classes share it
    calls = []  # schreier_kernel calls per drawn sample
    draw, kernel = search._draw_instance, sl.schreier_kernel

    def drawing(*args, **kwargs):
        calls.append(0)
        return draw(*args, **kwargs)

    def counting(*args):
        calls[-1] += 1
        return kernel(*args)

    monkeypatch.setattr(search, "_draw_instance", drawing)
    monkeypatch.setattr(sl, "schreier_kernel", counting)
    records = list(iter_search(odd_odd_config(12, seed=21), log=io.StringIO()))
    assert len(records) == 12
    assert {rec["spec"]["action"]["kind"] for rec in records} >= {"semilinear", "wreath"}
    assert max(calls) == 1


def test_point_cap_skips_samples_and_never_stops_the_search(monkeypatch):
    monkeypatch.setenv("ORBITFORGE_POINT_CAP", "50")
    cfg = SearchConfig.from_dict({
        "samples": 6, "seed": 1,
        "templates": [{"kind": "semilinear", "field": {"p": 3, "k": 1, "n": 4}},
                      {"kind": "semilinear", "field": {"p": 2, "k": 1, "n": 4}}],
    })
    log = io.StringIO()
    records = list(iter_search(cfg, log=log))
    assert len(records) == 6
    assert all(rec["spec"]["field"]["p"] == 2 for rec in records)
    skips = [line for line in log.getvalue().splitlines()
             if line.startswith("search: skipped a sample")]
    assert skips and all("point cap" in line for line in skips)


def test_chain_order_runs_only_for_kept_matrix_samples(monkeypatch):
    # odd-order generators in GL(2, 7) or GL(2, 5) have determinants of odd
    # order, which excludes reflections (det -1), so the only involution they
    # can generate is -I, and it makes every nonzero orbit even: a sample the
    # sweep passes has odd order.  GL(2, 7) has no irreducible odd subgroup.
    drawn, ordered = [], []
    draw, chain = search._draw_instance, A.chain_order

    def drawing(rng, template, *args, **kwargs):
        drawn.append(template["field"]["p"])
        return draw(rng, template, *args, **kwargs)

    def recording(backend, generators):
        ordered.append(tuple(generators))
        return chain(backend, generators)

    monkeypatch.setattr(search, "_draw_instance", drawing)
    monkeypatch.setattr(A, "chain_order", recording)
    cfg = SearchConfig.from_dict({"samples": 6, "seed": 4, "odd_order": True,
                                  "odd_characteristic": True,
                                  "templates": [{"kind": "matrix", "field": {"p": 7}, "dim": 2},
                                                {"kind": "matrix", "field": {"p": 5}, "dim": 2}]})
    records = list(iter_search(cfg, log=io.StringIO()))
    assert len(records) == 6 and drawn.count(7) > 10
    assert ordered == [instance_from_spec(rec["spec"]).generators for rec in records]


def test_drawing_a_gf2_12_generator_takes_at_most_twelve_products(monkeypatch):
    products = []
    mat_mul = A.mat_mul
    monkeypatch.setattr(A, "mat_mul", lambda *args: products.append(1) or mat_mul(*args))
    template = {"kind": "matrix", "field": {"p": 2}, "dim": 12}
    for seed in range(8):
        products.clear()
        search._draw_instance(random.Random(seed), template, (1, 1), force_odd=True)
        assert len(products) <= 12


ODD_PART_TEMPLATES = (
    [{"kind": "matrix", "field": {"p": 2}, "dim": d} for d in range(1, 9)]
    + [{"kind": "matrix", "field": {"p": 3}, "dim": d} for d in range(1, 5)]
    + [{"kind": "semilinear", "field": {"p": 3, "k": 1, "n": 4}},
       {"kind": "wreath", "field": {"p": 7, "k": 1, "n": 1}, "m": 5}])


@pytest.mark.parametrize("template", ODD_PART_TEMPLATES,
                         ids=lambda t: f"{t['kind']}-{t['field']['p']}-{t.get('dim', t.get('m'))}")
def test_odd_parts_match_repeated_multiplication(template):
    # the same seed draws the same generators with and without force_odd
    compared = 0
    for seed in range(20):
        try:
            plain, odd = (search._draw_instance(random.Random(seed), template, (1, 3), force_odd)
                          for force_odd in (False, True))
        except IntransitiveTop:  # a drawn top, or its odd part, need not be transitive
            continue
        if template["kind"] == "wreath":
            spec, odd_spec = plain.meta["wreath_spec"], odd.meta["wreath_spec"]
            inner = tuple(odd_part_by_powers(lambda a, b: sl.compose(spec.inner, a, b),
                                             sl.IDENTITY, g) for g in spec.inner_gens)
            tops = tuple(odd_part_by_powers(compose_perm, tuple(range(spec.m)), perm)
                         for perm in spec.top_gens)
            assert (odd_spec.inner_gens, odd_spec.top_gens) == (inner, tops)
        else:
            backend = plain.backend
            assert odd.generators == tuple(odd_part_by_powers(backend.mul, backend.identity, g)
                                           for g in plain.generators)
        compared += 1
    assert compared >= 5
