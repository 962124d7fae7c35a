import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest

from orbitforge import action
from orbitforge.cli import main, verify_claims

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


GAMMA0_16 = {"action": {"kind": "semilinear"}, "field": {"p": 2, "k": 1, "n": 4},
             "generators": [{"twist": 0, "scalar": 1}]}
G4_FULL = {"action": {"kind": "semilinear"}, "field": {"p": 2, "k": 1, "n": 2},
           "generators": [{"twist": 1, "scalar": 0}, {"twist": 0, "scalar": 1}]}
GN16 = {"action": {"kind": "semilinear"}, "field": {"p": 2, "k": 1, "n": 4},
        "generators": [{"twist": 2, "scalar": 0}, {"twist": 0, "scalar": 3}]}


def test_orbits_gamma0_16(tmp_path, capsys):
    code, out, _ = run_cli(["orbits", write(tmp_path, "g.json", GAMMA0_16)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["group_order"] == 15
    assert doc["orbit_lengths"] == [1, 15]
    assert doc["regular"] is True


def test_orbits_trivial_group(tmp_path, capsys):
    spec = {"action": {"kind": "matrix", "dim": 2}, "field": {"p": 3},
            "generators": [[1, 0, 0, 1]]}
    code, out, _ = run_cli(["orbits", write(tmp_path, "t.json", spec)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit_lengths"] == [1] * 9


def test_orbits_example2_spec(tmp_path, capsys):
    from orbitforge.constructions import build_example2
    from orbitforge.specfile import instance_to_spec
    spec = instance_to_spec(build_example2())
    code, out, _ = run_cli(["orbits", write(tmp_path, "e2.json", spec)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["group_order"] == 1152
    assert doc["orbit_lengths"] == [1, 48, 48, 48, 144, 144, 144, 192, 192, 192, 288, 288, 288, 384]


def test_orbits_schema_error(tmp_path, capsys):
    code, _, err = run_cli(["orbits", write(tmp_path, "bad.json", {"nope": 1})], capsys)
    assert code == 2 and "error" in err


def test_orbits_cap_exceeded(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ORBITFORGE_POINT_CAP", "4")
    code, _, err = run_cli(["orbits", write(tmp_path, "g.json", GAMMA0_16)], capsys)
    assert code == 3 and "error" in err


def test_orbits_field_over_size_cap_exits_3(tmp_path, capsys):
    spec = dict(GAMMA0_16, field={"p": 2, "n": 40})
    code, _, err = run_cli(["orbits", write(tmp_path, "big.json", spec)], capsys)
    assert code == 3 and "size cap" in err


def test_search_template_over_size_cap_exits_3(tmp_path, capsys):
    cfg = {"samples": 1, "seed": 1, "templates": [{"kind": "semilinear", "field": {"p": 2, "n": 40}}]}
    code, _, err = run_cli(["search", write(tmp_path, "cfg.json", cfg),
                            "--out", str(tmp_path / "hits.jsonl")], capsys)
    assert code == 3 and "size cap" in err
    assert not (tmp_path / "hits.jsonl").exists()


def test_prop2_full_g4(tmp_path, capsys):
    code, out, _ = run_cli(["prop2", write(tmp_path, "g4.json", G4_FULL)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"has_regular_orbit": False, "regular_vector": None,
                   "failing_prime": 2, "subgroup_order": 6, "oracle_agrees": True}


def test_prop2_gamma0(tmp_path, capsys):
    code, out, _ = run_cli(["prop2", write(tmp_path, "g.json", GAMMA0_16)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["has_regular_orbit"] is True and doc["regular_vector"] == 1
    assert doc["oracle_agrees"] is True


def test_prop2_gn16(tmp_path, capsys):
    code, out, _ = run_cli(["prop2", write(tmp_path, "gn.json", GN16)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["has_regular_orbit"] is False and doc["failing_prime"] == 2
    assert doc["subgroup_order"] == 10
    assert doc["oracle_agrees"] is True


def test_prop2_decides_past_the_element_cap(tmp_path, capsys):
    # GammaL(1, 2^20) has 20,971,500 elements; prop2 decides from the
    # generators' Schreier record and lists none of them
    spec = {"action": {"kind": "semilinear"}, "field": {"p": 2, "k": 1, "n": 20},
            "generators": [{"twist": 1, "scalar": 0}, {"twist": 0, "scalar": 1}]}
    code, out, _ = run_cli(["prop2", write(tmp_path, "gl.json", spec)], capsys)
    assert code == 0
    assert json.loads(out) == {"has_regular_orbit": False, "regular_vector": None,
                               "failing_prime": 2, "subgroup_order": 20971500,
                               "oracle_agrees": True}


def test_prop2_rejects_matrix_spec(tmp_path, capsys):
    spec = {"action": {"kind": "matrix", "dim": 2}, "field": {"p": 3},
            "generators": [[1, 0, 0, 1]]}
    code, _, err = run_cli(["prop2", write(tmp_path, "m.json", spec)], capsys)
    assert code == 2


def test_verify_example1(capsys):
    code, out, _ = run_cli(["verify", "example1"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 3 and all(l.startswith("PASS") for l in lines)


def test_verify_example2_json(capsys):
    code, out, _ = run_cli(["verify", "example2", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] and len(doc["claims"]) == 4


def test_verify_wolf(capsys):
    code, out, _ = run_cli(["verify", "wolf", "--p", "2", "--k", "1", "--n", "2", "--m", "2"], capsys)
    assert code == 0
    assert all(l.startswith("PASS") for l in out.splitlines() if l.strip())


def test_verify_wolf_sweeps_no_point_set(monkeypatch):
    # the wreath orbits come from the label grid, for the report and for
    # the irreducibility claim alike; 2^20 points are never swept
    def full_sweep(instance):
        raise AssertionError(f"full-point sweep of {instance!r}")
    monkeypatch.setattr(action, "_orbit_labels", full_sweep)
    claims = verify_claims("wolf", p=2, n=2, m=10)
    assert len(claims) == 5 and all(ok for _, ok in claims)


def test_verify_wolf_bad_params(capsys):
    code, _, err = run_cli(["verify", "wolf", "--p", "2", "--k", "1", "--n", "2", "--m", "3"], capsys)
    assert code == 2 and "gcd" in err


def test_field_info(capsys):
    code, out, _ = run_cli(["field-info", "--p", "2", "--k", "1", "--n", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 16 and doc["poly"] == [1, 0, 0, 1, 1]


def test_field_info_nonprime(capsys):
    code, _, err = run_cli(["field-info", "--p", "6", "--k", "1", "--n", "2"], capsys)
    assert code == 2 and "prime" in err


def test_field_info_bad_degree(capsys):
    code, _, err = run_cli(["field-info", "--p", "3", "--k", "0", "--n", "2"], capsys)
    assert code == 2


def test_field_info_builds_no_tables(capsys, table_builds):
    # GF(4093^2)'s exp/log tables take seconds and ~220 MiB; the summary
    # needs only the polynomial
    import time

    start = time.perf_counter()
    code, out, _ = run_cli(["field-info", "--p", "4093", "--n", "2"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == ('{"p":4093,"k":1,"n":2,"q":4093,"degree":2,"size":16752649,'
                   '"poly":[2,1,1]}\n')
    assert table_builds == []


def test_field_info_size_cap(capsys):
    code, out, err = run_cli(["field-info", "--p", "2", "--k", "1", "--n", "40"], capsys)
    assert code == 3 and out == "" and "size cap" in err


@pytest.mark.parametrize("args", [["--p", "100000000000000000039"],  # sympy.nextprime(10**20)
                                  ["--p", "2", "--n", "1000000000000"]])
def test_field_info_size_cap_is_bounded(capsys, args):
    # neither a primality test on p nor p ** (k*n) runs before the cap check
    import time
    start = time.perf_counter()
    code, out, err = run_cli(["field-info", *args], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and "size cap" in err


S5_TOP = [[2, 1, 3, 4, 5], [2, 3, 4, 5, 1]]


def test_permutation_groups_obey_the_element_cap(tmp_path, capsys, monkeypatch):
    # S_5 has 120 elements: listing it as a wreath top or for gluck is capped
    monkeypatch.setenv("ORBITFORGE_ELEMENT_CAP", "100")
    wreath = {"action": {"kind": "wreath", "m": 5, "top_gens": S5_TOP},
              "field": {"p": 3}, "generators": [{"twist": 0, "scalar": 1}]}
    code, out, err = run_cli(["orbits", write(tmp_path, "w.json", wreath)], capsys)
    assert code == 3 and out == "" and "element cap" in err
    code, out, err = run_cli(["gluck", write(tmp_path, "p.json", {"degree": 5, "generators": S5_TOP})],
                             capsys)
    assert code == 3 and out == "" and "element cap" in err


def test_gluck(tmp_path, capsys):
    spec = {"degree": 3, "generators": [[2, 3, 1]]}
    code, out, _ = run_cli(["gluck", write(tmp_path, "p.json", spec)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"degree": 3, "order": 3, "transitive": True, "witness": [1]}


def test_gluck_none_for_even_group(tmp_path, capsys):
    spec = {"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]}
    code, out, _ = run_cli(["gluck", write(tmp_path, "s3.json", spec)], capsys)
    assert code == 0
    assert json.loads(out)["witness"] is None


@pytest.mark.parametrize("degree", [-1, -2])
def test_gluck_negative_degree_exits_2(tmp_path, capsys, degree):
    spec = {"degree": degree, "generators": []}
    code, out, err = run_cli(["gluck", write(tmp_path, "p.json", spec)], capsys)
    assert code == 2 and out == "" and "negative" in err and "Traceback" not in err


def test_gluck_obeys_the_point_cap(tmp_path, capsys, monkeypatch):
    # the power set of 6 points is 64 vectors of GF(2)^6, over a cap of 32
    monkeypatch.setenv("ORBITFORGE_POINT_CAP", "32")
    spec = {"degree": 6, "generators": [[2, 3, 4, 5, 6, 1]]}
    code, out, err = run_cli(["gluck", write(tmp_path, "p.json", spec)], capsys)
    assert code == 3 and out == "" and "point cap" in err


def test_search_cli(tmp_path, capsys):
    cfg = {"samples": 4, "seed": 9, "odd_order": True, "odd_characteristic": True,
           "templates": [{"kind": "wreath", "field": {"p": 11}, "m": 3}]}
    out_file = tmp_path / "hits.jsonl"
    code, out, err = run_cli(["search", write(tmp_path, "cfg.json", cfg),
                              "--out", str(out_file)], capsys)
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines() if l.strip()]
    assert len(lines) == 4
    assert "records" in err


def test_search_bad_config(tmp_path, capsys):
    code, _, _ = run_cli(["search", write(tmp_path, "cfg.json", {"samples": 1})], capsys)
    assert code == 2


GF9_SEARCH = {"samples": 20, "seed": 4, "templates": [{"kind": "semilinear", "field": {"p": 3, "n": 2}}]}


def test_search_filters_read_json_booleans(tmp_path, capsys):
    # "false" as a string once passed bool() as true and flipped the filter
    code, out, _ = run_cli(["search", write(tmp_path, "cfg.json",
                                            dict(GF9_SEARCH, odd_order=False))], capsys)
    assert code == 0 and len(out.splitlines()) == 20


@pytest.mark.parametrize("change", [
    {"odd_order": "false"}, {"odd_order": 0}, {"odd_characteristic": "true"},
    {"include_examples": "no"}, {"include_examples": None}, {"samples": 2.7},
    {"samples": "20"}, {"seed": True}, {"max_attempts": 40.0}, {"gen_count": [1, 2.5]},
    {"gen_count": "13"},
    {"templates": [{"kind": "semilinear", "field": {"p": "3", "n": 2}}]},
    {"templates": [{"kind": "semilinear", "field": {"p": 3, "n": 2.0}}]},
    {"templates": [{"kind": "matrix", "field": {"p": 3}, "dim": "2"}]},
    {"templates": [{"kind": "wreath", "field": {"p": 3}, "m": True}]},
])
def test_search_config_types_are_strict(tmp_path, capsys, change):
    code, out, err = run_cli(["search", write(tmp_path, "cfg.json", dict(GF9_SEARCH, **change))],
                             capsys)
    assert code == 2 and out == "" and "must be" in err


@pytest.mark.parametrize("spec", [
    {"degree": 3.9, "generators": [[2, 3, 1]]},
    {"degree": "3", "generators": [[2, 3, 1]]},
    {"degree": True, "generators": [[1]]},
    {"degree": 3, "generators": [[2, 3.0, 1]]},
    {"degree": 3, "generators": [["2", 3, 1]]},
])
def test_gluck_spec_types_are_strict(tmp_path, capsys, spec):
    code, out, err = run_cli(["gluck", write(tmp_path, "p.json", spec)], capsys)
    assert code == 2 and out == "" and "must be an integer" in err


def test_search_counterexample_replays_through_orbits_cli(tmp_path, capsys):
    cfg = {"samples": 2, "seed": 5, "odd_characteristic": False, "include_examples": True,
           "templates": [{"kind": "wreath", "field": {"p": 2, "k": 1, "n": 2}, "m": 5}]}
    out_file = tmp_path / "hits.jsonl"
    code, out, _ = run_cli(["search", write(tmp_path, "cfg.json", cfg),
                            "--out", str(out_file)], capsys)
    assert code == 0
    hits = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert hits
    for wrapped in hits:
        rec = wrapped["record"]
        spec_path = write(tmp_path, "replay.json", rec["spec"])
        code, replay_out, _ = run_cli(["orbits", spec_path], capsys)
        assert code == 0
        doc = json.loads(replay_out)
        assert doc["group_order"] == rec["group_order"]
        assert doc["orbit_lengths"] == rec["orbit_lengths"]
        assert doc["regular"] == rec["regular"]
        assert doc["p_regular"] == rec["p_regular"]


def test_console_entry_point_subprocess(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "orbitforge", "field-info",
                           "--p", "3", "--k", "1", "--n", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size"] == 9


# -- malformed group-spec fuzz --

FUZZ_SEEDS = [
    GN16,
    {"action": {"kind": "matrix", "dim": 2}, "field": {"p": 7, "k": 1, "n": 1},
     "generators": [[0, 6, 1, 0], [2, 3, 3, 5]]},
    {"action": {"kind": "wreath", "m": 3, "top_gens": [[2, 3, 1]]},
     "field": {"p": 2, "k": 1, "n": 2}, "generators": [{"twist": 1, "scalar": 1}]},
]
OPTIONAL_KEYS = ("k", "n")  # default to 1, so dropping them leaves a valid spec


def _paths(node, path=()):
    """The path to every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _json_type(value):
    return "bool" if isinstance(value, bool) else "number" if isinstance(value, int) else type(value).__name__


def malformed_specs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.floats(), st.text(max_size=4),
                       st.lists(st.integers(0, 3), max_size=3),
                       st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))

    @st.composite
    def specs(draw):
        doc = copy.deepcopy(draw(st.sampled_from(FUZZ_SEEDS)))
        how = draw(st.sampled_from(["truncate", "retype", "drop"]))
        if how == "truncate":
            text = json.dumps(doc)
            return text[:draw(st.integers(0, len(text) - 1))]
        paths = [path for path in _paths(doc) if how == "retype"
                 or isinstance(path[-1], str) and path[-1] not in OPTIONAL_KEYS]
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if how == "drop":
            del parent[path[-1]]
        else:
            old = _json_type(parent[path[-1]])
            parent[path[-1]] = draw(values.filter(lambda v: _json_type(v) != old))
        return json.dumps(doc)
    return specs()


def test_orbits_fuzzed_specs_exit_2_without_traceback():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(malformed_specs())
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spec.json")
            with open(path, "w") as fh:
                fh.write(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["orbits", path])
        assert code == 2, (text, err.getvalue())
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
    check()
