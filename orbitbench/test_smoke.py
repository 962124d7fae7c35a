"""Smoke test of the benchmark itself, at the smallest size of every workload.

    python3 -m pytest -q orbitbench/test_smoke.py

Checks the output schema and metric names against BENCHMARK.json, that a
deliberately corrupted output is counted as failed and never passes, that a
seed gives the same digest twice, and that the benchmark refuses to run
without the program's sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    cmd = SPEC["command"][1:]
    proc = subprocess.run([sys.executable, *cmd, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def test_benchmark_json_follows_the_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["orbitbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 12) < 3420, "the runs would exceed the 3420 s budget"
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_digest(workload):
    proc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                        "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    digest = [line for line in lines if "digest sha256" in line]
    _, again = bench("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", "0")
    assert digest and digest == [line for line in again if "digest sha256" in line]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    proc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                        "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = result_of(lines)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert abs(result["metrics"]["trace.self_time_coverage"]["value"] - 1) < 1e-9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_counted_as_failed(workload):
    proc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                        "--trace", "0", "--corrupt")
    assert proc.returncode != 0
    result = result_of(lines)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "orbitbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, lines = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
