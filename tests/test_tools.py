"""The repository's scripts still run against the library: the sub-second
resource-cap cases of scripts/cap_stress.py, and the benchmark's tracer,
which wraps library functions and backend methods by name."""

import importlib.util
from pathlib import Path

import pytest

from helpers import run_with_src

ROOT = Path(__file__).resolve().parent.parent


def _cap_stress():
    spec = importlib.util.spec_from_file_location("cap_stress", ROOT / "scripts" / "cap_stress.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, want", [("chain-at-cap", 0), ("chain-over-cap", 3),
                                        ("gluck-degree-20-point-cap", 3), ("field-2^24", 0)])
def test_cap_stress_case(name, want, tmp_path):
    cap_stress = _cap_stress()
    command, doc, env, expected = cap_stress.CASES[name]
    assert expected == want
    code, _, _ = cap_stress.run_case(command, doc, env, 2 << 30, 60, tmp_path)
    assert code == want


TRACER_INSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
import orbitforge
from orbitbench import tracing
def targets():
    out = {key: getattr(getattr(orbitforge, key[0]), key[1]) for key in tracing.FUNCTION_SPANS}
    out.update({b: getattr(orbitforge.action, b).perm_array for b in tracing.BACKENDS})
    return out
before = targets()
tracing.install(tracing.Tracer())
after = targets()
sys.exit(sorted(str(key) for key in before if after[key] is before[key]) or None)
"""


def test_benchmark_tracer_installs():
    proc = run_with_src(["-c", TRACER_INSTALL, str(ROOT)])
    assert proc.returncode == 0, proc.stderr
