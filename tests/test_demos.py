"""Every demo script runs to completion and prints no numpy scalar reprs."""

from pathlib import Path

import pytest

from helpers import run_with_src

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    proc = run_with_src([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert "np." not in proc.stdout
