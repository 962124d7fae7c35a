import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


import pytest  # noqa: E402

from orbitforge import field as F  # noqa: E402


@pytest.fixture
def table_builds(monkeypatch):
    """An empty field cache, and the (p, degree) of every table build."""
    builds = []
    build = F._field_tables
    monkeypatch.setattr(F, "_contexts", {})
    monkeypatch.setattr(F, "_field_tables", lambda *args: builds.append(args) or build(*args))
    return builds
