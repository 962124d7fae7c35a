"""iter_search against its decision taken in the plainest order."""

import io
from unittest import mock

import pytest

from orbitforge import search
from orbitforge.search import SearchConfig, iter_search

from helpers import kept_record_by_report

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TEMPLATES = {
    "GF(7)^2": {"kind": "matrix", "field": {"p": 7}, "dim": 2},
    "GF(5)^3": {"kind": "matrix", "field": {"p": 5}, "dim": 3},
    "GF(3)^2": {"kind": "matrix", "field": {"p": 3}, "dim": 2},
    "GammaL(1,3^4)": {"kind": "semilinear", "field": {"p": 3, "k": 1, "n": 4}},
    "GammaL(1,2^4)": {"kind": "semilinear", "field": {"p": 2, "k": 1, "n": 4}},
    "GF(7)-wr-3": {"kind": "wreath", "field": {"p": 7}, "m": 3},
    "GF(4)-wr-3": {"kind": "wreath", "field": {"p": 2, "k": 1, "n": 2}, "m": 3},
}


@pytest.mark.parametrize("odd_order", [True, False, None])
@pytest.mark.parametrize("template", TEMPLATES)
@hypothesis.settings(max_examples=5, deadline=None)
@hypothesis.given(seed=st.integers(0, 2 ** 31 - 1))
def test_iter_search_matches_the_report_first_oracle(template, odd_order, seed):
    cfg = SearchConfig.from_dict({"samples": 2, "seed": seed, "odd_order": odd_order,
                                  "max_attempts": 20, "templates": [TEMPLATES[template]]})
    records = list(iter_search(cfg, log=io.StringIO()))
    with mock.patch.object(search, "_kept_record", kept_record_by_report):
        expected = list(iter_search(cfg, log=io.StringIO()))
    assert records == expected
