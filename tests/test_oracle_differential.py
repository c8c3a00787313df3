"""``oracle_chi_a`` against the recursive search in ``reference_oracle``.

Both search the same edge order with the same color symmetry breaking, so
they must agree on every small graph and every limit, including limits
below the answer (None) and below the maximum degree.  The library search
is iterative, so unlike the reference it also runs on graphs with more
edges than the interpreter's recursion limit allows frames.
"""

from __future__ import annotations

import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oneplanar import AbstractGraph, oracle_chi_a, palette_size, write_graph6
from oneplanar.cli import run_suite

from conftest import complete_graph, cycle_graph, path_graph
from reference_oracle import reference_oracle


@st.composite
def graphs_and_limits(draw):
    # at most 18 edges: beyond that a dense 8-vertex graph can take the
    # exhaustive search seconds
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=18)) if pairs else set()
    g = AbstractGraph(n, edges)
    return g, draw(st.integers(min_value=0, max_value=palette_size(g.max_degree())))


@given(graphs_and_limits())
@example((complete_graph(6), 7))  # needs 7 colors, two more than its maxdeg
@example((complete_graph(6), 6))
@example((cycle_graph(5), 2))
@settings(max_examples=200, deadline=None)
def test_oracle_matches_reference(case):
    g, limit = case
    assert oracle_chi_a(g, limit) == reference_oracle(g, limit)


LONG_PATH = path_graph(1501)


def test_oracle_colors_a_path_longer_than_the_recursion_limit():
    assert LONG_PATH.num_edges == 1500 > sys.getrecursionlimit()
    assert oracle_chi_a(LONG_PATH, 3) == 2


def test_suite_oracle_on_a_long_path_then_the_next_entry():
    report = run_suite({"entries": [
        {"name": "path", "input": {"kind": "g6", "text": write_graph6(LONG_PATH)},
         "checks": ["oracle"]},
        {"name": "k4", "input": {"kind": "named", "name": "k4"}, "checks": ["oracle"]},
    ]})
    assert report["failures"] == 0
    assert [e["results"] for e in report["entries"]] == [
        [{"check": "oracle", "status": "pass", "detail": {"chi_a": 2, "limit": palette_size(2)}}],
        [{"check": "oracle", "status": "pass", "detail": {"chi_a": 5, "limit": palette_size(3)}}],
    ]
