"""``oracle_chi_a`` against the recursive search in ``reference_oracle``.

Both search the same edge order with the same color symmetry breaking, so
they must agree on every small graph and every limit, including limits
below the answer (None) and below the maximum degree.  The library search
is iterative, so unlike the reference it also runs on graphs with more
edges than the interpreter's recursion limit allows frames.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oneplanar import (
    AbstractGraph,
    XorShift64Star,
    gen_plane_triangulation,
    oracle_chi_a,
    palette_size,
    write_graph6,
)
from oneplanar.cli import run_suite
from oneplanar.coloring import _search_order
from oneplanar.model import _component_count, normalize_edge

from conftest import complete_graph, cycle_graph, path_graph
from reference_oracle import _search_order as reference_search_order, reference_oracle


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


def _sparse_graph(n: int, m: int, seed: int) -> AbstractGraph:
    """Up to m seeded random edges on n vertices; sparse ones fall apart."""
    rng = XorShift64Star(seed)
    pairs = ((rng.below(n), rng.below(n)) for _ in range(m))
    return AbstractGraph(n, {normalize_edge(u, v) for u, v in pairs if u != v})


def _edge_components(g: AbstractGraph) -> int:
    """Connected components with at least one edge."""
    adjacency = [list(g.neighbors(v)) for v in range(g.n)]
    return _component_count(adjacency) - sum(not nbrs for nbrs in adjacency)


TRIANGULATION = gen_plane_triangulation(400, 3).base  # 1,194 edges
SEARCH_ORDER_GRAPHS = [_sparse_graph(2 + 5 * s, (2 + 5 * s) * (1 + s % 3) // 2, s) for s in range(30)]


@pytest.mark.parametrize("g", SEARCH_ORDER_GRAPHS + [TRIANGULATION, LONG_PATH])
def test_search_order_matches_reference(g):
    assert _search_order(g) == reference_search_order(g)


def test_search_order_graphs_include_disconnected_ones():
    assert TRIANGULATION.num_edges == 1194
    assert sum(_edge_components(g) > 1 for g in SEARCH_ORDER_GRAPHS) >= 10
