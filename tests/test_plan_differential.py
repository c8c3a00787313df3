"""``build_elimination_plan`` against the full re-check in ``reference_plan``.

The library re-checks, after a removal, only the removed vertex's neighbors
and the degree <= 7 neighbors of a neighbor that fell onto a ceiling; the
reference re-checks everything within two hops.  Their ``PlanStep`` tuples
must be equal on generated drawings of every corpus crossing fraction, on
thinned copies (many degree <= 2 steps), and on small arbitrary graphs,
where both must raise ``ConfigurationNotFound`` together.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oneplanar import build_elimination_plan, gen_random_oneplanar
from oneplanar.model import AbstractGraph
from oneplanar.structure import ConfigurationNotFound

from conftest import CORPUS_FRACTIONS, complete_graph
from reference_plan import reference_plan


def _drawing_graph(n: int, fi: int, seed: int, every: int) -> AbstractGraph:
    """A generated drawing's graph without every `every`-th edge (0: all kept)."""
    g = gen_random_oneplanar(n, CORPUS_FRACTIONS[fi], seed).base
    if not every:
        return g
    return AbstractGraph(g.n, [e for k, e in enumerate(sorted(g.edges)) if k % every])


drawing_graphs = st.builds(
    _drawing_graph,
    st.integers(min_value=10, max_value=400),
    st.integers(min_value=0, max_value=len(CORPUS_FRACTIONS) - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0, 0, 2, 3, 5]),
)


@given(drawing_graphs)
@settings(max_examples=60, deadline=None)
def test_plan_matches_reference_on_drawings(g):
    assert build_elimination_plan(g).steps == reference_plan(g).steps


@st.composite
def dense_small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=13))
    keep = draw(st.integers(min_value=3, max_value=10))  # out of 10
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    return AbstractGraph(n, [e for e, x in zip(pairs, mask) if x < keep])


def _plan_or_not_found(build, g):
    try:
        return build(g).steps
    except ConfigurationNotFound as exc:
        return str(exc)


@given(dense_small_graphs())
@example(complete_graph(9))  # no vertex qualifies: both versions must raise
@settings(max_examples=200, deadline=None)
def test_plan_matches_reference_on_small_graphs(g):
    assert _plan_or_not_found(build_elimination_plan, g) == _plan_or_not_found(reference_plan, g)
