"""``verify_acyclic`` against the union-find reference in ``reference_verifier``.

Every ``VerifyReport`` field, witness cycles included, must agree on
generated colorings: the algorithm's own (acyclic) output, the same with
edge-disjoint kite 4-cycles recolored to fresh color pairs (real cycles),
random proper recolorings (many cyclic pairs, paths and cycles mixed), and
random mutations that break properness or leave edges uncolored.  Colored
non-edges are left out: there the reference reports phantom cycles.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from oneplanar import acyclic_edge_color, gen_random_oneplanar, verify_acyclic
from oneplanar.coloring import EdgeColoring
from oneplanar.corpus import XorShift64Star
from oneplanar.model import normalize_edge

from conftest import CORPUS_FRACTIONS
from reference_verifier import reference_verify


def _colored_drawing(n: int, fi: int, seed: int):
    d = gen_random_oneplanar(n, CORPUS_FRACTIONS[fi], seed)
    return d, acyclic_edge_color(d.base)


drawings = st.builds(
    _colored_drawing,
    st.integers(min_value=10, max_value=200),
    st.integers(min_value=0, max_value=len(CORPUS_FRACTIONS) - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def _agree(g, ec):
    got = verify_acyclic(g, ec)
    assert not got.unknown_edges
    assert got == reference_verify(g, ec)
    for a, b, cyc in got.bichromatic_cycles:
        assert len(cyc) >= 4 and cyc[0] == min(cyc)
        for i, u in enumerate(cyc):
            assert ec.color(u, cyc[(i + 1) % len(cyc)]) == (a if i % 2 == 0 else b)
    return got


@given(drawings)
@settings(max_examples=30, deadline=None)
def test_agrees_on_algorithm_colorings(dc):
    d, ec = dc
    assert _agree(d.base, ec).ok


@given(drawings, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_agrees_with_injected_kite_cycles(dc, seed):
    d, ec = dc
    rng = XorShift64Star(seed)
    kites = [tuple(d.rotation[d.n + i]) for i in range(d.num_crossings)]
    assignment, used, fresh = dict(ec.assignment), set(), max(ec.assignment.values()) + 1
    for cyc in kites:
        es = [normalize_edge(cyc[i], cyc[(i + 1) % 4]) for i in range(4)]
        if used & set(es) or rng.below(2):
            continue
        used.update(es)
        for i, e in enumerate(es):
            assignment[e] = fresh + i % 2
        fresh += 2
    got = _agree(d.base, EdgeColoring(assignment, ec.palette))
    injected = {(c, c + 1) for c in range(max(ec.assignment.values()) + 1, fresh, 2)}
    assert injected <= {(a, b) for a, b, _ in got.bichromatic_cycles}


@given(drawings, st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=3, max_value=12))
@settings(max_examples=30, deadline=None)
def test_agrees_on_random_proper_recolorings(dc, seed, spare):
    # in a random edge order, one of the `spare` smallest colors free at both
    # ends: proper and total, usually full of bichromatic cycles
    d, _ = dc
    g = d.base
    edges = sorted(g.edges)
    rng = XorShift64Star(seed)
    for i in range(len(edges) - 1, 0, -1):
        j = rng.below(i + 1)
        edges[i], edges[j] = edges[j], edges[i]
    at: list[set[int]] = [set() for _ in range(g.n)]
    assignment = {}
    for u, v in edges:
        free = [c for c in range(2 * g.max_degree() + spare) if c not in at[u] and c not in at[v]]
        c = free[rng.below(min(spare, len(free)))]
        assignment[(u, v)] = c
        at[u].add(c)
        at[v].add(c)
    _agree(g, EdgeColoring(assignment, len(assignment)))


mutation_lists = st.lists(
    st.tuples(st.integers(min_value=0), st.sampled_from(["drop", "copy", "set"]), st.integers(0, 9)),
    min_size=1,
    max_size=6,
)


@given(drawings, mutation_lists)
@settings(max_examples=30, deadline=None)
def test_agrees_on_improper_or_partial_recolorings(dc, mutations):
    d, ec = dc
    edges = sorted(ec.assignment)
    assignment = dict(ec.assignment)
    for k, action, c in mutations:
        u, v = edges[k % len(edges)]
        if action == "drop":
            assignment.pop((u, v), None)
        elif action == "copy":
            other = next(e for e in edges if e != (u, v) and (u in e or v in e))
            if other in assignment:
                assignment[(u, v)] = assignment[other]
        else:
            assignment[(u, v)] = c
    _agree(d.base, EdgeColoring(assignment, ec.palette))
