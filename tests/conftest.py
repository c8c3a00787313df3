from __future__ import annotations

import time
from fractions import Fraction

import pytest

from oneplanar import canonical_triangulate, gen_random_oneplanar
from oneplanar.model import AbstractGraph, OnePlanarDrawing

CORPUS_SIZE = 1000
CORPUS_FRACTIONS = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)]


def corpus_spec(i: int) -> tuple[int, Fraction, int]:
    return 4 + (7 * i) % 197, CORPUS_FRACTIONS[i % 5], i


@pytest.fixture(scope="session")
def corpus_drawings():
    """The fixed 1000-drawing corpus plus its generation wall time."""
    t0 = time.perf_counter()
    drawings = [gen_random_oneplanar(*corpus_spec(i)) for i in range(CORPUS_SIZE)]
    return drawings, time.perf_counter() - t0


@pytest.fixture(scope="session")
def corpus_canonical(corpus_drawings):
    drawings, _ = corpus_drawings
    t0 = time.perf_counter()
    ts = [canonical_triangulate(d) for d in drawings]
    return ts, time.perf_counter() - t0


def cycle_graph(k: int) -> AbstractGraph:
    return AbstractGraph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> AbstractGraph:
    return AbstractGraph(k, [(i, i + 1) for i in range(k - 1)])


def star_graph(leaves: int) -> AbstractGraph:
    return AbstractGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(k: int) -> AbstractGraph:
    return AbstractGraph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def without_uncrossed_edges(d: OnePlanarDrawing, every: int) -> OnePlanarDrawing:
    """d without each `every`-th uncrossed edge (sorted order) whose ends keep degree >= 2."""
    rot = [list(order) for order in d.rotation]
    edges = set(d.base.edges)
    for k, (u, v) in enumerate(sorted(d.base.edges)):
        if k % every or d.crossing_of_edge(u, v) is not None:
            continue
        if len(rot[u]) > 2 and len(rot[v]) > 2:
            rot[u].remove(v)
            rot[v].remove(u)
            edges.remove((u, v))
    return OnePlanarDrawing(AbstractGraph(d.n, edges), d.crossings, rot)
