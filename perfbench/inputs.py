"""Seeded input generators for the benchmark workloads.

Every function here is a pure function of its arguments; the only source of
randomness is ``oneplanar.corpus.XorShift64Star``, so one seed gives the same
inputs on any machine.  The program under test receives only what they
produce: drawing JSON text, graph6 text, color lists and suite
manifests.
"""

from __future__ import annotations

from fractions import Fraction

from oneplanar.corpus import XorShift64Star
from oneplanar.model import AbstractGraph, Crossing, OnePlanarDrawing, normalize_edge


def derive_seed(seed: int, *salt: int) -> int:
    """Mix a workload seed with small integers into an independent 64-bit seed."""
    rng = XorShift64Star(seed)
    x = rng.next_u64()
    for s in salt:
        x = XorShift64Star(x ^ (0x9E3779B97F4A7C15 * (s + 1))).next_u64()
    return x


def _spanning_tree(rotation) -> set[tuple[int, int]]:
    """Edges of a BFS spanning forest of a planarization, as sorted pairs."""
    seen = [False] * len(rotation)
    tree: set[tuple[int, int]] = set()
    for s in range(len(rotation)):
        if seen[s]:
            continue
        seen[s] = True
        frontier = [s]
        while frontier:
            nxt = []
            for w in frontier:
                for x in rotation[w]:
                    if not seen[x]:
                        seen[x] = True
                        tree.add((w, x) if w < x else (x, w))
                        nxt.append(x)
            frontier = nxt
    return tree


def thin_drawing(
    d: OnePlanarDrawing, edge_share: Fraction, crossing_share: Fraction, seed: int
) -> OnePlanarDrawing:
    """Delete a seeded share of crossings and of uncrossed edges.

    A deleted crossing loses its lexicographically larger edge; the other
    edge stays, uncrossed.  Uncrossed edges are deleted only off a spanning
    tree of the planarization left after the crossing deletions, so the
    result stays connected; callers still check that with
    ``model.planarization_components``.
    """
    rng = XorShift64Star(seed)
    n = d.n
    rot = [list(r) for r in d.rotation]
    edges = set(d.base.edges)
    drop_z: set[int] = set()
    for i, c in enumerate(d.crossings):
        if rng.below(crossing_share.denominator) >= crossing_share.numerator:
            continue
        z = n + i
        gone, kept = (c.e2, c.e1) if c.e2 > c.e1 else (c.e1, c.e2)
        for a in gone:
            rot[a].remove(z)
        a, b = kept
        rot[a][rot[a].index(z)] = b
        rot[b][rot[b].index(z)] = a
        rot[z] = []
        edges.discard(gone)
        drop_z.add(z)

    tree = _spanning_tree(rot)
    crossed = {e for i, c in enumerate(d.crossings) if n + i not in drop_z for e in c}
    for e in sorted(edges):
        if e in crossed or e in tree:
            continue
        if rng.below(edge_share.denominator) >= edge_share.numerator:
            continue
        u, v = e
        rot[u].remove(v)
        rot[v].remove(u)
        edges.discard(e)

    keep = [n + i for i in range(d.num_crossings) if n + i not in drop_z]
    remap = {z: n + k for k, z in enumerate(keep)}
    rotation = [[remap.get(x, x) for x in rot[w]] for w in list(range(n)) + keep]
    crossings = [d.crossings[z - n] for z in keep]
    return OnePlanarDrawing(AbstractGraph(n, edges), crossings, rotation)


def pick_disjoint_kites(
    d: OnePlanarDrawing, count: int, seed: int
) -> list[tuple[int, int, int, int]]:
    """A seeded set of at most ``count`` pairwise edge-disjoint kite 4-cycles.

    In a canonical drawing the rotation at a crossing lists its four ends in
    cyclic order, and consecutive ends are joined by uncrossed kite edges.
    """
    kites = [tuple(d.rotation[d.n + i]) for i in range(d.num_crossings)]
    rng = XorShift64Star(seed)
    for i in range(len(kites) - 1, 0, -1):
        j = rng.below(i + 1)
        kites[i], kites[j] = kites[j], kites[i]
    used: set[tuple[int, int]] = set()
    out = []
    for cyc in kites:
        es = {normalize_edge(cyc[k], cyc[(k + 1) % 4]) for k in range(4)}
        if es & used:
            continue
        used |= es
        out.append(cyc)
        if len(out) == count:
            break
    return out


def inject_kites(
    assignment: dict, kites: list[tuple[int, int, int, int]], first_color: int
) -> tuple[dict, list[tuple[int, int]]]:
    """Recolor each kite cycle alternately with a fresh color pair.

    Fresh colors start at ``first_color`` and are used nowhere else, so
    properness is kept and each kite becomes a cycle in its own pair.  When
    the two crossing edges inside a kite share a color, that color closes
    further bichromatic 4-cycles with the kite's pair, so a verifier reports
    at least the injected pairs.  Returns the new assignment and the pairs.
    """
    out = dict(assignment)
    pairs = []
    for k, cyc in enumerate(kites):
        a, b = first_color + 2 * k, first_color + 2 * k + 1
        for i in range(4):
            out[normalize_edge(cyc[i], cyc[(i + 1) % 4])] = a if i % 2 == 0 else b
        pairs.append((a, b))
    return out, pairs


def color_lists(g: AbstractGraph, size: int, seed: int, shapes: int = 64) -> dict:
    """Per-edge lists of ``size`` colors out of the pool 0..2*size-1.

    ``shapes`` uniformly random ``size``-subsets of the pool are drawn first;
    each edge then gets one of them, rotated by a random offset modulo the
    pool.  That keeps the set-up cheap (two draws per edge) while every list
    is a seeded ``size``-subset of the pool, as the list-coloring theorem
    allows.
    """
    rng = XorShift64Star(seed)
    pool_size = 2 * size
    base = []
    for _ in range(shapes):
        pool = list(range(pool_size))
        for i in range(size):
            j = i + rng.below(pool_size - i)
            pool[i], pool[j] = pool[j], pool[i]
        base.append(pool[:size])
    colors = list(range(pool_size))  # one int object per color, shared by all lists
    lists = {}
    for e in g.sorted_edges():
        shape = base[rng.below(shapes)]
        r = rng.below(pool_size)
        lists[e] = [colors[(c + r) % pool_size] for c in shape]
    return lists


def alternates(cycle: tuple[int, ...], assignment: dict, a: int, b: int) -> bool:
    """True iff the closed walk ``cycle`` is a cycle colored a, b, a, b, ..."""
    k = len(cycle)
    if k < 4 or k % 2 or len(set(cycle)) != k:
        return False
    colors = []
    for i in range(k):
        c = assignment.get(normalize_edge(cycle[i], cycle[(i + 1) % k]))
        colors.append(c)
    first = colors[0]
    if first not in (a, b):
        return False
    other = b if first == a else a
    return all(c == (first if i % 2 == 0 else other) for i, c in enumerate(colors))


def relabel(d: OnePlanarDrawing, seed: int) -> OnePlanarDrawing:
    """The same drawing under a seeded permutation of vertex and crossing ids."""
    rng = XorShift64Star(seed)
    n, k = d.n, d.num_crossings

    def shuffled(m: int) -> list[int]:
        p = list(range(m))
        for i in range(m - 1, 0, -1):
            j = rng.below(i + 1)
            p[i], p[j] = p[j], p[i]
        return p

    pv = shuffled(n)
    pz = [n + i for i in shuffled(k)]
    new_id = pv + pz
    edges = [(new_id[u], new_id[v]) for u, v in d.base.edges]
    crossings = [None] * k
    for i, c in enumerate(d.crossings):
        crossings[pz[i] - n] = Crossing(
            normalize_edge(new_id[c.e1[0]], new_id[c.e1[1]]),
            normalize_edge(new_id[c.e2[0]], new_id[c.e2[1]]),
        )
    rotation = [None] * (n + k)
    for w, order in enumerate(d.rotation):
        rotation[new_id[w]] = [new_id[x] for x in order]
    return OnePlanarDrawing(AbstractGraph(n, edges), crossings, rotation)
