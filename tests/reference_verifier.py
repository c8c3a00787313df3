"""Test-only reference for ``verify_acyclic``: the earlier union-find search.

For every color pair meeting at some vertex, both color classes are sorted
and merged into a fresh union-find; a pair is cyclic when some edge joins
two vertices already connected.  The witness is then the first a/b cycle
found by walking from each vertex carrying both colors in ascending order,
color a first.  Kept here only to cross-check the alternating-walk search
on colorings without unknown edges (this version also feeds colored
non-edges to the union-find and can then report a cycle with an empty
vertex sequence).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from oneplanar.coloring import EdgeColoring, VerifyReport
from oneplanar.model import AbstractGraph, Edge, normalize_edge


def reference_verify(g: AbstractGraph, coloring: EdgeColoring) -> VerifyReport:
    assignment = coloring.assignment
    missing = tuple(sorted(g.edges - set(assignment)))
    unknown = tuple(sorted(set(assignment) - g.edges))

    proper: list[tuple[Edge, Edge]] = []
    at: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for (u, v), c in sorted(assignment.items()):
        if (u, v) in g.edges:
            for w, o in ((u, v), (v, u)):
                if c in at[w]:
                    proper.append((normalize_edge(w, at[w][c]), (u, v)))
                else:
                    at[w][c] = o

    cycles: list[tuple[int, int, tuple[int, ...]]] = []
    if not proper and not missing:
        by_color: dict[int, list[Edge]] = {}
        for e, c in assignment.items():
            by_color.setdefault(c, []).append(e)
        pairs: set[tuple[int, int]] = set()
        for w in range(g.n):
            cs = sorted(at[w])
            for i in range(len(cs)):
                for j in range(i + 1, len(cs)):
                    pairs.add((cs[i], cs[j]))
        for a, b in sorted(pairs):
            parent: dict[int, int] = {}

            def find(x: int) -> int:
                while parent.get(x, x) != x:
                    parent[x] = parent.get(parent[x], parent[x])
                    x = parent[x]
                return x

            cyclic = False
            for u, v in sorted(by_color[a] + by_color[b]):
                ru, rv = find(u), find(v)
                if ru == rv:
                    cyclic = True
                    break
                parent[ru] = rv
            if cyclic:
                cycles.append((a, b, _extract_cycle(at, a, b)))

    ok = not (missing or unknown or proper or cycles)
    return VerifyReport(ok, missing, unknown, tuple(proper), tuple(cycles))


def _extract_cycle(at: Sequence[Mapping[int, int]], a: int, b: int) -> tuple[int, ...]:
    seen: set[int] = set()
    for start in range(len(at)):
        if start in seen or a not in at[start] or b not in at[start]:
            continue
        walk = [start]
        cur, want = start, a
        for _ in range(2 * len(at) + 2):
            nxt = at[cur].get(want)
            if nxt is None:
                break
            if nxt == start:
                return tuple(walk)
            walk.append(nxt)
            cur = nxt
            want = b if want == a else a
        seen.update(walk)
    return ()
