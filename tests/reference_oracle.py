"""Test-only reference for ``oracle_chi_a``: the earlier recursive search.

One recursion level per edge, with its own per-vertex color tables and a
cycle test that walks an alternating path for every color at either end of
the edge.  Its depth equals the edge count, so it is usable only on small
graphs.  Kept here only to cross-check the iterative library version.
"""

from __future__ import annotations

from oneplanar.model import AbstractGraph, Edge


def reference_oracle(g: AbstractGraph, limit: int) -> int | None:
    if g.num_edges == 0:
        return 0
    edges = _search_order(g)
    for k in range(max(g.max_degree(), 1), limit + 1):
        if _colorable_with(g, edges, k):
            return k
    return None


def _search_order(g: AbstractGraph) -> list[Edge]:
    remaining = set(g.edges)
    order: list[Edge] = []
    seen_v: set[int] = set()
    while remaining:
        for e in sorted(remaining):
            if e[0] in seen_v or e[1] in seen_v:
                break
        else:
            e = min(remaining)
        order.append(e)
        remaining.remove(e)
        seen_v.update(e)
    return order


def _alternating_reaches(colors, start: int, target: int, want: int, other: int) -> bool:
    cur = start
    w = want
    for _ in range(2 * len(colors) + 2):
        nxt = colors[cur].get(w)
        if nxt is None:
            return False
        if nxt == target:
            return True
        cur = nxt
        w = other if w == want else want
    return False


def _colorable_with(g: AbstractGraph, edges: list[Edge], k: int) -> bool:
    colors: list[dict[int, int]] = [dict() for _ in range(g.n)]

    def ok_acyclic(u: int, v: int, c: int) -> bool:
        for cp in set(colors[u]) | set(colors[v]):
            if cp == c:
                continue
            if _alternating_reaches(colors, u, v, cp, c):
                return False
        return True

    def rec(idx: int, used: int) -> bool:
        if idx == len(edges):
            return True
        u, v = edges[idx]
        top = min(k, used + 1)
        for c in range(top):
            if c in colors[u] or c in colors[v]:
                continue
            if not ok_acyclic(u, v, c):
                continue
            colors[u][c] = v
            colors[v][c] = u
            if rec(idx + 1, max(used, c + 1)):
                return True
            del colors[u][c]
            del colors[v][c]
        return False

    return rec(0, 0)
