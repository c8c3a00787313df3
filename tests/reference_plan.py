"""Test-only reference for ``build_elimination_plan``: the earlier full re-check.

After every removal, every live vertex within two hops of the removed vertex
is re-tested with ``matches_configuration`` and pushed again.  That is
correct by construction (a vertex's status depends only on its own
neighbors' degrees, and degrees change only at the removed vertex's
neighbors) but costs a sort per vertex per hop.  Kept here only to
cross-check the ceiling-triggered re-check of the library version.
"""

from __future__ import annotations

import heapq

from oneplanar.coloring import EliminationPlan, PlanStep
from oneplanar.model import AbstractGraph
from oneplanar.structure import ConfigurationNotFound, matches_configuration


def reference_plan(g: AbstractGraph) -> EliminationPlan:
    n = g.n
    adj: dict[int, set[int]] = {v: set(g.neighbors(v)) for v in range(n)}
    alive: set[int] = set(range(n))

    def degree(u: int) -> int:
        return len(adj[u])

    heap: list[int] = []

    def push(u: int) -> None:
        deg = len(adj[u])
        if deg <= 2:
            heapq.heappush(heap, deg * n + u)
        elif matches_configuration(adj[u], degree):
            heapq.heappush(heap, 3 * n + u)

    for v in alive:
        push(v)

    steps: list[PlanStep] = []
    while alive:
        while heap:
            k, v = divmod(heap[0], n)
            if v in alive and (
                len(adj[v]) == k if k <= 2 else matches_configuration(adj[v], degree)
            ):
                break
            heapq.heappop(heap)
        else:
            raise ConfigurationNotFound(
                "no vertex of degree <= 2 and no configuration center; "
                "the input is not 1-planar (or a bug)"
            )
        nbrs = sorted(adj[v], key=lambda u: (len(adj[u]), u))
        aux = None
        aux_added = False
        if k <= 2:
            case, kind = "deg2", None
            if len(nbrs) == 2:
                aux = (nbrs[0], nbrs[1])
                aux_added = nbrs[1] not in adj[nbrs[0]]
        else:
            case, kind = "config", f"C{len(nbrs) - 1}"
            aux = (nbrs[-2], nbrs[-1])
            aux_added = nbrs[-1] not in adj[nbrs[-2]]
        steps.append(PlanStep(v, case, kind, tuple(nbrs), aux, aux_added))

        alive.remove(v)
        for u in nbrs:
            adj[u].discard(v)
        del adj[v]
        if aux_added:
            a, b = aux
            adj[a].add(b)
            adj[b].add(a)
        touched: set[int] = set()
        for u in nbrs:
            if u in alive:
                touched.add(u)
                touched.update(adj[u])
        touched &= alive
        for u in touched:
            push(u)
    return EliminationPlan(tuple(steps))
