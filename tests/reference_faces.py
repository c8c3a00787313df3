"""Test-only reference for ``trace_faces``: the earlier walk and Euler check.

It marks every walked directed edge in a ``seen`` set, and it decides
genus component by component from per-component vertex, edge and face
tallies.  Kept here only to cross-check the library's consuming walk and
its one Euler total.
"""

from __future__ import annotations

from typing import Sequence

from oneplanar.model import FaceList, MalformedDrawingError


def _component_labels(rotation: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    comp = [-1] * len(rotation)
    components = 0
    for s in range(len(rotation)):
        if comp[s] >= 0:
            continue
        stack = [s]
        comp[s] = components
        while stack:
            w = stack.pop()
            for x in rotation[w]:
                if comp[x] < 0:
                    comp[x] = components
                    stack.append(x)
        components += 1
    return comp, components


def reference_trace_faces(rotation: Sequence[Sequence[int]]) -> FaceList:
    succ: list[dict[int, int]] = []
    for w, order in enumerate(rotation):
        if len(set(order)) != len(order):
            raise MalformedDrawingError(f"rotation[{w}] repeats a neighbor")
        succ.append({u: order[(k + 1) % len(order)] for k, u in enumerate(order)})
    for w, order in enumerate(rotation):
        for u in order:
            if w not in succ[u]:
                raise MalformedDrawingError(
                    f"rotation is asymmetric: {u} in rotation[{w}] but not conversely"
                )

    seen: set[tuple[int, int]] = set()
    faces: list[tuple[int, ...]] = []
    for u in range(len(rotation)):
        for v in rotation[u]:
            if (u, v) in seen:
                continue
            walk: list[int] = []
            cur = (u, v)
            while cur not in seen:
                seen.add(cur)
                walk.append(cur[0])
                cur = (cur[1], succ[cur[1]][cur[0]])
            faces.append(tuple(walk))

    # per-component Euler check; an isolated vertex counts one face
    comp, components = _component_labels(rotation)
    cv = [0] * components
    ce = [0] * components
    cf = [0] * components
    for w in range(len(rotation)):
        cv[comp[w]] += 1
        ce[comp[w]] += len(rotation[w])
    for f in faces:
        cf[comp[f[0]]] += 1
    genus = 0
    euler_ok = True
    for i in range(components):
        e = ce[i] // 2
        f = cf[i] if ce[i] else 1
        chi = cv[i] - e + f
        if chi != 2:
            euler_ok = False
        genus += (2 - chi) // 2
    return FaceList(tuple(faces), components, genus, euler_ok)
