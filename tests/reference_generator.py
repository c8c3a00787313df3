"""Test-only reference for the generators: the earlier face-table version.

It grows the triangulation and inserts the crossings on an embedding that
keeps, beside the rotations, every face as a vertex cycle with a face id and
a directed-edge index, and reads each flanking triangle's third vertex from
that table.  The library now does the same on rotations alone; this copy
exists only to cross-check its output byte for byte.
"""

from __future__ import annotations

from fractions import Fraction

from oneplanar.corpus import _K3_ROT, _OCTAHEDRON_ROT, XorShift64Star
from oneplanar.model import AbstractGraph, Crossing, Edge, OnePlanarDrawing, normalize_edge, trace_faces


class _FaceTable:
    def __init__(self, rotations):
        self.rot = {w: list(order) for w, order in enumerate(rotations)}
        self.faces: dict[int, list[int]] = {}
        self.edge_face: dict[tuple[int, int], int] = {}
        self._next_fid = 0
        for face in trace_faces(rotations).faces:
            self._register_face(list(face))

    def _register_face(self, walk: list[int]) -> int:
        fid = self._next_fid
        self._next_fid += 1
        self.faces[fid] = walk
        for i in range(len(walk)):
            self.edge_face[(walk[i], walk[(i + 1) % len(walk)])] = fid
        return fid

    def triangle_third(self, fid: int, u: int, v: int) -> int:
        face = self.faces[fid]
        assert len(face) == 3
        return next(w for w in face if w != u and w != v)

    def insert_vertex_in_face(self, fid: int, v: int) -> tuple[int, int, int]:
        a, b, c = self.faces.pop(fid)
        self.rot[v] = [a, c, b]
        for w, after in ((a, c), (b, a), (c, b)):
            self.rot[w].insert(self.rot[w].index(after) + 1, v)
        return (
            self._register_face([a, b, v]),
            self._register_face([b, c, v]),
            self._register_face([c, a, v]),
        )

    def insert_crossing(self, b: int, d: int, z: int) -> tuple[int, int]:
        f1 = self.edge_face.pop((b, d))
        f2 = self.edge_face.pop((d, b))
        a = self.triangle_third(f1, b, d)
        c = self.triangle_third(f2, d, b)
        assert a != c and c not in self.rot[a]
        self.rot[a].insert(self.rot[a].index(d) + 1, z)
        self.rot[c].insert(self.rot[c].index(b) + 1, z)
        self.rot[b][self.rot[b].index(d)] = z
        self.rot[d][self.rot[d].index(b)] = z
        self.rot[z] = [a, d, c, b]
        del self.faces[f1], self.faces[f2]
        for tri in ([a, b, z], [b, c, z], [c, d, z], [d, a, z]):
            self._register_face(tri)
        return a, c

    def drawing(self, n: int, edges, crossings: list[Crossing]) -> OnePlanarDrawing:
        rotation = [self.rot[w] for w in range(n + len(crossings))]
        return OnePlanarDrawing(AbstractGraph(n, edges), crossings, rotation)


def _grow_triangulation(n: int, rng: XorShift64Star) -> _FaceTable:
    emb = _FaceTable(_K3_ROT)
    live = sorted(emb.faces)
    for v in range(3, n):
        k = rng.below(len(live))
        f1, f2, f3 = emb.insert_vertex_in_face(live[k], v)
        live[k] = f1
        live.append(f2)
        live.append(f3)
    return emb


def gen_plane_triangulation(n: int, seed: int) -> OnePlanarDrawing:
    emb = _grow_triangulation(n, XorShift64Star(seed))
    return emb.drawing(n, [(u, v) for u in range(n) for v in emb.rot[u] if u < v], [])


def gen_random_oneplanar(n: int, frac: Fraction, seed: int) -> OnePlanarDrawing:
    rng = XorShift64Star(seed)
    emb = _grow_triangulation(n, rng)
    gadj: set[Edge] = {(u, v) for u in emb.rot for v in emb.rot[u] if u < v}
    candidates = sorted(gadj)
    crossed: set[Edge] = set()
    crossings: list[Crossing] = []
    target = int(frac * (n - 2))
    attempts = 0
    while len(crossings) < target and attempts < 30 * target + 30:
        attempts += 1
        b, d = candidates[rng.below(len(candidates))]
        if (b, d) in crossed:
            continue
        f1 = emb.edge_face[(b, d)]
        f2 = emb.edge_face[(d, b)]
        if len(emb.faces[f1]) != 3 or len(emb.faces[f2]) != 3:
            continue
        a = emb.triangle_third(f1, b, d)
        c = emb.triangle_third(f2, d, b)
        if a >= n or c >= n or a == c:
            continue
        chord = normalize_edge(a, c)
        if chord in gadj:
            continue
        emb.insert_crossing(b, d, n + len(crossings))
        gadj.add(chord)
        crossed.add(chord)
        crossed.add((b, d))
        crossings.append(Crossing(chord, (b, d)))
    return emb.drawing(n, gadj, crossings)


def build_k6_1planar() -> OnePlanarDrawing:
    emb = _FaceTable(_OCTAHEDRON_ROT)
    crossings: list[Crossing] = []
    for b, d in [(1, 3), (2, 4), (0, 5)]:
        a, c = emb.insert_crossing(b, d, 6 + len(crossings))
        crossings.append(Crossing(normalize_edge(a, c), (b, d)))
    return emb.drawing(6, [(u, v) for u in range(6) for v in range(u + 1, 6)], crossings)
