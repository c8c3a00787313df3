"""Test-only reference for ``canonical_triangulate``: the earlier step 4 scan.

Before every fill chord, step 4 scans all faces in face-id order and takes
the first of the longest, which is correct by construction but costs
O(F log F) per chord.  The embedding is built from a fresh trace of the
rotation rather than from the drawing's cached faces, and it is this
module's own copy of the face-table embedding, which keeps its faces up to
date through steps 4 and 5 and checks every precondition of a crossing
insertion.  Kept here only to cross-check the heap-ordered step 4 on bare
rotations of the library version.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from oneplanar.embedding import EmbeddingError
from oneplanar.model import (
    AbstractGraph,
    Crossing,
    Edge,
    InvalidDrawingError,
    OnePlanarDrawing,
    normalize_edge,
    trace_faces,
    validate_drawing,
)
from oneplanar.triangulation import (
    CanonicalTriangulation,
    StepFourDeadlock,
    TriangulationError,
    is_canonical,
)


class MutableEmbedding:
    """Rotations plus their face cycles, kept up to date by every surgery of
    steps 1-5, chord insertion and crossing insertion included."""

    def __init__(self, rotations: Sequence[Sequence[int]], faces: Iterable[Sequence[int]]):
        self.rot: dict[int, list[int]] = {w: list(order) for w, order in enumerate(rotations)}
        self.faces: dict[int, list[int]] = {}
        self.edge_face: dict[tuple[int, int], int] = {}
        self._next_fid = 0
        for face in faces:
            self._register_face(list(face))

    # -- construction ------------------------------------------------------

    def _set_face(self, fid: int, walk: list[int]) -> None:
        self.faces[fid] = walk
        L = len(walk)
        for i in range(L):
            self.edge_face[(walk[i], walk[(i + 1) % L])] = fid

    def _register_face(self, walk: list[int]) -> int:
        fid = self._next_fid
        self._next_fid += 1
        self._set_face(fid, walk)
        return fid

    # -- queries -----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.rot.get(u, ())

    def rotations(self, order: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.rot[w]) for w in order)

    # -- surgeries ---------------------------------------------------------

    def add_chord(self, fid: int, i: int, j: int) -> tuple[int, int]:
        """Split face fid with a chord between positions i < j.

        Returns (fid of face[i..j] side, fid of the complementary side).
        The chord endpoints must be distinct, non-adjacent vertices and the
        positions must not be consecutive on the face.
        """
        face = self.faces[fid]
        L = len(face)
        if not (0 <= i < j < L):
            raise EmbeddingError(f"chord positions ({i},{j}) out of order for face of length {L}")
        x, y = face[i], face[j]
        if x == y:
            raise EmbeddingError(f"chord endpoints coincide at vertex {x}")
        if j - i < 2 or (i == 0 and j == L - 1):
            raise EmbeddingError("chord positions are consecutive on the face")
        if self.has_edge(x, y):
            raise EmbeddingError(f"chord {x}-{y} already an edge")

        prev_x = face[i - 1]
        prev_y = face[j - 1]
        rx = self.rot[x]
        rx.insert(rx.index(prev_x) + 1, y)
        ry = self.rot[y]
        ry.insert(ry.index(prev_y) + 1, x)

        f1 = face[i : j + 1]          # x .. y, closed by chord (y -> x)
        f2 = face[j:] + face[: i + 1]  # y .. x, closed by chord (x -> y)
        del self.faces[fid]
        fid1 = self._register_face(f1)
        fid2 = self._register_face(f2)
        return fid1, fid2

    def _check_deletable(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise EmbeddingError(f"no edge {u}-{v}")
        if len(self.rot[u]) == 1 or len(self.rot[v]) == 1:
            raise EmbeddingError(f"deleting {u}-{v} would isolate a vertex")

    def delete_edge(self, u: int, v: int) -> None:
        """Remove edge uv, merging its two faces (or splitting one, if a bridge).

        Raises EmbeddingError, leaving the embedding untouched, when uv is
        missing or an endpoint has no other neighbor.
        """
        self._check_deletable(u, v)
        f1 = self.edge_face[(u, v)]
        f2 = self.edge_face[(v, u)]
        face1 = self.faces[f1]
        p = self._dir_index(face1, u, v)
        if f1 != f2:
            face2 = self.faces[f2]
            q = self._dir_index(face2, v, u)
            # u -> v -> A... and v -> u -> B... merge to u -> B... -> v -> A...
            a_part = face1[p + 1 :] + face1[:p]  # v, A..., (back to u)
            b_part = face2[q + 1 :] + face2[:q]  # u, B..., (back to v)
            new_faces = [b_part + a_part]
        else:
            q = self._dir_index(face1, v, u)
            if p > q:
                p, q = q, p
                u, v = v, u
            side_a = face1[p + 1 : q]          # v-side loop
            side_b = face1[q + 1 :] + face1[:p]  # u-side loop
            new_faces = [side_a, side_b]
        del self.edge_face[(u, v)], self.edge_face[(v, u)]
        self.rot[u].remove(v)
        self.rot[v].remove(u)
        for fid in {f1, f2}:
            del self.faces[fid]
        for face in new_faces:
            self._register_face(face)

    @staticmethod
    def _dir_index(face: list[int], u: int, v: int) -> int:
        L = len(face)
        for i in range(L):
            if face[i] == u and face[(i + 1) % L] == v:
                return i
        raise EmbeddingError(f"directed edge ({u},{v}) not on face {face}")

    def insert_crossing(self, b: int, d: int, z: int) -> tuple[int, int]:
        """Replace edge b-d by a new edge crossing it at new vertex z.

        Both faces of b-d must be triangles; their third vertices a, c become
        the endpoints of the new edge and must be distinct and non-adjacent.
        Every precondition is checked before the rotations are edited.
        Returns (a, c).
        """
        if z in self.rot:
            raise EmbeddingError(f"vertex {z} already present")
        if not self.has_edge(b, d):
            raise EmbeddingError(f"no edge {b}-{d}")
        f1 = self.edge_face[(b, d)]
        f2 = self.edge_face[(d, b)]
        for fid in (f1, f2):  # a closed 3-walk without loops has 3 distinct vertices
            if len(self.faces[fid]) != 3:
                raise EmbeddingError(f"face {fid} has length {len(self.faces[fid])}, not 3")
        a, c = (next(w for w in self.faces[f] if w != b and w != d) for f in (f1, f2))
        if a == c:
            raise EmbeddingError(f"faces of {b}-{d} share third vertex {a}")
        if self.has_edge(a, c):
            raise EmbeddingError(f"new edge {a}-{c} already present")
        ra = self.rot[a]
        ra.insert(ra.index(d) + 1, z)
        rc = self.rot[c]
        rc.insert(rc.index(b) + 1, z)
        self.rot[b][self.rot[b].index(d)] = z
        self.rot[d][self.rot[d].index(b)] = z
        self.rot[z] = [a, d, c, b]
        del self.faces[f1], self.faces[f2], self.edge_face[(b, d)], self.edge_face[(d, b)]
        for tri in ([a, b, z], [b, c, z], [c, d, z], [d, a, z]):
            self._register_face(tri)
        return a, c

    def remove_crossing(self, z: int, removed: tuple[int, int]) -> None:
        """Delete one of the two edges crossing at z; the other becomes whole.

        Every precondition of the two half-edge deletions and of smoothing
        z away is checked first, so a refused removal leaves the embedding
        untouched.  Smoothing z away keeps the ids of the faces it lies on.
        """
        x, y = removed
        order = self.rot[z]
        if len(order) != 4 or x not in order or y not in order:
            raise EmbeddingError(f"{removed} is not split at crossing {z}")
        self._check_deletable(x, z)
        self._check_deletable(z, y)
        u, v = (w for w in order if w not in removed)
        if self.has_edge(u, v):
            raise EmbeddingError(f"smoothing {z} would create a multi-edge {u}-{v}")
        self.delete_edge(x, z)
        self.delete_edge(z, y)
        # z is left on the path u-z-v alone: join u to v directly
        self.rot[u][self.rot[u].index(z)] = v
        self.rot[v][self.rot[v].index(z)] = u
        for fid in {self.edge_face[(u, z)], self.edge_face[(v, z)]}:
            self._set_face(fid, [w for w in self.faces[fid] if w != z])
        del self.rot[z], self.edge_face[(u, z)], self.edge_face[(z, u)]
        del self.edge_face[(v, z)], self.edge_face[(z, v)]


def reference_triangulate(d: OnePlanarDrawing) -> CanonicalTriangulation:
    report = validate_drawing(d)
    if not report.valid:
        raise InvalidDrawingError(report)
    if d.face_list.components != 1:
        raise TriangulationError("canonical triangulation needs a connected drawing")
    if is_canonical(d):
        return CanonicalTriangulation(d, (), (), (), ())

    n = d.n
    emb = MutableEmbedding(d.rotation, trace_faces(d.rotation).faces)
    gadj: set[Edge] = set(d.base.edges)
    # working crossing state: planarization id -> original record
    work: dict[int, Crossing] = {n + i: c for i, c in enumerate(d.crossings)}
    edge_cross: dict[Edge, int] = {}
    for z, c in work.items():
        edge_cross[c.e1] = z
        edge_cross[c.e2] = z

    added_kite: list[Edge] = []
    removed_dup: list[Edge] = []

    def drop_crossing_record(z: int) -> None:
        c = work.pop(z)
        edge_cross.pop(c.e1, None)
        edge_cross.pop(c.e2, None)

    # steps 1-2: complete the quad of triangles around each crossing
    for z in sorted(work):
        if z not in work:
            continue
        order = list(emb.rot[z])
        for k in range(4):
            x, y = order[k], order[(k + 1) % 4]
            fid = emb.edge_face[(x, z)]
            if len(emb.faces[fid]) == 3:
                continue
            e = normalize_edge(x, y)
            if e in gadj:
                other = edge_cross.get(e)
                if other is not None:
                    if other == z:
                        raise TriangulationError(
                            f"edge {e} both crosses at and bounds crossing {z}"
                        )
                    emb.remove_crossing(other, e)
                    drop_crossing_record(other)
                else:
                    emb.delete_edge(x, y)
                gadj.discard(e)
                removed_dup.append(e)
                fid = emb.edge_face[(x, z)]
            face = emb.faces[fid]
            L = len(face)
            i = emb._dir_index(face, x, z)
            if face[(i + 2) % L] != y:
                raise TriangulationError(f"corner {x}-{z}-{y} not on face {face}")
            p, q = sorted((i, (i + 2) % L))
            emb.add_chord(fid, p, q)
            gadj.add(e)
            added_kite.append(e)

    # step 3: remove one edge of each crossing pair
    removed_order: list[tuple[Crossing, Edge, Edge]] = []
    for z in sorted(work):
        c = work[z]
        removed, kept = (c.e2, c.e1) if c.e2 > c.e1 else (c.e1, c.e2)
        emb.remove_crossing(z, removed)
        gadj.discard(removed)
        removed_order.append((c, removed, kept))
    for z in list(work):
        drop_crossing_record(z)

    # step 4: chord every remaining non-triangular face
    added_fill: list[Edge] = []
    while True:
        best_fid = -1
        best_len = 3
        for fid in sorted(emb.faces):
            L = len(emb.faces[fid])
            if L > best_len:
                best_len = L
                best_fid = fid
        if best_fid < 0:
            break
        face = emb.faces[best_fid]
        L = len(face)
        choice: tuple[Edge, int] | None = None
        for i in range(L):
            x, y = face[i], face[(i + 2) % L]
            if x == y:
                continue
            e = normalize_edge(x, y)
            if e in gadj:
                continue
            if choice is None or (e, i) < choice:
                choice = (e, i)
        if choice is None:
            raise StepFourDeadlock(face)
        e, i = choice
        p, q = sorted((i, (i + 2) % L))
        emb.add_chord(best_fid, p, q)
        gadj.add(e)
        added_fill.append(e)

    # step 5: re-insert the removed edges across their old partners
    final_crossings: list[Crossing] = []
    final_ids: list[int] = []
    next_work = n + len(d.crossings)
    for record, removed, kept in removed_order:
        if removed in gadj:
            continue  # step 4 restored it as a plane edge; the crossing is gone
        z = next_work
        next_work += 1
        a, c = emb.insert_crossing(kept[0], kept[1], z)
        if {a, c} != set(removed):
            raise TriangulationError(
                f"cannot restore edge {removed} across {kept}: "
                f"its quad is no longer in place"
            )
        gadj.add(removed)
        final_crossings.append(record)
        final_ids.append(z)

    remap = {z: n + i for i, z in enumerate(final_ids)}
    rotation = []
    for w in range(n):
        rotation.append([remap.get(x, x) for x in emb.rot[w]])
    for z in final_ids:
        rotation.append([remap.get(x, x) for x in emb.rot[z]])

    out = OnePlanarDrawing(AbstractGraph(n, gadj), final_crossings, rotation)
    return CanonicalTriangulation(
        drawing=out,
        added_kite_edges=tuple(added_kite),
        removed_duplicates=tuple(removed_dup),
        temporarily_removed=tuple(removed for _, removed, _k in removed_order),
        added_fill_edges=tuple(added_fill),
    )
