"""Canonical triangulation of a 1-planar drawing.

The pipeline, applied to a valid connected drawing:

1. Around every crossing, make sure each of the four corner faces is the
   triangle formed by the crossing and two consecutive neighbors, adding
   the missing quad edges drawn close to the crossing.
2. When such a quad edge already exists elsewhere in the graph, the old
   copy is deleted first (together with its crossing record, if it was
   crossed) so the graph stays simple and the copy bounding the crossing
   survives.
3. From each crossing pair, the lexicographically larger edge is removed,
   leaving a plane graph.
4. That plane graph is triangulated: repeatedly chord the longest face
   (smallest face id among equals; one heap keyed (-length, face id), so a
   chord costs O(log F) plus a scan of its face) between two non-adjacent
   vertices at face distance 2, preferring the lexicographically smallest
   pair.  If some face admits no chord the deadlock is reported, never
   repaired by changing the vertex set.
5. The removed edges are re-inserted across their old partners.  If step 4
   happened to re-add such an edge as a plane chord, the re-insertion is
   skipped and that crossing simply disappears from the drawing.

Steps 1-3 work on a ``MutableEmbedding``, whose face table they read.  Step
4 reads that table once, to seed its heap, and from then on steps 4 and 5
edit the bare rotations through ``split_face`` and ``cross_edge``.
Provenance of every mutation is kept on the result.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .embedding import MutableEmbedding, cross_edge, dir_index, split_face
from .model import (
    AbstractGraph,
    Crossing,
    Edge,
    InvalidDrawingError,
    OnePlanarDrawing,
    OnePlanarError,
    normalize_edge,
    validate_drawing,
)


class TriangulationError(OnePlanarError):
    pass


class StepFourDeadlock(TriangulationError):
    """A face of the plane graph admits no chord between non-adjacent vertices."""

    def __init__(self, face: list[int]):
        super().__init__(f"no admissible chord in face {face}")
        self.face = tuple(face)


@dataclass(frozen=True)
class CanonicalTriangulation:
    drawing: OnePlanarDrawing
    added_kite_edges: tuple[Edge, ...]
    removed_duplicates: tuple[Edge, ...]
    temporarily_removed: tuple[Edge, ...]
    added_fill_edges: tuple[Edge, ...]

    @property
    def base(self) -> AbstractGraph:
        return self.drawing.base


def is_canonical(d: OnePlanarDrawing) -> bool:
    """True iff d is valid, every planarization face is a triangle, and each
    crossing's four neighbors are joined by a cycle of graph edges (the
    kite).  Validity already gives every crossing degree 4."""
    if not validate_drawing(d).valid:
        return False
    if any(len(f) != 3 for f in d.face_list.faces):
        return False
    n = d.n
    for i in range(d.num_crossings):
        order = d.rotation[n + i]
        for k in range(4):
            if normalize_edge(order[k], order[(k + 1) % 4]) not in d.base.edges:
                return False
    return True


def canonical_triangulate(d: OnePlanarDrawing) -> CanonicalTriangulation:
    report = validate_drawing(d)
    if not report.valid:
        raise InvalidDrawingError(report)
    if d.face_list.components != 1:
        raise TriangulationError("canonical triangulation needs a connected drawing")
    if is_canonical(d):
        return CanonicalTriangulation(d, (), (), (), ())

    n = d.n
    emb = MutableEmbedding(d.rotation, d.face_list.faces)
    gadj: set[Edge] = set(d.base.edges)
    # working crossing state: planarization id -> original record
    work: dict[int, Crossing] = {n + i: c for i, c in enumerate(d.crossings)}

    added_kite: list[Edge] = []
    removed_dup: list[Edge] = []

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
                # never z's own edge: z's rotation alternates 4 distinct ends
                other = d.crossing_of_edge(*e)
                if other in work:
                    emb.remove_crossing(other, e)
                    del work[other]
                else:
                    emb.delete_edge(x, y)
                gadj.discard(e)
                removed_dup.append(e)
                fid = emb.edge_face[(x, z)]
            face = emb.faces[fid]
            L = len(face)
            i = dir_index(face, x, z)
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

    # step 4: chord every remaining non-triangular face.  The face table is read
    # once, to seed the heap; a new face takes the next id past every live one.
    # Only the popped face is ever split, so no entry goes stale.  After step 3
    # gadj is exactly the adjacency of the rotations, so a chord it lacks is new.
    rot = emb.rot
    added_fill: list[Edge] = []
    heap = [(-len(face), fid, face) for fid, face in emb.faces.items() if len(face) > 3]
    next_fid = max(emb.faces) + 1
    heapq.heapify(heap)
    while heap:
        _, _, face = heapq.heappop(heap)
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
        for part in split_face(rot, face, p, q):
            if len(part) > 3:
                heapq.heappush(heap, (-len(part), next_fid, part))
            next_fid += 1
        gadj.add(e)
        added_fill.append(e)

    # step 5: re-insert the removed edges across their old partners.  Steps 2
    # and 3 smoothed every crossing vertex away, so crossing i gets id n + i.
    # Each kept edge is whole and every face is a triangle, so cross_edge needs
    # no check beyond the ends it draws the new edge between.
    final_crossings: list[Crossing] = []
    for record, removed, kept in removed_order:
        if removed in gadj:
            continue  # step 4 restored it as a plane edge; the crossing is gone
        a, c = cross_edge(rot, kept[0], kept[1], n + len(final_crossings))
        if {a, c} != set(removed):
            raise TriangulationError(
                f"cannot restore edge {removed} across {kept}: "
                f"its quad is no longer in place"
            )
        gadj.add(removed)
        final_crossings.append(record)

    rotation = emb.rotations(range(n + len(final_crossings)))
    out = OnePlanarDrawing(AbstractGraph(n, gadj), final_crossings, rotation)
    return CanonicalTriangulation(
        drawing=out,
        added_kite_edges=tuple(added_kite),
        removed_duplicates=tuple(removed_dup),
        temporarily_removed=tuple(removed for _, removed, _k in removed_order),
        added_fill_edges=tuple(added_fill),
    )
