"""Canonical triangulation of a 1-planar drawing.

The pipeline, applied to a valid connected drawing:

1. Around every crossing, make sure each of the four corner faces is the
   triangle formed by the crossing and two consecutive neighbors, adding
   the missing quad edges drawn close to the crossing.
2. When such a quad edge already exists elsewhere in the graph, the old
   copy is deleted first (together with its crossing record, if it was
   crossed) so the graph stays simple and the copy bounding the crossing
   survives.  A deletion that would disconnect the drawing is refused:
   nothing later could join the two sides again.
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

Steps 1-3 keep a face table beside the rotations, indexed by face id and by
directed edge, and edit it with three moves: a kite chord, an edge deletion
that merges the two faces of the edge, and a crossing removal (two
deletions, then smoothing the crossing away).  Step 4 reads that table once,
to seed its heap, and from then on steps 4 and 5 edit the bare rotations
through ``split_face`` and ``cross_edge``.  Provenance of every mutation is
kept on the result.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .embedding import cross_edge, dir_index, split_face
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
    # The steps 1-3 face table: face id -> vertex cycle, directed edge -> face
    # id.  A face takes the next id when it is registered, the drawing's faces
    # first and in trace order; smoothing a crossing away keeps its faces' ids.
    rot: dict[int, list[int]] = {w: list(order) for w, order in enumerate(d.rotation)}
    faces: dict[int, list[int]] = {}
    edge_face: dict[tuple[int, int], int] = {}
    fids = itertools.count()

    def set_face(fid: int, walk: list[int]) -> None:
        faces[fid] = walk
        for u, v in zip(walk, walk[1:] + walk[:1]):
            edge_face[u, v] = fid

    def delete(u: int, v: int, e: Edge) -> None:
        # the piece u-v of edge e goes, and the faces on its two sides merge
        f1, f2 = edge_face.pop((u, v)), edge_face.pop((v, u))
        if f1 == f2:
            # steps 4-5 only chord inside faces and cross kept edges, so
            # nothing would join the two sides again
            raise TriangulationError(f"removing edge {e} would disconnect the drawing")
        face1, face2 = faces.pop(f1), faces.pop(f2)
        p, q = dir_index(face1, u, v), dir_index(face2, v, u)
        rot[u].remove(v)
        rot[v].remove(u)
        # u -> v -> A... and v -> u -> B... merge to u -> B... -> v -> A...
        set_face(next(fids), face2[q + 1 :] + face2[:q] + face1[p + 1 :] + face1[:p])

    def remove_crossing(z: int, removed: Edge) -> None:
        # delete `removed` from crossing z, then smooth z away so that the
        # other edge through z is whole
        x, y = removed
        delete(x, z, removed)
        delete(z, y, removed)
        u, v = rot.pop(z)
        ru, rv = rot[u], rot[v]
        ru[ru.index(z)] = v
        rv[rv.index(z)] = u
        for fid in {edge_face.pop((u, z)), edge_face.pop((v, z))}:
            set_face(fid, [w for w in faces[fid] if w != z])
        del edge_face[z, u], edge_face[z, v]

    for face in d.face_list.faces:
        set_face(next(fids), list(face))
    gadj: set[Edge] = set(d.base.edges)
    # working crossing state: planarization id -> original record
    work: dict[int, Crossing] = {n + i: c for i, c in enumerate(d.crossings)}

    added_kite: list[Edge] = []
    removed_dup: list[Edge] = []

    # steps 1-2: complete the quad of triangles around each crossing.  Nothing
    # here edits a crossing's rotation, so the face walk on x -> z goes on to y.
    for z in sorted(work):
        if z not in work:
            continue
        order = list(rot[z])
        for k in range(4):
            x, y = order[k], order[(k + 1) % 4]
            fid = edge_face[x, z]
            if len(faces[fid]) == 3:
                continue
            e = normalize_edge(x, y)
            if e in gadj:
                # never z's own edge: z's rotation alternates 4 distinct ends
                other = d.crossing_of_edge(*e)
                if other in work:
                    remove_crossing(other, e)
                    del work[other]
                else:
                    delete(x, y, e)
                gadj.discard(e)
                removed_dup.append(e)
                fid = edge_face[x, z]
            face = faces.pop(fid)
            i = dir_index(face, x, z)
            for part in split_face(rot, face, *sorted((i, (i + 2) % len(face)))):
                set_face(next(fids), part)
            gadj.add(e)
            added_kite.append(e)

    # step 3: remove one edge of each crossing pair
    removed_order: list[tuple[Crossing, Edge, Edge]] = []
    for z in sorted(work):
        c = work[z]
        removed, kept = (c.e2, c.e1) if c.e2 > c.e1 else (c.e1, c.e2)
        remove_crossing(z, removed)
        gadj.discard(removed)
        removed_order.append((c, removed, kept))

    added_fill = _fill_faces(rot, faces, gadj)

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

    rotation = tuple(tuple(rot[w]) for w in range(n + len(final_crossings)))
    out = OnePlanarDrawing(AbstractGraph(n, gadj), final_crossings, rotation)
    return CanonicalTriangulation(
        drawing=out,
        added_kite_edges=tuple(added_kite),
        removed_duplicates=tuple(removed_dup),
        temporarily_removed=tuple(removed for _, removed, _k in removed_order),
        added_fill_edges=tuple(added_fill),
    )


def _fill_faces(
    rot: dict[int, list[int]], faces: dict[int, list[int]], gadj: set[Edge]
) -> list[Edge]:
    """Step 4: chord every face that is not a triangle; returns the chords.

    The face table is read once, to seed the heap; a new face takes the next
    id past every live one.  Only the popped face is ever split, so no entry
    goes stale.  After step 3 gadj is exactly the adjacency of the rotations,
    so a chord it lacks is new.
    """
    added_fill: list[Edge] = []
    heap = [(-len(face), fid, face) for fid, face in faces.items() if len(face) > 3]
    next_fid = max(faces) + 1
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
    return added_fill
