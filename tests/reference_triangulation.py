"""Test-only reference for ``canonical_triangulate``: the earlier step 4 scan.

Before every fill chord, step 4 scans all faces in face-id order and takes
the first of the longest, which is correct by construction but costs
O(F log F) per chord.  The embedding is built from a fresh trace of the
rotation rather than from the drawing's cached faces.  Kept here only to
cross-check the heap-ordered step 4 of the library version.
"""

from __future__ import annotations

from oneplanar.embedding import MutableEmbedding
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
