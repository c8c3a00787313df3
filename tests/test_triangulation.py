from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from oneplanar import (
    AbstractGraph,
    OnePlanarDrawing,
    canonical_triangulate,
    gen_random_oneplanar,
    is_canonical,
    named_instance,
    trace_faces,
    triangulation,
    validate_drawing,
    write_drawing_json,
)
from oneplanar.model import normalize_edge
from oneplanar.triangulation import TriangulationError

from conftest import without_uncrossed_edges
from reference_triangulation import reference_triangulate
from test_model import QUAD_KITE

# Step 2 inputs: a quad edge of crossing n (on 0-2 x 1-3) is missing from its
# corner face but drawn elsewhere, so the old copy of (0, 1) must go first.
# Uncrossed: (0, 1) runs around vertex 4.
STEP2_UNCROSSED = OnePlanarDrawing(
    AbstractGraph(5, [(0, 2), (1, 3), (0, 1), (0, 4), (1, 4), (1, 2), (2, 3), (0, 3)]),
    [((0, 2), (1, 3))],
    [[5, 3, 1, 4], [5, 4, 0, 2], [5, 1, 3], [5, 2, 0], [0, 1], [0, 1, 2, 3]],
)
# Crossed: (0, 1) is itself crossed by 4-5 at crossing 7, so removing it
# drops crossing 7 before the loop reaches it.
STEP2_CROSSED = OnePlanarDrawing(
    AbstractGraph(
        6, [(0, 2), (1, 3), (0, 1), (4, 5), (1, 2), (2, 3), (0, 3), (0, 5), (1, 5), (0, 4)]
    ),
    [((0, 2), (1, 3)), ((0, 1), (4, 5))],
    [[6, 3, 4, 7, 5], [6, 5, 7, 2], [6, 1, 3], [6, 2, 0], [7, 0], [7, 1, 0],
     [0, 1, 2, 3], [0, 4, 1, 5]],
)
# Two crossings, 0-2 x 1-3 at 7 and 0-4 x 1-5 at 8, with no quad edges: step 1
# draws (0, 1) for crossing 7, step 2 deletes it again to draw crossing 8's
# copy, and step 4 restores both removed edges as fill chords.
_RESTORED_EDGES = [(0, 2), (1, 3), (0, 4), (1, 5), (0, 6), (1, 6)]
_RESTORED_CROSSINGS = [((0, 2), (1, 3)), ((0, 4), (1, 5))]
_RESTORED_ROT = [[8, 6, 7], [8, 7, 6], [7], [7], [8], [8], [1, 0], [0, 1, 2, 3], [5, 4, 1, 0]]
STEP2_RESTORED = OnePlanarDrawing(
    AbstractGraph(7, _RESTORED_EDGES), _RESTORED_CROSSINGS, _RESTORED_ROT
)
# The same drawing plus edge 2-4: valid and connected, yet after steps 1-4 the
# faces beside (0, 2) no longer have 1 and 3 as their third corners, so (1, 3)
# cannot be drawn across it again and the drawing is refused.
STEP2_QUAD_LOST = OnePlanarDrawing(
    AbstractGraph(7, _RESTORED_EDGES + [(2, 4)]),
    _RESTORED_CROSSINGS,
    [[7, 4] if w == 2 else [2, 8] if w == 4 else order for w, order in enumerate(_RESTORED_ROT)],
)
QUAD_LOST_MESSAGE = "cannot restore edge (1, 3) across (0, 2): its quad is no longer in place"
# Crossings 0-2 x 1-3 at 6 and 0-1 x 4-5 at 7, nothing else: valid and
# connected, but the quad edge (0, 1) of crossing 6 is crossed at 7, and once
# its half 0-7 is gone the half 7-1 is all that holds 4-5 to the rest.
STEP2_DISCONNECTS = OnePlanarDrawing(
    AbstractGraph(6, [(0, 2), (1, 3), (0, 1), (4, 5)]),
    [((0, 2), (1, 3)), ((0, 1), (4, 5))],
    [[7, 6], [7, 6], [6], [6], [7], [7], [1, 0, 3, 2], [4, 0, 5, 1]],
)
DISCONNECTS_MESSAGE = "removing edge (0, 1) would disconnect the drawing"


def test_kite_triangulates_fully():
    T = canonical_triangulate(named_instance("kite"))
    d = T.drawing
    # the four quad edges around the old crossing are all present
    for e in ((0, 2), (1, 2), (1, 3), (0, 3)):
        assert e in d.base.edges
    # original edges survive
    assert (0, 1) in d.base.edges and (2, 3) in d.base.edges
    assert all(len(f) == 3 for f in trace_faces(d.rotation).faces)
    assert is_canonical(d)
    assert set(T.added_kite_edges) == {(0, 2), (1, 2), (1, 3), (0, 3)}
    assert T.temporarily_removed == ((2, 3),)
    # the removed edge came back as a plane chord, so the crossing is gone
    assert (2, 3) in T.added_fill_edges
    assert d.num_crossings == 0


def test_plane_triangulation_is_fixed_point():
    octa = named_instance("octahedron")
    T = canonical_triangulate(octa)
    assert T.drawing == octa
    assert T.added_kite_edges == ()
    assert T.removed_duplicates == ()
    assert T.temporarily_removed == ()
    assert T.added_fill_edges == ()


def test_idempotence():
    for name in ("kite", "k6_1planar", "octahedron", "icosahedron"):
        T = canonical_triangulate(named_instance(name))
        assert canonical_triangulate(T.drawing).drawing == T.drawing


def test_original_edges_survive(corpus_drawings):
    drawings, _ = corpus_drawings
    for d in drawings[:40]:
        T = canonical_triangulate(d)
        assert d.base.edges <= T.drawing.base.edges
        assert T.drawing.n == d.n


def test_corpus_capsule(corpus_drawings):
    drawings, _ = corpus_drawings
    for d in drawings[:60]:
        T = canonical_triangulate(d)
        assert is_canonical(T.drawing)
        fl = trace_faces(T.drawing.rotation)
        assert all(len(f) == 3 for f in fl.faces)
        for i in range(T.drawing.num_crossings):
            assert len(T.drawing.rotation[T.drawing.n + i]) == 4


def test_triangulated_graph_respects_edge_bound(corpus_drawings):
    from oneplanar import edge_bound_check

    drawings, _ = corpus_drawings
    for d in drawings[:60]:
        T = canonical_triangulate(d)
        assert edge_bound_check(T.drawing).passed


def test_is_canonical_false_on_quad_face():
    assert not is_canonical(QUAD_KITE)


def test_is_canonical_true_on_triangulations():
    assert is_canonical(named_instance("octahedron"))
    assert is_canonical(named_instance("k6_1planar"))
    assert not is_canonical(named_instance("kite"))


def test_quad_kite_triangulates_to_planar_k4():
    # quad edges exist, crossing removed, outer face chorded by the removed edge
    T = canonical_triangulate(QUAD_KITE)
    assert is_canonical(T.drawing)
    assert T.drawing.num_crossings == 0
    assert T.drawing.base.num_edges == 6


def test_disconnected_input_rejected():
    g = AbstractGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    d = OnePlanarDrawing(g, [], [[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4]])
    with pytest.raises(TriangulationError):
        canonical_triangulate(d)


def test_kite_quads_present_around_every_crossing(corpus_drawings):
    drawings, _ = corpus_drawings
    for d in drawings[:40]:
        T = canonical_triangulate(d)
        out = T.drawing
        for i in range(out.num_crossings):
            order = out.rotation[out.n + i]
            for k in range(4):
                assert normalize_edge(order[k], order[(k + 1) % 4]) in out.base.edges


@pytest.mark.parametrize(
    "d", [STEP2_UNCROSSED, STEP2_CROSSED, STEP2_RESTORED], ids=["uncrossed", "crossed", "restored"]
)
def test_step2_removes_duplicate_quad_edge(d):
    T = canonical_triangulate(d)
    assert T.removed_duplicates == ((0, 1),)
    assert is_canonical(T.drawing)
    assert T == reference_triangulate(d)


def test_valid_drawing_whose_quad_is_lost_is_refused():
    assert validate_drawing(STEP2_QUAD_LOST).valid
    assert STEP2_QUAD_LOST.face_list.components == 1
    with pytest.raises(TriangulationError) as info:
        canonical_triangulate(STEP2_QUAD_LOST)
    assert str(info.value) == QUAD_LOST_MESSAGE


def test_valid_drawing_whose_step2_deletion_disconnects_is_refused():
    # the reference, which splits the face, returns a two-component drawing
    assert validate_drawing(STEP2_DISCONNECTS).valid
    assert STEP2_DISCONNECTS.face_list.components == 1
    assert reference_triangulate(STEP2_DISCONNECTS).drawing.face_list.components == 2
    with pytest.raises(TriangulationError) as info:
        canonical_triangulate(STEP2_DISCONNECTS)
    assert str(info.value) == DISCONNECTS_MESSAGE


HAND_BUILT = {
    "step2-uncrossed": STEP2_UNCROSSED,
    "step2-crossed": STEP2_CROSSED,
    "step2-restored": STEP2_RESTORED,
}


def _triangulation_input(name: str) -> OnePlanarDrawing:
    if name in HAND_BUILT:
        return HAND_BUILT[name]
    n, frac, seed, every = name.split("-")[1:]
    d = gen_random_oneplanar(int(n), Fraction(frac), int(seed))
    return without_uncrossed_edges(d, int(every))


# sha256 of the triangulated drawing's JSON followed by its provenance as
# `triangulate --provenance` writes it; "thinned-n-fraction-seed-every" names
# gen_random_oneplanar(n, fraction, seed) without each `every`-th uncrossed edge
TRIANGULATE_PINS = {
    "step2-uncrossed": "44c21f4ce4dcf7512ef6ff79ae2b934fbab2cb82fe8c0c9352369d73017031ba",
    "step2-crossed": "1294d62f16881f0d0646cfb2d14849207d7c274b777d5e163cb5dae8d4c25df1",
    "step2-restored": "95217b991bdf9b52f18878ecf4d1f1ec35d548cb28b514b8b82d94eecbae1d52",
    "thinned-60-1/4-2-2": "6ba2e1dd2f1803cf393c918eaa03447bc577c1d5daed7e7a71eb3a45e3631f89",
    "thinned-150-1/2-9-3": "5fae9d535e392be2420f24ed52993fcadb94d4caf68fd6375c72e70c24fdc2ba",
    "thinned-300-1-4-2": "ce705d8c037365021527d576ca9cf2a2dc6668518cdb3ecb7703fa2806087711",
    "thinned-300-0-8-5": "cbaf06ed14f450f9d7a95b44eea6259ab5b6564b9966574a03e7b54abecc117a",
}


@pytest.mark.parametrize("name", sorted(TRIANGULATE_PINS))
def test_triangulate_output_pinned(name):
    T = canonical_triangulate(_triangulation_input(name))
    kinds = ("added_kite_edges", "removed_duplicates", "temporarily_removed", "added_fill_edges")
    prov = {k: [list(e) for e in getattr(T, k)] for k in kinds}
    text = write_drawing_json(T.drawing) + json.dumps(prov, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == TRIANGULATE_PINS[name]


def _cyclic(walks) -> list[tuple[int, ...]]:
    """Face walks as cycles: each one rotated to its least rotation, then sorted."""
    return sorted(min(tuple(w[k:]) + tuple(w[:k]) for k in range(len(w))) for w in walks)


def test_face_table_handed_to_step4_matches_traced_faces(monkeypatch):
    # steps 1-3 edit their face table move by move; when step 4 is handed it,
    # it must hold exactly the faces the rotations trace at that point, and
    # the edge set must be the rotations' adjacency
    fill = triangulation._fill_faces
    checked = []

    def check(rot, faces, gadj):
        assert sorted(rot) == list(range(len(rot)))
        assert _cyclic(faces.values()) == _cyclic(trace_faces([rot[w] for w in sorted(rot)]).faces)
        assert gadj == {normalize_edge(u, w) for u in rot for w in rot[u]}
        checked.append(len(faces))
        return fill(rot, faces, gadj)

    monkeypatch.setattr(triangulation, "_fill_faces", check)
    inputs = [_triangulation_input(name) for name in sorted(TRIANGULATE_PINS)]
    for d in inputs:
        canonical_triangulate(d)
    with pytest.raises(TriangulationError, match="its quad is no longer in place"):
        canonical_triangulate(STEP2_QUAD_LOST)
    assert len(checked) == len(inputs) + 1
