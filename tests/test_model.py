from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from oneplanar import (
    AbstractGraph,
    Crossing,
    InvalidDrawingError,
    MalformedDrawingError,
    OnePlanarDrawing,
    apply_rules,
    associated_plane_graph,
    canonical_triangulate,
    edge_bound_check,
    gen_random_oneplanar,
    initial_charges,
    is_canonical,
    model,
    named_instance,
    special_faces,
    trace_faces,
    validate_drawing,
)

from conftest import CORPUS_FRACTIONS, without_uncrossed_edges

# K4 drawn with one crossing: quad 0-2-1-3 around crossing 4 on edges 01 x 23
QUAD_KITE = OnePlanarDrawing(
    AbstractGraph(4, [(0, 1), (2, 3), (0, 2), (1, 2), (1, 3), (0, 3)]),
    [Crossing((0, 1), (2, 3))],
    [[2, 4, 3], [3, 4, 2], [4, 0, 1], [0, 4, 1], [3, 0, 2, 1]],
)


def test_octahedron_valid_genus0():
    d = named_instance("octahedron")
    rep = validate_drawing(d)
    assert rep.valid
    assert rep.stats["genus"] == 0
    assert rep.stats["faces"] == 8


def test_minimal_crossing_drawing_valid():
    d = named_instance("kite")
    rep = validate_drawing(d)
    assert rep.valid
    assert rep.stats["e_planarization"] == 4


def test_crossing_degree_violation_reported():
    kite = named_instance("kite")
    rot = [list(r) for r in kite.rotation]
    rot[4] = rot[4][:3]  # drop one end at the crossing
    bad = OnePlanarDrawing(kite.base, kite.crossings, rot)
    rep = validate_drawing(bad)
    assert not rep.valid
    assert "rotation-coverage" in rep.codes() or "crossing-degree" in rep.codes()


def test_crossing_alternation_violation():
    kite = named_instance("kite")
    rot = [list(r) for r in kite.rotation]
    rot[4] = [0, 1, 2, 3]  # both ends of edge 01 adjacent in the rotation
    bad = OnePlanarDrawing(kite.base, kite.crossings, rot)
    assert "crossing-rotation-alternation" in validate_drawing(bad).codes()


def test_shared_endpoint_crossing_reported():
    g = AbstractGraph(3, [(0, 1), (1, 2)])
    d = OnePlanarDrawing(g, [Crossing((0, 1), (1, 2))], [[3], [3, 3], [3], [0, 1, 2, 1]])
    assert "crossing-endpoints-not-distinct" in validate_drawing(d).codes()


def test_edge_crossed_twice_reported():
    g = AbstractGraph(6, [(0, 1), (2, 3), (4, 5)])
    d = OnePlanarDrawing(
        g,
        [Crossing((0, 1), (2, 3)), Crossing((0, 1), (4, 5))],
        [[6], [7], [6], [6], [7], [7], [0, 2, 1, 3], [0, 4, 1, 5]],
    )
    assert "edge-crossed-twice" in validate_drawing(d).codes()


def test_malformed_ids_hard_error():
    with pytest.raises(MalformedDrawingError):
        AbstractGraph(3, [(0, 5)])
    with pytest.raises(MalformedDrawingError):
        AbstractGraph(3, [(1, 1)])
    with pytest.raises(MalformedDrawingError):
        AbstractGraph(3, [(0, 1), (1, 0)])  # duplicate edge
    with pytest.raises(MalformedDrawingError):
        OnePlanarDrawing(AbstractGraph(2, [(0, 1)]), [], [[1]])  # wrong arity


def test_edge_bound_k6():
    d = named_instance("k6_1planar")
    rep = edge_bound_check(d)
    assert rep.passed and rep.e == 15 and rep.bound == 16


def test_edge_bound_octahedron():
    assert edge_bound_check(named_instance("octahedron")).passed


def test_edge_bound_vacuous_below_three_vertices():
    d = OnePlanarDrawing(AbstractGraph(2, [(0, 1)]), [], [[1], [0]])
    rep = edge_bound_check(d)
    assert rep.passed and rep.vacuous and rep.bound == 0


def test_edge_bound_failing_drawing():
    # a valid toroidal-free 1-planar drawing cannot exceed the bound, so an
    # overfull graph must be rejected before any drawing check: 6 vertices
    # cap at 15 simple edges, so "17 edges" is unrepresentable
    with pytest.raises(MalformedDrawingError):
        AbstractGraph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)] + [(0, 1), (0, 2)])


def test_associated_plane_graph_identity_for_plane():
    d = named_instance("octahedron")
    g, rot = associated_plane_graph(d)
    assert g == d.base and rot == d.rotation


def test_associated_plane_graph_bare_kite():
    g, _ = associated_plane_graph(named_instance("kite"))
    assert g.n == 5 and g.num_edges == 4
    assert g.edges == frozenset({(0, 4), (1, 4), (2, 4), (3, 4)})


def test_associated_plane_graph_quad_kite():
    assert validate_drawing(QUAD_KITE).valid
    g, _ = associated_plane_graph(QUAD_KITE)
    assert g.n == 5 and g.num_edges == 8
    for half in ((0, 4), (1, 4), (2, 4), (3, 4)):
        assert half in g.edges
    fl = trace_faces(QUAD_KITE.rotation)
    assert sorted(len(f) for f in fl.faces) == [3, 3, 3, 3, 4]


def test_associated_plane_graph_k6_edge_count():
    d = named_instance("k6_1planar")
    g, _ = associated_plane_graph(d)
    assert g.n == 9
    assert g.num_edges == d.base.num_edges + 2 * d.num_crossings == 21


def test_associated_plane_graph_rejects_invalid():
    kite = named_instance("kite")
    rot = [list(r) for r in kite.rotation]
    rot[4] = [0, 1, 2, 3]
    bad = OnePlanarDrawing(kite.base, kite.crossings, rot)
    with pytest.raises(InvalidDrawingError) as exc:
        associated_plane_graph(bad)
    assert not exc.value.report.valid


def test_degree_preservation_real_vertices():
    d = named_instance("k6_1planar")
    g, _ = associated_plane_graph(d)
    for v in range(d.n):
        assert g.degree(v) == d.base.degree(v)


def test_trace_faces_triangle():
    fl = trace_faces([[1, 2], [2, 0], [0, 1]])
    assert sorted(len(f) for f in fl.faces) == [3, 3] and fl.euler_ok


def test_trace_faces_octahedron():
    fl = trace_faces(named_instance("octahedron").rotation)
    assert [len(f) for f in fl.faces] == [3] * 8 and fl.genus == 0


def test_trace_faces_toroidal_k4():
    rot = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    fl = trace_faces(rot)
    assert not fl.euler_ok
    assert fl.genus == 1
    assert sorted(len(f) for f in fl.faces) == [4, 8]


def test_trace_faces_rejects_asymmetric_rotation():
    with pytest.raises(MalformedDrawingError):
        trace_faces([[1], []])


@pytest.mark.parametrize("rot", [[[5]], [[-1]], [[1], [0, 1]]], ids=["high", "negative", "self"])
def test_trace_faces_rejects_non_neighbor_ids(rot):
    # an id outside 0..len-1 or a vertex listing itself cannot be traced
    with pytest.raises(MalformedDrawingError, match="not a neighbor id"):
        trace_faces(rot)


def _networkx_face_lengths(rotation) -> list[int]:
    nx = pytest.importorskip("networkx")
    emb = nx.PlanarEmbedding()
    # networkx lists neighbors clockwise and leaves w along the ccw neighbor
    # of the arrival; reversed lists make that our "next in rotation" rule
    emb.set_data({w: list(reversed(order)) for w, order in enumerate(rotation)})
    emb.check_structure()
    marked: set = set()
    return sorted(
        len(emb.traverse_face(v, w, mark_half_edges=marked))
        for v, w in emb.edges()
        if (v, w) not in marked
    )


def test_trace_faces_agrees_with_networkx():
    drawings = [
        gen_random_oneplanar(n, frac, 31 * n + k)
        for n in (10, 47, 120, 200)
        for k, frac in enumerate(CORPUS_FRACTIONS)
    ]
    thinned = [without_uncrossed_edges(d, 3) for d in drawings[5:8]]
    for d in thinned:
        assert validate_drawing(d).valid and not is_canonical(d)
    for d in drawings + thinned:
        fl = trace_faces(d.rotation)
        assert sorted(len(f) for f in fl.faces) == _networkx_face_lengths(d.rotation)


def test_canonical_drawing_is_traced_once(monkeypatch):
    d = gen_random_oneplanar(150, Fraction(1, 2), 11)
    calls = []
    real = model.trace_faces
    monkeypatch.setattr(model, "trace_faces", lambda rot: calls.append(1) or real(rot))
    assert validate_drawing(d).valid
    T = canonical_triangulate(d)
    assert is_canonical(T.drawing)
    led = apply_rules(T, initial_charges(T))
    assert led.total() == -8 and special_faces(T)
    assert len(calls) == 1


def test_non_canonical_drawing_is_traced_twice(monkeypatch):
    # once for the input, whose faces seed the triangulation's embedding, and
    # once when is_canonical validates the output from scratch
    d = without_uncrossed_edges(gen_random_oneplanar(150, Fraction(1, 2), 11), 3)
    calls = []
    real = model.trace_faces

    def counted(rot):
        calls.append(1)
        return real(rot)

    for mod in [m for name, m in sys.modules.items() if name.startswith("oneplanar")]:
        if getattr(mod, "trace_faces", None) is real:
            monkeypatch.setattr(mod, "trace_faces", counted)
    T = canonical_triangulate(d)
    assert T.added_fill_edges and is_canonical(T.drawing)
    assert len(calls) == 2


def test_drawing_is_validated_once(monkeypatch):
    # every stage below validates the same drawing; the report kept on it
    # must serve them all (one run of the invariant checks)
    d = gen_random_oneplanar(150, Fraction(1, 2), 11)
    calls = []
    real = model._check_invariants
    monkeypatch.setattr(model, "_check_invariants", lambda x: calls.append(1) or real(x))
    rep = validate_drawing(d)
    T = canonical_triangulate(d)
    assert T.drawing is d and is_canonical(T.drawing)
    assert canonical_triangulate(T.drawing).drawing is d
    assert initial_charges(T).total() == -8
    g, _ = associated_plane_graph(d)
    assert g.num_edges == d.base.num_edges + 2 * d.num_crossings
    assert len(calls) == 1
    assert validate_drawing(d) is rep
    with pytest.raises(TypeError):
        rep.stats["n"] = 0


def test_handshake_and_face_length_sums(corpus_drawings):
    drawings, _ = corpus_drawings
    for d in drawings[:50]:
        g, rot = associated_plane_graph(d)
        assert sum(g.degrees()) == 2 * g.num_edges
        assert sum(len(f) for f in trace_faces(rot).faces) == 2 * g.num_edges
        assert g.num_edges == d.base.num_edges + 2 * d.num_crossings


def test_disconnected_euler_uses_components():
    # two disjoint triangles: valid drawing, genus 0, two components
    rot = [[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4]]
    g = AbstractGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    d = OnePlanarDrawing(g, [], rot)
    rep = validate_drawing(d)
    assert rep.valid
    assert rep.stats["components"] == 2
