from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneplanar import (
    AbstractGraph,
    canonical_triangulate,
    check_observations,
    classify_mirror_triangle,
    classify_neighbors,
    find_configuration,
    find_light_path3,
    find_light_star3,
    named_instance,
)
from oneplanar.model import Crossing, OnePlanarDrawing
from oneplanar.structure import ConfigurationNotFound, MinDegreeError, matches_configuration
from oneplanar.triangulation import CanonicalTriangulation

from conftest import complete_graph, corpus_spec
from oneplanar import gen_random_oneplanar


def _single_crossing_fixture() -> CanonicalTriangulation:
    """5 vertices, one crossing: edge 2-4 crossing 1-3 inside a triangulation."""
    from oneplanar.embedding import cross_edge
    from oneplanar.model import AbstractGraph, normalize_edge

    # planar K4 with vertex 4 inside its face 0-1-3
    rot = dict(enumerate([[1, 2, 3, 4], [2, 0, 4, 3], [0, 1, 3], [0, 2, 1, 4], [0, 3, 1]]))
    a, c = cross_edge(rot, 1, 3, 5)
    assert {a, c} == {2, 4}
    edges = {normalize_edge(u, v) for u in range(5) for v in rot[u] if v < 5 and u < v}
    edges.add((1, 3))
    edges.add(normalize_edge(a, c))
    g = AbstractGraph(5, edges)
    d = OnePlanarDrawing(g, [Crossing(normalize_edge(a, c), (1, 3))], [rot[w] for w in range(6)])
    return canonical_triangulate(d)


def test_triangle_classifier_table():
    assert classify_mirror_triangle(5, 6, 6) == "I"
    assert classify_mirror_triangle(7, 5, 9) == "heavy"  # max 9 exceeds 7
    assert classify_mirror_triangle(6, 6, 6) == "III"
    assert classify_mirror_triangle(7, 5, 7) == "II"
    assert classify_mirror_triangle(4, 7, 6) == "I"
    assert classify_mirror_triangle(8, 6, 6) == "heavy"
    assert classify_mirror_triangle(5, 5, 6) == "II"


def test_single_crossing_census():
    T = _single_crossing_fixture()
    center = 4 if T.drawing.base.degree(4) == 4 else 2
    c = classify_neighbors(T, center)
    assert len(c.mirror_triangles) == 1
    assert c.labels.count("mirror") == 1
    assert c.labels.count("image") == 2
    assert len(c.segments) == 1
    seg = c.segments[0]
    assert seg.scope == 1 and len(seg.vertices) == 3 and not seg.wraps
    mirror = c.cyclic_neighbors[c.labels.index("mirror")]
    assert mirror in (2, 4) and mirror != center


def test_plane_vertex_all_normal():
    T = canonical_triangulate(named_instance("octahedron"))
    c = classify_neighbors(T, 0)
    assert set(c.labels) == {"normal"}
    assert not c.mirror_triangles and not c.segments and not c.intervals


def test_shared_image_gives_scope_two():
    T = canonical_triangulate(named_instance("k6_1planar"))
    c = classify_neighbors(T, 0)
    assert len(c.mirror_triangles) == 2
    assert len(c.segments) == 1
    seg = c.segments[0]
    assert seg.scope == 2 and len(seg.vertices) == 5


def test_census_crossing_id_rejected():
    T = canonical_triangulate(named_instance("k6_1planar"))
    with pytest.raises(Exception):
        classify_neighbors(T, T.drawing.n)  # a crossing id


def test_census_identities_over_corpus(corpus_canonical):
    ts, _ = corpus_canonical
    wrap_seen = 0
    for T in ts[:120]:
        d = T.drawing
        for v in range(d.n):
            if not any(x >= d.n for x in d.rotation[v]):
                continue
            c = classify_neighbors(T, v)
            deg = d.base.degree(v)
            assert sum(s.scope for s in c.segments) == len(c.mirror_triangles)
            if len(c.segments) == 1 and c.segments[0].wraps:
                wrap_seen += 1
                assert 2 * c.segments[0].scope == deg
                assert len(c.segments[0].vertices) == 2 * c.segments[0].scope + 1
                assert c.segments[0].vertices[0] == c.segments[0].vertices[-1]
                assert not c.intervals
                assert c.labels.count("image") == c.segments[0].scope
            else:
                total = sum(2 * s.scope + 1 for s in c.segments)
                interior = sum(max(len(i) - 2, 0) for i in c.intervals)
                assert total + interior == deg
                # each segment carries scope+1 image vertices, none shared
                assert c.labels.count("image") == sum(s.scope + 1 for s in c.segments)
                for s in c.segments:
                    assert len(s.vertices) == 2 * s.scope + 1
                    assert s.vertices.count(s.vertices[0]) == 1
    assert wrap_seen > 0  # the corpus genuinely exercises the wrap case


def test_mirror_triangle_labels():
    T = canonical_triangulate(named_instance("k6_1planar"))
    assert [t.label for t in classify_neighbors(T, 0).mirror_triangles] == ["II", "II"]


def test_find_configuration_degree_two_is_c1():
    g = AbstractGraph(4, [(0, 1), (1, 2), (2, 3)])
    cfg = find_configuration(g)
    assert cfg.kind == "C1" and cfg.center == 0


def test_find_configuration_icosahedron():
    cfg = find_configuration(named_instance("icosahedron").base)
    assert cfg.kind == "C4"
    assert cfg.center == 0
    assert cfg.neighbor_degrees == (5, 5, 5, 5, 5)


def test_find_configuration_octahedron():
    cfg = find_configuration(named_instance("octahedron").base)
    assert cfg.kind == "C3" and cfg.neighbor_degrees == (4, 4, 4, 4)


def test_k9_and_k10_not_found():
    for k in (9, 10):
        with pytest.raises(ConfigurationNotFound):
            find_configuration(complete_graph(k))


def test_configuration_witness_is_deterministic(corpus_drawings):
    drawings, _ = corpus_drawings
    for d in drawings[:30]:
        assert find_configuration(d.base) == find_configuration(d.base)


def test_configuration_completeness_on_corpus(corpus_drawings):
    drawings, _ = corpus_drawings
    for d in drawings:
        find_configuration(d.base)  # must not raise


def test_light_path3_examples():
    octa = named_instance("octahedron").base
    u, v, w = find_light_path3(octa)
    assert octa.has_edge(u, v) and octa.has_edge(v, w)
    assert all(octa.degree(x) == 4 for x in (u, v, w))
    ico = named_instance("icosahedron").base
    path = find_light_path3(ico)
    assert all(ico.degree(x) == 5 for x in path)


def test_light_path3_min_degree_error():
    g = AbstractGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])  # has degree-2 vertices
    with pytest.raises(MinDegreeError):
        find_light_path3(g)


def test_light_star3_examples():
    ico = named_instance("icosahedron").base
    v, leaves = find_light_star3(ico)
    assert len(leaves) == 3
    assert all(ico.has_edge(v, x) for x in leaves)
    assert all(ico.degree(x) <= 35 for x in (v, *leaves))
    with pytest.raises(MinDegreeError):
        find_light_star3(named_instance("octahedron").base)


def test_light_finders_on_qualifying_corpus(corpus_drawings):
    drawings, _ = corpus_drawings
    p3 = s3 = 0
    for d in drawings:
        g = d.base
        if g.min_degree() >= 4:
            u, v, w = find_light_path3(g)
            assert g.has_edge(u, v) and g.has_edge(v, w)
            assert max(g.degree(x) for x in (u, v, w)) <= 35
            p3 += 1
        if g.min_degree() >= 5:
            c, leaves = find_light_star3(g)
            assert all(g.has_edge(c, x) for x in leaves)
            assert max(g.degree(x) for x in (c, *leaves)) <= 35
            s3 += 1
    assert p3 > 0  # the corpus exercises the min-degree-4 case


def test_observations_pass_on_named():
    for name in ("octahedron", "icosahedron", "k6_1planar"):
        rep = check_observations(canonical_triangulate(named_instance(name)))
        assert rep.ok and not rep.warnings


def test_observations_corpus_audit(corpus_canonical):
    ts, _ = corpus_canonical
    for T in ts:
        rep = check_observations(T)
        assert rep.ok, rep.errors[:3]


def test_observation_item1_warning_path():
    # hand-built inconsistent record: a crossing listing another crossing as
    # a neighbor (not expressible by a valid drawing; bypasses validation)
    g = AbstractGraph(4, [(0, 1), (2, 3)])
    d = OnePlanarDrawing(
        g,
        [Crossing((0, 1), (2, 3)), Crossing((0, 1), (2, 3))],
        [[4], [4], [5], [5], [0, 1, 5, 2], [4, 2, 3, 3]],
    )
    T = CanonicalTriangulation(d, (), (), (), ())
    rep = check_observations(T)
    assert any(f.item == 1 and f.level == "warning" for f in rep.findings)


def test_observation_degree_errors_reported():
    # degree-3 vertex with an incident crossing: item 2 must flag it
    g = AbstractGraph(5, [(0, 1), (0, 2), (0, 3), (2, 3), (1, 4), (2, 4)])
    d = OnePlanarDrawing(
        g,
        [Crossing((0, 1), (2, 4))],
        [[5, 2, 3], [5, 4], [0, 3, 5, 4], [0, 2], [1, 5, 2], [0, 2, 1, 4]],
    )
    T = CanonicalTriangulation(d, (), (), (), ())
    rep = check_observations(T)
    assert any(f.item == 2 and f.level == "error" for f in rep.findings)


# neighbor-degree ceilings per center degree, as a literal table: the
# reference that matches_configuration's reading of CEILINGS must agree with
CONFIG_BOUNDS = {
    3: (35,),
    4: (19, 35),
    5: (14, 19, 35),
    6: (11, 14, 19, 35),
    7: (8, 11, 14, 19, 35),
}


def _reference_match(degrees: list[int]) -> bool:
    if len(degrees) <= 2:
        return True
    bounds = CONFIG_BOUNDS.get(len(degrees))
    if bounds is None:
        return False
    degs = sorted(degrees)
    return all(degs[i] <= b for i, b in enumerate(bounds))


# each ceiling and one above it, plus a small and an unbounded degree
NEIGHBOR_DEGREES = [3, 8, 9, 11, 12, 14, 15, 19, 20, 35, 36, 100]


@given(st.lists(st.sampled_from(NEIGHBOR_DEGREES), max_size=9))
@settings(max_examples=400, deadline=None)
def test_matches_configuration_agrees_with_bounds_table(degrees):
    assert matches_configuration(range(len(degrees)), degrees.__getitem__) == _reference_match(
        degrees
    )
