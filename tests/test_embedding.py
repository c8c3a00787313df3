from __future__ import annotations

import copy
from collections import Counter
from fractions import Fraction

import pytest

from oneplanar import canonical_triangulate, gen_random_oneplanar, trace_faces, triangulation
from oneplanar.embedding import EmbeddingError, MutableEmbedding

from conftest import without_uncrossed_edges


def _state(emb: MutableEmbedding):
    return copy.deepcopy((emb.rot, emb.faces, emb.edge_face))


def _assert_consistent(emb: MutableEmbedding):
    assert all(fid in emb.faces for fid in emb.edge_face.values())
    for fid, face in emb.faces.items():
        for i in range(len(face)):
            assert emb.edge_face[(face[i], face[(i + 1) % len(face)])] == fid


def test_refused_delete_leaves_embedding_untouched():
    rot = [[1], [0, 2], [1]]  # path 0-1-2
    emb = MutableEmbedding(rot, trace_faces(rot).faces)
    before = _state(emb)
    with pytest.raises(EmbeddingError, match="isolate"):
        emb.delete_edge(0, 1)
    assert _state(emb) == before
    _assert_consistent(emb)


def test_refused_crossing_removal_leaves_embedding_untouched():
    # crossing 4 on edges 0-2 and 1-3, with 2 hanging off the crossing only:
    # deleting the half 4-2 would isolate 2, so nothing may be deleted first
    rot = [[4, 1, 3], [0, 4], [4], [4, 0], [2, 1, 0, 3]]
    emb = MutableEmbedding(rot, trace_faces(rot).faces)
    before = _state(emb)
    with pytest.raises(EmbeddingError, match="isolate"):
        emb.remove_crossing(4, (0, 2))
    assert _state(emb) == before
    _assert_consistent(emb)


def test_bridge_deletion_splits_face():
    # triangle 0-1-2 with pendant path 2-3-4; deleting 2-3 leaves two pieces
    rot = [[1, 2], [2, 0], [0, 3, 1], [2, 4], [3]]
    emb = MutableEmbedding(rot, trace_faces(rot).faces)
    emb.delete_edge(2, 3)
    assert sorted(len(f) for f in emb.faces.values()) == [2, 3, 3]
    _assert_consistent(emb)


def _walked_faces(emb: MutableEmbedding) -> list[tuple[int, ...]]:
    """emb's faces walked afresh from its rotations, each from its smallest vertex."""
    succ = {w: {u: order[(k + 1) % len(order)] for k, u in enumerate(order)}
            for w, order in emb.rot.items()}
    seen: set[tuple[int, int]] = set()
    faces = []
    for u in emb.rot:
        for w in emb.rot[u]:
            walk = []
            while (u, w) not in seen:
                seen.add((u, w))
                walk.append(u)
                u, w = w, succ[w][u]
            if walk:
                k = walk.index(min(walk))
                faces.append(tuple(walk[k:] + walk[:k]))
    return sorted(faces)


def _assert_matches_rotations(emb: MutableEmbedding):
    _assert_consistent(emb)
    stored = []
    for face in emb.faces.values():
        k = face.index(min(face))
        stored.append(tuple(face[k:] + face[:k]))
    assert sorted(stored) == _walked_faces(emb)


def test_triangulation_keeps_embedding_consistent_in_every_step(monkeypatch):
    # every surgery of steps 1-3 on a thinned drawing must leave the face
    # table equal to the faces its rotations trace; steps 4 and 5 edit the
    # bare rotations, so the only chords drawn through the table are kite edges
    surgeries = Counter()

    class Checked(MutableEmbedding):
        def __init__(self, rotations, faces):
            super().__init__(rotations, faces)
            _assert_matches_rotations(self)

    def checked(name):
        def run(self, *args):
            out = getattr(MutableEmbedding, name)(self, *args)
            surgeries[name] += 1
            _assert_matches_rotations(self)
            return out
        return run

    for name in ("add_chord", "delete_edge", "remove_crossing"):
        setattr(Checked, name, checked(name))
    monkeypatch.setattr(triangulation, "MutableEmbedding", Checked)
    d = without_uncrossed_edges(gen_random_oneplanar(120, Fraction(1, 2), 5), 3)
    T = canonical_triangulate(d)
    assert T.added_kite_edges and T.temporarily_removed and T.added_fill_edges
    assert T.drawing.num_crossings
    assert surgeries["add_chord"] == len(T.added_kite_edges)
