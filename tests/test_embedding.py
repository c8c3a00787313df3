from __future__ import annotations

import copy

import pytest

from oneplanar import gen_random_oneplanar, trace_faces
from oneplanar.embedding import EmbeddingError, MutableEmbedding

from conftest import corpus_spec


def _state(emb: MutableEmbedding):
    return copy.deepcopy((emb.rot, emb.faces, emb.edge_face))


def _assert_consistent(emb: MutableEmbedding):
    assert all(fid in emb.faces for fid in emb.edge_face.values())
    for fid, face in emb.faces.items():
        for i in range(len(face)):
            assert emb.edge_face[(face[i], face[(i + 1) % len(face)])] == fid


def test_refused_delete_leaves_embedding_untouched():
    emb = MutableEmbedding([[1], [0, 2], [1]])  # path 0-1-2
    before = _state(emb)
    with pytest.raises(EmbeddingError, match="isolate"):
        emb.delete_edge(0, 1)
    assert _state(emb) == before
    _assert_consistent(emb)


def test_refused_crossing_removal_leaves_embedding_untouched():
    # crossing 4 on edges 0-2 and 1-3, with 2 hanging off the crossing only:
    # deleting the half 4-2 would isolate 2, so nothing may be deleted first
    emb = MutableEmbedding([[4, 1, 3], [0, 4], [4], [4, 0], [2, 1, 0, 3]])
    before = _state(emb)
    with pytest.raises(EmbeddingError, match="isolate"):
        emb.remove_crossing(4, (0, 2))
    assert _state(emb) == before
    _assert_consistent(emb)


def test_bridge_deletion_splits_face():
    # triangle 0-1-2 with pendant path 2-3-4; deleting 2-3 leaves two pieces
    emb = MutableEmbedding([[1, 2], [2, 0], [0, 3, 1], [2, 4], [3]])
    emb.delete_edge(2, 3)
    assert sorted(len(f) for f in emb.faces.values()) == [2, 3, 3]
    _assert_consistent(emb)


def test_face_table_matches_tracer_order():
    for i in range(0, 200, 13):
        rot = gen_random_oneplanar(*corpus_spec(i)).rotation
        emb = MutableEmbedding(rot)
        assert list(emb.faces) == list(range(len(emb.faces)))
        assert [tuple(f) for f in emb.faces.values()] == list(trace_faces(rot).faces)
        _assert_consistent(emb)
