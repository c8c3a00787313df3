"""The generators against the face-table version in ``reference_generator``.

The library grows its triangulation and inserts its crossings on rotation
lists alone, reading each flanking triangle's corners off the rotations;
the reference keeps a face table and reads them from it.  Both draw the
same faces and edges from the PRNG and edit every rotation at the same
positions, so every drawing must serialize to the same bytes.
"""

from __future__ import annotations

import pytest

from oneplanar import gen_plane_triangulation, gen_random_oneplanar, named_instance, write_drawing_json

import reference_generator as ref
from conftest import CORPUS_FRACTIONS

RANDOM_CASES = [
    (4 + (53 * i) % 297, CORPUS_FRACTIONS[i % 5], seed)
    for i in range(40)
    for seed in (i, 1000 + i)
]


@pytest.mark.parametrize("n, fraction, seed", RANDOM_CASES)
def test_random_oneplanar_matches_reference(n, fraction, seed):
    assert write_drawing_json(gen_random_oneplanar(n, fraction, seed)) == write_drawing_json(
        ref.gen_random_oneplanar(n, fraction, seed)
    )


@pytest.mark.parametrize("n, seed", [(3, 0), (4, 1), (5, 2), (40, 3), (300, 4)])
def test_plane_triangulation_matches_reference(n, seed):
    assert write_drawing_json(gen_plane_triangulation(n, seed)) == write_drawing_json(
        ref.gen_plane_triangulation(n, seed)
    )


def test_k6_1planar_matches_reference():
    assert write_drawing_json(named_instance("k6_1planar")) == write_drawing_json(
        ref.build_k6_1planar()
    )
