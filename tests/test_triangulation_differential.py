"""``canonical_triangulate`` against the earlier step 4 scan in ``reference_triangulation``.

The library keeps step 4's faces on a heap keyed (-length, face id) and
builds its embedding from the drawing's cached faces; the reference scans
every face before each chord and re-traces the rotation.  On thinned
generated drawings of every corpus crossing fraction both must give the
same drawing and the same four provenance tuples, or raise the same
``TriangulationError`` (for ``StepFourDeadlock``, on the same face).  Two
hand-built drawings add what no thinned drawing reaches: a step 2 deletion
whose removed edges step 4 restores, and a refused step 5 re-insertion.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneplanar import canonical_triangulate, gen_random_oneplanar
from oneplanar.triangulation import StepFourDeadlock, TriangulationError

from conftest import CORPUS_FRACTIONS, without_uncrossed_edges
from reference_triangulation import reference_triangulate
from test_triangulation import STEP2_QUAD_LOST, STEP2_RESTORED

thinned_drawings = st.builds(
    lambda n, fi, seed, every: without_uncrossed_edges(
        gen_random_oneplanar(n, CORPUS_FRACTIONS[fi], seed), every
    ),
    st.integers(min_value=10, max_value=400),
    st.integers(min_value=0, max_value=len(CORPUS_FRACTIONS) - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([2, 3, 5]),
)


def _outcome(triangulate, d):
    try:
        T = triangulate(d)
    except TriangulationError as exc:
        return type(exc), str(exc), getattr(exc, "face", None)
    return (
        T.drawing,
        T.added_kite_edges,
        T.removed_duplicates,
        T.temporarily_removed,
        T.added_fill_edges,
    )


def test_triangulation_matches_reference_on_thinned_drawings():
    seen: Counter = Counter()

    @given(thinned_drawings)
    @settings(max_examples=80, deadline=None)
    def check(d):
        got = _outcome(canonical_triangulate, d)
        assert got == _outcome(reference_triangulate, d)
        if got[0] is StepFourDeadlock:
            seen["deadlock"] += 1
        elif isinstance(got[0], type):
            seen["error"] += 1
        else:
            _, kite, dups, removed, fill = got
            seen["kite"] += bool(kite)
            seen["fill"] += bool(fill)
            seen["duplicates"] += bool(dups)
            seen["restored_as_chord"] += bool(set(removed) & set(fill))

    check()
    print(f"[triangulation differential] drawings with: {dict(sorted(seen.items()))}")
    assert seen["kite"] and seen["fill"]


@pytest.mark.parametrize("d", [STEP2_RESTORED, STEP2_QUAD_LOST], ids=["restored", "quad-lost"])
def test_triangulation_matches_reference_on_hand_built_drawings(d):
    assert _outcome(canonical_triangulate, d) == _outcome(reference_triangulate, d)
