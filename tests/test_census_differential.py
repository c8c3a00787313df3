"""``classify_neighbors`` against the earlier census in ``reference_census``.

The library reads every segment and interval as one cyclic arc of the
neighbor order; the reference walks chain breaks and gaps with explicit
index loops.  For every vertex of the canonical triangulation of generated
drawings of every corpus crossing fraction, and of thinned copies (which
the triangulation changes), the six census fields must be equal.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from oneplanar import canonical_triangulate, classify_neighbors, gen_random_oneplanar
from oneplanar.triangulation import TriangulationError

from conftest import CORPUS_FRACTIONS, without_uncrossed_edges
from reference_census import reference_census


def _drawing(n: int, fi: int, seed: int, every: int):
    d = gen_random_oneplanar(n, CORPUS_FRACTIONS[fi], seed)
    return without_uncrossed_edges(d, every) if every else d


drawings = st.builds(
    _drawing,
    st.integers(min_value=10, max_value=400),
    st.integers(min_value=0, max_value=len(CORPUS_FRACTIONS) - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0, 2, 3, 5]),  # 0: as generated, else thinned
)


def _fields(c) -> tuple:
    return (c.center, c.cyclic_neighbors, c.labels, c.mirror_triangles, c.segments, c.intervals)


def test_census_matches_reference_on_generated_drawings():
    seen: Counter = Counter()

    @given(drawings)
    @settings(max_examples=60, deadline=None)
    def check(d):
        try:
            T = canonical_triangulate(d)
        except TriangulationError:
            seen["untriangulable"] += 1
            return
        for v in range(d.n):
            c = classify_neighbors(T, v)
            assert _fields(c) == reference_census(T, v)
            if any(s.wraps for s in c.segments):
                seen["wrapping"] += 1
            elif len(c.segments) == 1:
                seen["single chain"] += 1
            elif c.segments:
                seen["multi-segment"] += 1

    check()
    print(f"[census differential] vertices with: {dict(sorted(seen.items()))}")
    assert seen["wrapping"] and seen["single chain"] and seen["multi-segment"]
