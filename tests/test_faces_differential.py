"""``trace_faces`` against the earlier tracer in ``reference_faces``.

The library consumes each directed edge from the successor table as it
walks it and reads genus off one Euler total over all components; the
reference marks walked edges in a set and checks Euler's formula per
component.  On random symmetric rotations of random simple graphs (several
components, isolated vertices, rotations of every genus) all four
``FaceList`` fields must be equal.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from oneplanar import trace_faces

from reference_faces import reference_trace_faces


@st.composite
def rotations(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(edges):
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [draw(st.permutations(order)) for order in nbrs]


def test_trace_faces_matches_reference():
    seen: Counter = Counter()

    @given(rotations())
    @settings(max_examples=400, deadline=None)
    def check(rot):
        fl = trace_faces(rot)
        assert fl == reference_trace_faces(rot)
        seen["components>1"] += fl.components > 1
        seen["isolated"] += any(not order for order in rot)
        seen["genus>0"] += fl.genus > 0
        seen["plane"] += fl.euler_ok

    check()
    print(f"[faces differential] rotations with: {dict(sorted(seen.items()))}")
    assert all(seen[k] for k in ("components>1", "isolated", "genus>0", "plane"))
