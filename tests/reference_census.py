"""Test-only reference for ``structure.classify_neighbors``: the earlier census.

It walks the chains of mirror slots and the intervals between them with
two explicit index loops, starting from a list of chain breaks.  The
stored tallies of the earlier census (counts by label and by neighbor
degree) are left out: they are functions of the fields returned here.
Kept only to cross-check the library's single cyclic-arc walk.
"""

from __future__ import annotations

from oneplanar.model import OnePlanarError
from oneplanar.structure import MirrorTriangle, Segment, classify_mirror_triangle
from oneplanar.triangulation import CanonicalTriangulation


def reference_census(T: CanonicalTriangulation, v: int) -> tuple:
    """(center, cyclic_neighbors, labels, mirror_triangles, segments, intervals) of v."""
    d = T.drawing
    n = d.n
    if not 0 <= v < n:
        raise OnePlanarError(f"vertex {v} is not a real vertex (n={n})")
    g = d.base
    rot = d.rotation[v]
    deg = len(rot)

    neighbors: list[int] = []
    labels: list[str] = ["normal"] * deg
    mirror_slots: list[int] = []
    triangles: list[MirrorTriangle] = []
    for k, x in enumerate(rot):
        if x < n:
            neighbors.append(x)
            continue
        c = d.crossings[x - n]
        if v in c.e1:
            own, other = c.e1, c.e2
        elif v in c.e2:
            own, other = c.e2, c.e1
        else:
            raise OnePlanarError(f"crossing {x} in rotation of {v} but not incident")
        mirror = own[0] if own[1] == v else own[1]
        neighbors.append(mirror)
        labels[k] = "mirror"
        mirror_slots.append(k)
        prev_n, next_n = rot[(k - 1) % deg], rot[(k + 1) % deg]
        if {prev_n, next_n} != set(other):
            raise OnePlanarError(
                f"rotation at {v} around crossing {x} is not flanked by {other}"
            )
        triangles.append(
            MirrorTriangle(
                crossing=x,
                mirror=mirror,
                images=other,
                label=classify_mirror_triangle(
                    g.degree(mirror), g.degree(other[0]), g.degree(other[1])
                ),
            )
        )
    for k in mirror_slots:
        for j in ((k - 1) % deg, (k + 1) % deg):
            labels[j] = "image"

    segments: list[Segment] = []
    intervals: list[tuple[int, ...]] = []
    c_count = len(mirror_slots)
    if c_count and 2 * c_count == deg:
        # fully alternating cycle: one wrapping segment, no gaps
        start = (mirror_slots[0] - 1) % deg
        verts = tuple(neighbors[(start + t) % deg] for t in range(deg + 1))
        segments.append(Segment(verts, c_count, True))
    elif c_count:
        # chain mirror slots whose cyclic distance is 2 (shared image vertex)
        slots = mirror_slots
        breaks = [
            i
            for i in range(len(slots))
            if (slots[i] - slots[i - 1]) % deg != 2
        ]
        chains: list[list[int]] = []
        for b, start in enumerate(breaks):
            end = breaks[(b + 1) % len(breaks)]
            chain = []
            i = start
            while True:
                chain.append(slots[i])
                if i == (end - 1) % len(slots):
                    break
                i = (i + 1) % len(slots)
            chains.append(chain)
        for chain in chains:
            first, last = chain[0], chain[-1]
            length = 2 * len(chain) + 1
            verts = tuple(neighbors[(first - 1 + t) % deg] for t in range(length))
            segments.append(Segment(verts, len(chain), False))
        for i in range(len(segments)):
            # gap from the end slot of segment i to the start slot of the next,
            # both endpoints included
            end_slot = (chains[i][-1] + 1) % deg
            start_slot = (chains[(i + 1) % len(chains)][0] - 1) % deg
            gap = []
            t = end_slot
            while True:
                gap.append(neighbors[t])
                if t == start_slot:
                    break
                t = (t + 1) % deg
            intervals.append(tuple(gap))

    return (
        v,
        tuple(neighbors),
        tuple(labels),
        tuple(triangles),
        tuple(segments),
        tuple(intervals),
    )
