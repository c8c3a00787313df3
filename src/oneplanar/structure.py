"""Neighborhood structure of canonical triangulations and the unavoidable
small-degree configurations.

For a real vertex v of a canonical triangulation, each crossing adjacent
to v in the planarization stands for a crossed edge v-w; w is the mirror
neighbor, the two rotation neighbors flanking the crossing are the image
neighbors, and everything else is normal.  Replacing each crossing by its
mirror vertex turns v's planarization rotation into the cyclic neighbor
order in the triangulated graph itself.  Maximal alternating image/mirror
runs form segments; the mirror triangle of a crossing is (mirror vertex,
image pair) and is light when all three degrees are at most 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection

from .model import AbstractGraph, OnePlanarError
from .triangulation import CanonicalTriangulation

LIGHT_DEGREE_MAX = 7

# The neighbor-degree ceilings of the configurations.  A center of degree d
# (3 <= d <= LIGHT_DEGREE_MAX) bounds its k-th smallest neighbor degree
# (k = 0, 1, ...) by CEILINGS[LIGHT_DEGREE_MAX - d + k], that is by the last
# d - 2 ceilings; its two largest neighbors are unbounded.  The discharging
# bands are cut at the same values.
CEILINGS = (8, 11, 14, 19, 35)


class ConfigurationNotFound(OnePlanarError):
    """No vertex matches any configuration; the graph cannot be 1-planar."""


class MinDegreeError(OnePlanarError):
    pass


@dataclass(frozen=True)
class Configuration:
    kind: str
    center: int
    neighbors: tuple[int, ...]
    neighbor_degrees: tuple[int, ...]


def _kind_for_degree(deg: int) -> str:
    return "C1" if deg <= 2 else f"C{deg - 1}"


def _sorted_neighbors(g: AbstractGraph, v: int) -> list[int]:
    return sorted(g.neighbors(v), key=lambda u: (g.degree(u), u))


def matches_configuration(neighbors: Collection[int], degree: Callable[[int], int]) -> bool:
    """Whether a center with these neighbors carries a configuration.

    Degree at most 2 always does (C1); degree d in 3..7 does when the k-th
    smallest neighbor degree is at most the k-th of the last d - 2 CEILINGS.
    ``degree`` gives the current degree of a neighbor, so the elimination
    plan can ask about its shrinking working graph.
    """
    deg = len(neighbors)
    if deg <= 2:
        return True
    if deg > LIGHT_DEGREE_MAX:
        return False
    degs = sorted(map(degree, neighbors))
    return all(x <= b for x, b in zip(degs, CEILINGS[LIGHT_DEGREE_MAX - deg :]))


def find_configuration(g: AbstractGraph) -> Configuration:
    """Smallest-id vertex whose neighborhood matches a configuration.

    The kind is determined by the vertex degree; neighbors are listed in
    ascending degree order with ties broken by id.
    """
    for v in range(g.n):
        if matches_configuration(g.neighbors(v), g.degree):
            nbrs = _sorted_neighbors(g, v)
            return Configuration(
                kind=_kind_for_degree(g.degree(v)),
                center=v,
                neighbors=tuple(nbrs),
                neighbor_degrees=tuple(g.degree(u) for u in nbrs),
            )
    raise ConfigurationNotFound(
        "no vertex matches any configuration; the input is not 1-planar (or a bug)"
    )


def find_light_path3(g: AbstractGraph) -> tuple[int, int, int]:
    """A path u-v-w with all three degrees at most 35, for min degree >= 4."""
    if g.min_degree() < 4:
        raise MinDegreeError(f"light 3-path needs minimum degree 4, got {g.min_degree()}")
    # the center has degree 4..7, so its two smallest neighbors lie under
    # its last ceilings, each at most CEILINGS[-1]
    cfg = find_configuration(g)
    return cfg.neighbors[0], cfg.center, cfg.neighbors[1]


def find_light_star3(g: AbstractGraph) -> tuple[int, tuple[int, int, int]]:
    """A center with three neighbors, all four degrees at most 35, for min degree >= 5."""
    if g.min_degree() < 5:
        raise MinDegreeError(f"light 3-star needs minimum degree 5, got {g.min_degree()}")
    # the center has degree 5..7, so its three smallest neighbors lie under
    # its last ceilings, each at most CEILINGS[-1]
    cfg = find_configuration(g)
    return cfg.center, tuple(cfg.neighbors[:3])


# --------------------------------------------------------------------------
# per-vertex census
# --------------------------------------------------------------------------


def classify_mirror_triangle(d_mirror: int, d_image1: int, d_image2: int) -> str:
    """Class of a mirror triangle from its degrees.

    heavy: some degree exceeds 7.  Among light triangles: class II when an
    image vertex has degree <= 5, class I when the mirror does but both
    images are >= 6, class III when all three are >= 6.
    """
    if max(d_mirror, d_image1, d_image2) > LIGHT_DEGREE_MAX:
        return "heavy"
    if min(d_image1, d_image2) <= 5:
        return "II"
    if d_mirror <= 5:
        return "I"
    return "III"


@dataclass(frozen=True)
class MirrorTriangle:
    crossing: int
    mirror: int
    images: tuple[int, int]
    label: str


@dataclass(frozen=True)
class Segment:
    """Maximal alternating image/mirror run on the associated cycle.

    vertices has length 2*scope + 1; when the run wraps the whole cycle
    (every other neighbor a mirror) the first vertex is repeated at the end
    and wraps is set.
    """

    vertices: tuple[int, ...]
    scope: int
    wraps: bool


@dataclass(frozen=True)
class StructureCensus:
    """What v's rotation determines: its cyclic neighbors (each crossing
    replaced by its mirror), a label per slot, the mirror triangles in
    rotation order, the segments and the intervals between them (interval
    i runs from the end of segment i to the start of the next, both ends
    included).  Counts by triangle label or by neighbor degree are tallies
    of these fields and are not stored."""

    center: int
    cyclic_neighbors: tuple[int, ...]
    labels: tuple[str, ...]
    mirror_triangles: tuple[MirrorTriangle, ...]
    segments: tuple[Segment, ...]
    intervals: tuple[tuple[int, ...], ...]


def classify_neighbors(T: CanonicalTriangulation, v: int) -> StructureCensus:
    """Full neighbor census of a real vertex in a canonical triangulation."""
    d = T.drawing
    n = d.n
    if not 0 <= v < n:
        raise OnePlanarError(f"vertex {v} is not a real vertex (n={n})")
    g = d.base
    rot = d.rotation[v]
    deg = len(rot)

    neighbors: list[int] = []
    labels: list[str] = ["normal"] * deg
    slots: list[int] = []
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
        slots.append(k)
        if {rot[k - 1], rot[(k + 1) % deg]} != set(other):
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
    for k in slots:
        labels[k - 1] = labels[(k + 1) % deg] = "image"

    def arc(start: int, length: int) -> tuple[int, ...]:
        return tuple(neighbors[(start + t) % deg] for t in range(length))

    segments: list[Segment] = []
    intervals: list[tuple[int, ...]] = []
    if slots and 2 * len(slots) == deg:
        # fully alternating cycle: one wrapping segment, no intervals
        segments.append(Segment(arc(slots[0] - 1, deg + 1), len(slots), True))
    elif slots:
        # chains of slots two apart (consecutive mirrors share an image),
        # starting at a slot whose gap from the previous one is not 2
        s = next(i for i, k in enumerate(slots) if (k - slots[i - 1]) % deg != 2)
        chains: list[list[int]] = []
        for k in slots[s:] + slots[:s]:
            if chains and (k - chains[-1][-1]) % deg == 2:
                chains[-1].append(k)
            else:
                chains.append([k])
        for chain, after in zip(chains, chains[1:] + chains[:1]):
            segments.append(Segment(arc(chain[0] - 1, 2 * len(chain) + 1), len(chain), False))
            intervals.append(arc(chain[-1] + 1, (after[0] - chain[-1] - 2) % deg + 1))

    return StructureCensus(
        center=v,
        cyclic_neighbors=tuple(neighbors),
        labels=tuple(labels),
        mirror_triangles=tuple(triangles),
        segments=tuple(segments),
        intervals=tuple(intervals),
    )


# --------------------------------------------------------------------------
# observation report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservationFinding:
    item: int
    level: str  # "warning" | "error"
    vertex: int
    message: str


@dataclass(frozen=True)
class ObservationReport:
    findings: tuple[ObservationFinding, ...]

    @property
    def errors(self) -> tuple[ObservationFinding, ...]:
        return tuple(f for f in self.findings if f.level == "error")

    @property
    def warnings(self) -> tuple[ObservationFinding, ...]:
        return tuple(f for f in self.findings if f.level == "warning")

    @property
    def ok(self) -> bool:
        return not self.errors


def check_observations(T: CanonicalTriangulation) -> ObservationReport:
    """Check the local degree/crossing-count facts a proper drawing must obey.

    Item 1 (no two crossing vertices adjacent) can only fail for inputs
    that are not crossing-minimal and is reported as a warning; items 2-4
    bound the number of crossings around a vertex by its degree and are
    reported as errors.  Nothing is thrown; callers read the report.
    """
    d = T.drawing
    n = d.n
    findings: list[ObservationFinding] = []
    for i in range(d.num_crossings):
        z = n + i
        for x in d.rotation[z]:
            if x >= n:
                findings.append(
                    ObservationFinding(
                        1, "warning", z, f"crossing vertices {z} and {x} are adjacent"
                    )
                )
    for v in range(n):
        deg = d.base.degree(v)
        c = sum(1 for x in d.rotation[v] if x >= n)
        if deg == 3 and c != 0:
            findings.append(
                ObservationFinding(2, "error", v, f"degree-3 vertex has {c} crossings")
            )
        elif deg == 4 and c > 1:
            findings.append(
                ObservationFinding(3, "error", v, f"degree-4 vertex has {c} crossings")
            )
        elif deg >= 5 and 2 * c > deg:
            findings.append(
                ObservationFinding(
                    4, "error", v, f"degree-{deg} vertex has {c} > {deg}/2 crossings"
                )
            )
    return ObservationReport(tuple(findings))
