"""Core graph and drawing data model.

Graphs are simple and undirected with dense integer vertex ids 0..n-1.
A drawing is stored in planarized form: each crossing point is a degree-4
vertex whose id sits above the real-vertex range (crossing i has id n+i),
and the embedding is a rotation system over all planarization vertices.
Each rotation entry is a link: an uncrossed edge or half of a crossed one.
``edge_ends`` lists every link with its drawing-JSON token [u, v, slot];
the JSON reader, the writer and validation all work from it.
Faces are recovered by rotation traversal, which makes "each edge crossed
at most once" and the genus-0 certificate structural checks instead of
geometric ones.

All types here are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

Edge = tuple[int, int]


class OnePlanarError(Exception):
    """Base class for errors raised by this package."""


class MalformedDrawingError(OnePlanarError):
    """Structurally unusable input: ids out of range, non-simple graph, bad tokens."""


class InvalidDrawingError(OnePlanarError):
    """A drawing failed invariant validation.  Carries the validation report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("invalid drawing: " + "; ".join(v.code for v in report.violations))
        self.report = report


def normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise MalformedDrawingError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


class AbstractGraph:
    """Simple undirected graph over vertex ids 0..n-1."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise MalformedDrawingError(f"negative vertex count {n}")
        self.n = n
        seen: set[Edge] = set()
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            e = normalize_edge(u, v)
            if not (0 <= e[0] and e[1] < n):
                raise MalformedDrawingError(f"edge {e} out of range for n={n}")
            if e in seen:
                raise MalformedDrawingError(f"duplicate edge {e}")
            seen.add(e)
            adj[e[0]].add(e[1])
            adj[e[1]].add(e[0])
        self.edges: frozenset[Edge] = frozenset(seen)
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(s) for s in self._adj]

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and v in self._adj[u]

    def min_degree(self) -> int:
        return min((len(s) for s in self._adj), default=0)

    def max_degree(self) -> int:
        return max((len(s) for s in self._adj), default=0)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"AbstractGraph(n={self.n}, e={self.num_edges})"


class Crossing(NamedTuple):
    """One crossing point: the two graph edges that cross there."""

    e1: Edge
    e2: Edge

    def endpoints(self) -> tuple[int, int, int, int]:
        return (*self.e1, *self.e2)


def crossing_ids(n: int, crossings: Iterable[Crossing]) -> dict[Edge, int]:
    """Planarization id n + i of crossing i on each edge it crosses; where
    records name an edge more than once, the first one wins."""
    ids: dict[Edge, int] = {}
    for i, c in enumerate(crossings):
        for e in c:
            ids.setdefault(e, n + i)
    return ids


def edge_ends(
    edges: Iterable[Edge], crossing_of: Mapping[Edge, int]
) -> Iterator[tuple[Edge, str, tuple[int, int]]]:
    """Every planarization link as (edge, slot, (p, q)), the one map between
    drawing-JSON tokens [e[0], e[1], slot] and links: slot ``whole`` joins
    the ends of an uncrossed edge (the link is the edge tuple itself),
    ``half1`` and ``half2`` join e[0] and e[1] to the crossing on the edge."""
    for e in edges:
        z = crossing_of.get(e)
        if z is None:
            yield e, "whole", e
        else:
            yield e, "half1", (e[0], z)
            yield e, "half2", (e[1], z)


class OnePlanarDrawing:
    """A 1-planar drawing: base graph, crossing records, planarization rotation.

    rotation[w] lists the planarization neighbors of w in cyclic order;
    index w runs over real ids 0..n-1 followed by crossing ids n..n+k-1.
    Construction checks only structural well-formedness (ids in range);
    invariant checking is ``validate_drawing``'s job so that invalid
    drawings can be represented and reported on.  The traced faces and the
    validation report are derived from the drawing alone, so each is
    computed once and kept (neither takes part in equality or hashing).
    """

    __slots__ = ("base", "crossings", "rotation", "_edge_crossing", "_face_list", "_report")

    def __init__(
        self,
        base: AbstractGraph,
        crossings: Iterable[Crossing | tuple[Edge, Edge]],
        rotation: Sequence[Sequence[int]],
    ):
        self.base = base
        n = base.n
        xs = []
        for c in crossings:
            e1, e2 = c
            xs.append(Crossing(normalize_edge(*e1), normalize_edge(*e2)))
            for u in (*e1, *e2):
                if not 0 <= u < n:
                    raise MalformedDrawingError(f"crossing endpoint {u} out of range")
        self.crossings: tuple[Crossing, ...] = tuple(xs)
        total = n + len(self.crossings)
        if len(rotation) != total:
            raise MalformedDrawingError(
                f"rotation has {len(rotation)} entries, expected {total}"
            )
        rot = []
        for w, order in enumerate(rotation):
            for x in order:
                if not 0 <= x < total:
                    raise MalformedDrawingError(f"rotation[{w}] references id {x} out of range")
            rot.append(tuple(order))
        self.rotation: tuple[tuple[int, ...], ...] = tuple(rot)
        self._edge_crossing = crossing_ids(n, self.crossings)
        self._face_list: FaceList | None = None
        self._report: ValidationReport | None = None

    @property
    def face_list(self) -> FaceList:
        """Faces of the planarization, traced on first use and kept.

        The drawing never changes after construction, so one trace serves
        every later reader.  Raises MalformedDrawingError when the rotation
        cannot be traced (see ``trace_faces``).
        """
        if self._face_list is None:
            self._face_list = trace_faces(self.rotation)
        return self._face_list

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def num_crossings(self) -> int:
        return len(self.crossings)

    @property
    def planarization_size(self) -> int:
        return self.base.n + len(self.crossings)

    def crossing_of_edge(self, u: int, v: int) -> int | None:
        """Planarization id of the crossing on edge uv, if it is crossed."""
        return self._edge_crossing.get(normalize_edge(u, v))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OnePlanarDrawing):
            return NotImplemented
        return (
            self.base == other.base
            and self.crossings == other.crossings
            and self.rotation == other.rotation
        )

    def __hash__(self) -> int:
        return hash((self.base, self.crossings, self.rotation))

    def __repr__(self) -> str:
        return (
            f"OnePlanarDrawing(n={self.n}, e={self.base.num_edges}, "
            f"crossings={self.num_crossings})"
        )


@dataclass(frozen=True)
class FaceList:
    """Faces traced from a rotation system.

    Each face is the cyclic vertex sequence of one boundary walk; every
    directed edge appears in exactly one face, so the face lengths sum to
    2e.  ``euler_ok`` records whether every connected component satisfies
    v - e + f = 2 (genus 0); ``genus`` sums the per-component genus.
    """

    faces: tuple[tuple[int, ...], ...]
    components: int
    genus: int
    euler_ok: bool


def _component_count(rotation: Sequence[Sequence[int]]) -> int:
    """Number of connected components, walking rotation entries."""
    seen = [False] * len(rotation)
    components = 0
    for s in range(len(rotation)):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        while stack:
            for x in rotation[stack.pop()]:
                if not seen[x]:
                    seen[x] = True
                    stack.append(x)
        components += 1
    return components


def trace_faces(rotation: Sequence[Sequence[int]]) -> FaceList:
    """Trace all faces of a rotation system.

    The successor convention: having arrived at w along (u -> w), the walk
    leaves along (w -> x) where x follows u in rotation[w].  Raises
    MalformedDrawingError if an entry is not a neighbor id (outside
    0..len-1, or the vertex itself), the rotation is not symmetric or it
    lists a neighbor twice (each breaks the traversal).
    """
    total = len(rotation)
    succ: list[dict[int, int]] = []
    for w, order in enumerate(rotation):
        if len(set(order)) != len(order):
            raise MalformedDrawingError(f"rotation[{w}] repeats a neighbor")
        succ.append({u: order[(k + 1) % len(order)] for k, u in enumerate(order)})
    for w, order in enumerate(rotation):
        for u in order:
            if not 0 <= u < total or u == w:
                raise MalformedDrawingError(f"rotation[{w}] lists {u}, not a neighbor id")
            if w not in succ[u]:
                raise MalformedDrawingError(
                    f"rotation is asymmetric: {u} in rotation[{w}] but not conversely"
                )

    # the walk leaves x after arriving along (a -> x) by taking succ[x][a];
    # popping it marks (a -> x) walked, so each directed edge is walked once
    faces: list[tuple[int, ...]] = []
    for u in range(total):
        for v in rotation[u]:
            if u not in succ[v]:
                continue
            walk: list[int] = []
            a, x = u, v
            while a in succ[x]:
                walk.append(a)
                a, x = x, succ[x].pop(a)
            faces.append(tuple(walk))

    # each component has v - e + f = 2 - 2g <= 2 (an isolated vertex counts
    # one face), so one total over all components decides the genus
    components = _component_count(rotation)
    isolated = sum(1 for order in rotation if not order)
    chi = total - sum(map(len, rotation)) // 2 + len(faces) + isolated
    genus = (2 * components - chi) // 2
    return FaceList(tuple(faces), components, genus, genus == 0)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Violations found on one drawing; ``stats`` is read-only because every
    reader of the drawing shares its one report."""

    violations: tuple[Violation, ...]
    stats: Mapping[str, int]

    @property
    def valid(self) -> bool:
        return not self.violations

    def codes(self) -> list[str]:
        return [v.code for v in self.violations]


def validate_drawing(d: OnePlanarDrawing) -> ValidationReport:
    """Check every drawing invariant; an empty report means valid.

    Ids out of range are a hard error at construction time, never reported
    here.  When the crossing records are ambiguous (an edge crossed twice,
    or a crossing on a non-edge) the dependent rotation and Euler checks
    are skipped since the planarization is not well defined.  The drawing
    is immutable, so the report is computed on the first call and kept on
    it; every later call returns that same, read-only report.
    """
    if d._report is None:
        d._report = _check_invariants(d)
    return d._report


def _check_invariants(d: OnePlanarDrawing) -> ValidationReport:
    n = d.n
    out: list[Violation] = []

    for i, c in enumerate(d.crossings):
        if len(set(c.endpoints())) != 4:
            out.append(
                Violation(
                    "crossing-endpoints-not-distinct",
                    f"crossing {n + i} on edges {c.e1} x {c.e2} repeats an endpoint",
                )
            )
    counts: dict[Edge, list[int]] = {}
    ambiguous = False
    for i, c in enumerate(d.crossings):
        for e in (c.e1, c.e2):
            counts.setdefault(e, []).append(n + i)
            if e not in d.base.edges:
                ambiguous = True
                out.append(
                    Violation(
                        "crossed-edge-missing",
                        f"crossing {n + i} references non-edge {e}",
                    )
                )
    for e, zs in counts.items():
        if len(zs) > 1:
            ambiguous = True
            out.append(
                Violation(
                    "edge-crossed-twice",
                    f"edge {e} appears in crossings {zs}; each edge may be crossed at most once",
                )
            )

    stats: dict[str, int] = {
        "n": n,
        "e": d.base.num_edges,
        "crossings": d.num_crossings,
        "e_planarization": d.base.num_edges + 2 * d.num_crossings,
        "genus": 0,
        "components": 0,
        "faces": 0,
    }

    if ambiguous:
        return ValidationReport(tuple(out), MappingProxyType(stats))
    expected: list[set[int]] = [set() for _ in range(d.planarization_size)]
    for _, _, (p, q) in edge_ends(d.base.edges, d._edge_crossing):
        expected[p].add(q)
        expected[q].add(p)

    coverage_ok = True
    for w in range(d.planarization_size):
        order = d.rotation[w]
        if len(set(order)) != len(order) or set(order) != expected[w]:
            coverage_ok = False
            out.append(
                Violation(
                    "rotation-coverage",
                    f"rotation[{w}] = {list(order)} does not match incident "
                    f"planarization edges {sorted(expected[w])}",
                )
            )
    for i, c in enumerate(d.crossings):
        z = n + i
        order = d.rotation[z]
        if len(order) != 4:
            out.append(
                Violation(
                    "crossing-degree",
                    f"crossing {z} has degree {len(order)}, expected 4",
                )
            )
            continue
        in_e1 = [x in c.e1 for x in order]
        if set(order) == set(c.endpoints()) and (
            in_e1 == [True, False, True, False] or in_e1 == [False, True, False, True]
        ):
            continue
        out.append(
            Violation(
                "crossing-rotation-alternation",
                f"rotation at crossing {z} = {list(order)} does not alternate "
                f"between ends of {c.e1} and {c.e2}",
            )
        )

    if coverage_ok:
        fl = d.face_list
        stats["genus"] = fl.genus
        stats["components"] = fl.components
        stats["faces"] = len(fl.faces)
        if not fl.euler_ok:
            out.append(
                Violation(
                    "euler-genus",
                    f"face tracing gives genus {fl.genus}; drawing is not plane",
                )
            )
    return ValidationReport(tuple(out), MappingProxyType(stats))


@dataclass(frozen=True)
class EdgeBoundReport:
    passed: bool
    vacuous: bool
    v: int
    e: int
    bound: int


def edge_bound_check(d: OnePlanarDrawing) -> EdgeBoundReport:
    """Check e <= 4v - 8; vacuously true for v < 3 where the bound is negative."""
    v = d.n
    e = d.base.num_edges
    bound = 4 * v - 8
    if v < 3:
        return EdgeBoundReport(True, True, v, e, bound)
    return EdgeBoundReport(e <= bound, False, v, e, bound)


def associated_plane_graph(
    d: OnePlanarDrawing,
) -> tuple[AbstractGraph, tuple[tuple[int, ...], ...]]:
    """Planarization as a plane-embedded simple graph plus its rotation.

    Vertices >= d.n are the crossing markers; real vertices keep their
    base-graph degree.  Raises InvalidDrawingError when the drawing fails
    validation.  A valid rotation lists exactly the planarization edges,
    so they are read off it.
    """
    report = validate_drawing(d)
    if not report.valid:
        raise InvalidDrawingError(report)
    rot = d.rotation
    edges = [(u, x) for u in range(len(rot)) for x in rot[u] if u < x]
    return AbstractGraph(len(rot), edges), rot


def planarization_components(d: OnePlanarDrawing) -> int:
    """Number of connected components of the planarization (drawing pieces)."""
    return _component_count(d.rotation)
