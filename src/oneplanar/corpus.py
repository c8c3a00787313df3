"""Drawing generators, named instances, and graph6 / drawing-JSON I/O.

Determinism contract: every generator is a pure function of its arguments.
The PRNG is xorshift64* (Marsaglia/Vigna), fixed here by its recurrence so
output is reproducible across platforms and reimplementations:

    x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27;
    output = (x * 0x2545F4914F6CDD1D) mod 2^64

A zero seed is remapped to the splitmix64 increment constant (the state
must never be zero).  Sampling below n uses plain modulo reduction.

Drawing JSON names each rotation entry by the token ``model.edge_ends``
gives its link; the writer refuses an entry that is no link at its vertex.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .embedding import cross_edge
from .model import (
    AbstractGraph,
    Crossing,
    Edge,
    MalformedDrawingError,
    OnePlanarDrawing,
    OnePlanarError,
    crossing_ids,
    edge_ends,
    normalize_edge,
    trace_faces,
)

_MASK64 = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_ZERO_SEED = 0x9E3779B97F4A7C15


class XorShift64Star:
    """xorshift64* with 64-bit state; see module docstring for the recurrence."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed & _MASK64) or _ZERO_SEED

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & _MASK64

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n


class GenerationError(OnePlanarError):
    pass


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

_K3_ROT = [[1, 2], [2, 0], [0, 1]]


def _grow_triangulation(n: int, rng: XorShift64Star) -> dict[int, list[int]]:
    """Rotations of a triangle grown by inserting each vertex v into a face
    (a, b, c), in walk order, drawn by the PRNG; the face leaves (a, b, v)
    in its place and (b, c, v), (c, a, v) at the end of the live list."""
    rot = {w: list(order) for w, order in enumerate(_K3_ROT)}
    live = [tuple(face) for face in trace_faces(_K3_ROT).faces]
    for v in range(3, n):
        k = rng.below(len(live))
        a, b, c = live[k]
        rot[v] = [a, c, b]
        for w, after in ((a, c), (b, a), (c, b)):
            rw = rot[w]
            rw.insert(rw.index(after) + 1, v)
        live[k] = (a, b, v)
        live.extend(((b, c, v), (c, a, v)))
    return rot


def _plane_drawing(rotation: Sequence[Sequence[int]]) -> OnePlanarDrawing:
    """Crossing-free drawing whose edges are read from its rotation system."""
    n = len(rotation)
    edges = [(u, v) for u in range(n) for v in rotation[u] if u < v]
    return OnePlanarDrawing(AbstractGraph(n, edges), [], rotation)


def gen_plane_triangulation(n: int, seed: int) -> OnePlanarDrawing:
    """Random maximal planar graph (e = 3n - 6) with its rotation system.

    Built by repeatedly inserting a fresh vertex into a face chosen by the
    seeded PRNG, starting from a triangle.  No crossings.
    """
    if n < 3:
        raise GenerationError(f"plane triangulation needs n >= 3, got {n}")
    return _plane_drawing(list(_grow_triangulation(n, XorShift64Star(seed)).values()))


def gen_random_oneplanar(
    n: int, crossing_fraction: Fraction | int | str, seed: int
) -> OnePlanarDrawing:
    """Random 1-planar drawing: a plane triangulation plus crossing chords.

    Each crossing replaces an uncrossed edge b-d flanked by two triangles
    abd, bcd (a, c real and non-adjacent) with the chord a-c drawn across
    it, which preserves validity by construction.  The target number of
    crossings is floor(fraction * (n - 2)); the fraction is best effort and
    the achieved count is whatever the drawing reports.
    """
    if n < 4:
        raise GenerationError(f"random 1-planar generation needs n >= 4, got {n}")
    if isinstance(crossing_fraction, bool):  # Fraction(True) is 1
        raise GenerationError(f"crossing fraction must be a number, got {crossing_fraction}")
    frac = Fraction(crossing_fraction)
    if not 0 <= frac <= 1:
        raise GenerationError(f"crossing fraction {frac} outside [0, 1]")
    rng = XorShift64Star(seed)
    rot = _grow_triangulation(n, rng)
    gadj: set[Edge] = {(u, v) for u in rot for v in rot[u] if u < v}
    candidates = sorted(gadj)
    crossings: list[Crossing] = []
    target = int(frac * (n - 2))
    attempts = 0
    max_attempts = 30 * target + 30
    while len(crossings) < target and attempts < max_attempts:
        attempts += 1
        b, d = candidates[rng.below(len(candidates))]
        rb, rd = rot[b], rot[d]
        if d not in rb:
            continue  # b-d is crossed already
        # every face is a triangle: the corners across b-d follow in rotations
        a = rd[(rd.index(b) + 1) % len(rd)]
        c = rb[(rb.index(d) + 1) % len(rb)]
        if a >= n or c >= n or a == c:
            continue  # flanking face belongs to an earlier crossing
        chord = normalize_edge(a, c)
        if chord in gadj:
            continue
        cross_edge(rot, b, d, n + len(crossings))
        gadj.add(chord)
        crossings.append(Crossing(chord, (b, d)))
    return OnePlanarDrawing(AbstractGraph(n, gadj), crossings, list(rot.values()))


# --------------------------------------------------------------------------
# named instances
# --------------------------------------------------------------------------

_K4_ROT = [[1, 2, 3], [2, 0, 3], [0, 1, 3], [0, 2, 1]]

# triangular antiprism: outer triangle 0,1,2; inner triangle 3,4,5
_OCTAHEDRON_ROT = [
    [1, 3, 5, 2],
    [2, 4, 3, 0],
    [0, 5, 4, 1],
    [5, 0, 1, 4],
    [5, 3, 1, 2],
    [0, 3, 4, 2],
]

# top pole 0, upper ring 1-5, lower ring 6-10, bottom pole 11
_ICOSAHEDRON_ROT = [
    [3, 4, 5, 1, 2],
    [10, 6, 2, 0, 5],
    [6, 7, 3, 0, 1],
    [7, 8, 4, 0, 2],
    [8, 9, 5, 0, 3],
    [9, 10, 1, 0, 4],
    [10, 11, 7, 2, 1],
    [6, 11, 8, 3, 2],
    [7, 11, 9, 4, 3],
    [8, 11, 10, 5, 4],
    [9, 11, 6, 1, 5],
    [9, 8, 7, 6, 10],
]


def _build_kite() -> OnePlanarDrawing:
    """Two edges crossing once: the minimal 1-planar drawing with a crossing."""
    base = AbstractGraph(4, [(0, 1), (2, 3)])
    rotation = [[4], [4], [4], [4], [0, 2, 1, 3]]
    return OnePlanarDrawing(base, [Crossing((0, 1), (2, 3))], rotation)


def _build_k6_1planar() -> OnePlanarDrawing:
    """K6 drawn as the octahedron plus its three diagonals, one crossing each."""
    rot = {w: list(order) for w, order in enumerate(_OCTAHEDRON_ROT)}
    crossings: list[Crossing] = []
    for b, d in [(1, 3), (2, 4), (0, 5)]:
        a, c = cross_edge(rot, b, d, 6 + len(crossings))
        crossings.append(Crossing(normalize_edge(a, c), (b, d)))
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    return OnePlanarDrawing(AbstractGraph(6, edges), crossings, list(rot.values()))


_NAMED = {
    "k3": lambda: _plane_drawing(_K3_ROT),
    "k4": lambda: _plane_drawing(_K4_ROT),
    "octahedron": lambda: _plane_drawing(_OCTAHEDRON_ROT),
    "icosahedron": lambda: _plane_drawing(_ICOSAHEDRON_ROT),
    "k6_1planar": _build_k6_1planar,
    "kite": _build_kite,
}

NAMED_INSTANCES = tuple(sorted(_NAMED))


def named_instance(name: str) -> OnePlanarDrawing:
    try:
        builder = _NAMED[name]
    except KeyError:
        raise OnePlanarError(
            f"unknown named instance {name!r}; known: {', '.join(NAMED_INSTANCES)}"
        ) from None
    return builder()


# --------------------------------------------------------------------------
# graph6
# --------------------------------------------------------------------------


class Graph6Error(OnePlanarError):
    pass


def write_graph6(g: AbstractGraph) -> str:
    n = g.n
    out: list[int] = []
    if n <= 62:
        out.append(63 + n)
    elif n <= 258047:
        out.append(126)
        out.extend(63 + ((n >> s) & 63) for s in (12, 6, 0))
    elif n <= 68719476735:
        out.extend((126, 126))
        out.extend(63 + ((n >> s) & 63) for s in (30, 24, 18, 12, 6, 0))
    else:
        raise Graph6Error(f"n={n} too large for graph6")
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.has_edge(i, j) else 0)
            nbits += 1
            if nbits == 6:
                out.append(63 + acc)
                acc, nbits = 0, 0
    if nbits:
        out.append(63 + (acc << (6 - nbits)))
    return "".join(chr(b) for b in out)


def parse_graph6(text: str) -> AbstractGraph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6Error("empty graph6 string")
    data = [ord(ch) - 63 for ch in s]
    if any(not 0 <= b <= 63 for b in data):
        raise Graph6Error("graph6 byte outside printable range")
    if data[0] != 63:
        n, pos = data[0], 1
    elif len(data) >= 2 and data[1] != 63:
        if len(data) < 4:
            raise Graph6Error("truncated graph6 size field")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        pos = 4
    else:
        if len(data) < 8:
            raise Graph6Error("truncated graph6 size field")
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        pos = 8
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos != need:
        raise Graph6Error(
            f"graph6 payload for n={n} needs {need} bytes, found {len(data) - pos}"
        )
    bits = []
    for b in data[pos:]:
        bits.extend((b >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return AbstractGraph(n, edges)


# --------------------------------------------------------------------------
# drawing JSON
# --------------------------------------------------------------------------


class DrawingFormatError(OnePlanarError):
    """Drawing file violates the schema; the message names the bad field."""


def drawing_to_doc(d: OnePlanarDrawing) -> dict:
    """The drawing as a JSON document, each rotation entry the token of its
    link; an entry that is no link raises MalformedDrawingError."""
    edges = d.base.sorted_edges()
    token: list[dict[int, list]] = [{} for _ in range(d.planarization_size)]
    for e, slot, (p, q) in edge_ends(edges, crossing_ids(d.n, d.crossings)):
        token[p][q] = token[q][p] = [e[0], e[1], slot]
    rotation = {}
    for w, (order, at_w) in enumerate(zip(d.rotation, token)):
        try:
            rotation[str(w)] = [at_w[x] for x in order]
        except KeyError as exc:
            raise MalformedDrawingError(
                f"rotation[{w}] lists {exc.args[0]}, which no edge end joins to {w}"
            ) from None
    return {
        "n": d.n,
        "edges": [list(e) for e in edges],
        "crossings": [{"e1": list(c.e1), "e2": list(c.e2)} for c in d.crossings],
        "rotation": rotation,
    }


def write_drawing_json(d: OnePlanarDrawing) -> str:
    return json.dumps(drawing_to_doc(d), separators=(",", ":")) + "\n"


def _expect_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DrawingFormatError(f"{where}: expected integer, got {value!r}")
    return value


def _expect_edge(value, where: str) -> Edge:
    if not isinstance(value, list) or len(value) != 2:
        raise DrawingFormatError(f"{where}: expected [u, v]")
    try:
        return normalize_edge(_expect_int(value[0], where), _expect_int(value[1], where))
    except MalformedDrawingError as exc:
        raise DrawingFormatError(f"{where}: {exc}") from None


def drawing_from_doc(doc) -> OnePlanarDrawing:
    if not isinstance(doc, dict):
        raise DrawingFormatError("top level: expected object")
    unknown = set(doc) - {"n", "edges", "crossings", "rotation"}
    if unknown:
        raise DrawingFormatError(f"top level: unknown field {sorted(unknown)[0]!r}")
    for key in ("n", "edges", "crossings", "rotation"):
        if key not in doc:
            raise DrawingFormatError(f"top level: missing field {key!r}")
    n = _expect_int(doc["n"], "n")
    for key, want in (("edges", list), ("crossings", list), ("rotation", dict)):
        if not isinstance(doc[key], want):
            raise DrawingFormatError(f"{key}: expected {'object' if want is dict else 'list'}")
    rot_doc = doc["rotation"]
    # one rotation per vertex and crossing; compared before anything is
    # built for n vertices, so memory stays bounded by the document's size
    total = n + len(doc["crossings"])
    if len(rot_doc) != total:
        raise DrawingFormatError(
            f"rotation: {len(rot_doc)} keys, expected n + crossings = {total}"
        )
    try:
        base = AbstractGraph(
            n, [_expect_edge(e, f"edges[{i}]") for i, e in enumerate(doc["edges"])]
        )
    except MalformedDrawingError as exc:
        raise DrawingFormatError(f"edges: {exc}") from None
    crossings = []
    for i, rec in enumerate(doc["crossings"]):
        where = f"crossings[{i}]"
        if not isinstance(rec, dict) or set(rec) != {"e1", "e2"}:
            raise DrawingFormatError(f"{where}: expected object with fields e1, e2")
        e1 = _expect_edge(rec["e1"], where + ".e1")
        crossings.append(Crossing(e1, _expect_edge(rec["e2"], where + ".e2")))

    # ends[slot][edge]: the link a token [*edge, slot] names, keyed by edge tuples already built
    ends: dict[str, dict[Edge, tuple[int, int]]] = {}
    for e, slot, link in edge_ends(base.edges, crossing_ids(n, crossings)):
        ends.setdefault(slot, {})[e] = link
    rotation: list[tuple[int, ...]] = []
    for w in range(total):
        tokens = rot_doc.get(str(w))
        if not isinstance(tokens, list):
            problem = "expected list of tokens" if str(w) in rot_doc else "missing key"
            raise DrawingFormatError(f"rotation.{w}: {problem}")
        entry = []
        for k, tok in enumerate(tokens):
            if type(tok) is list and len(tok) == 3:
                u, v, slot = tok
                if type(u) is int and type(v) is int and type(slot) is str:
                    link = ends.get(slot, {}).get((u, v) if u < v else (v, u), ())
                    if w in link:
                        entry.append(link[1] if w == link[0] else link[0])
                        continue
            raise DrawingFormatError(f"rotation.{w}[{k}]: token {tok!r:.60} is no edge end at {w}")
        rotation.append(tuple(entry))  # the drawing keeps a tuple as it is
    try:
        return OnePlanarDrawing(base, crossings, rotation)
    except MalformedDrawingError as exc:
        raise DrawingFormatError(str(exc)) from None


def read_drawing_json(text: str) -> OnePlanarDrawing:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise DrawingFormatError(f"not valid JSON: {exc}") from None
    return drawing_from_doc(doc)


def save_drawing(d: OnePlanarDrawing, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_drawing_json(d))
