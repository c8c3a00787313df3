"""Acyclic edge coloring with a bounded palette, its list variant, a
verifier, and an exact brute-force oracle.

The constructive algorithm eliminates vertices one at a time (degree <= 2
first, otherwise the smallest-id vertex carrying one of the unavoidable
small-degree configurations, bridging its two largest neighbors with an
auxiliary edge when they are non-adjacent), then replays the plan in
reverse with L = max(2*maxdeg - 2, maxdeg + 83).  A returning vertex v
with neighbors v_1..v_d (ascending by degree at plan time, then id) colors
its edges in the order v_{d-1}, v_d, v_1, ..., v_{d-2}.  Each edge draws
from one admissible set: the palette 0..L-1 (or the edge's own list) minus
the colors already placed at v and minus the colors seen before the step
at a range of neighbors -- v_{d-1} and v_d for position 0, v_1..v_{d-2}
and v_d for position 1, and v_{p-1}..v_{d-1} for position p >= 2.  A step
that added an auxiliary edge gives its color to the first edge instead.
Every color choice is the smallest admissible one; each extension is
checked for new bichromatic cycles and backtracking inside the same
admissible sets, at most BACKTRACK_BUDGET attempts per step, handles any
failure, with exhaustion surfaced as ExtensionFailed rather than papered
over.  The replay and the exact oracle share one iterative search,
_backtrack, and one cycle test, _closes_cycle.  StepStats' set sizes and
literal_bound are filled for configuration steps only.

Cost.  A center's status depends on its neighbors' degrees only through
how many lie at or below each of the CEILINGS, only degree <= 7
vertices can be centers, and degrees change only at the removed vertex's
neighbors.  So after a removal the plan re-checks those neighbors, plus
the degree <= 7 neighbors of any neighbor whose degree has just fallen onto
a ceiling; every vertex falls onto each ceiling at most once, which keeps
the plan linear.  The replay walks each admissible set lazily, in ascending
order, so an edge costs O(|forbidden| + attempts) rather than O(L); the
StepStats sizes come from set arithmetic (L - |forbidden| on the palette,
|list| - |forbidden & list| on a list), not from listing the sets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .model import AbstractGraph, Edge, OnePlanarError, normalize_edge
from .structure import CEILINGS, LIGHT_DEGREE_MAX, ConfigurationNotFound, matches_configuration

BACKTRACK_BUDGET = 10_000  # attempts per plan step; read at call time
# 83: leaves a degree-7 center's first and last edges one color (literal_bound)
_PALETTE_SLACK = 1 + sum(c - 1 for c in CEILINGS)


def palette_size(max_degree: int) -> int:
    """Palette bound max(2*maxdeg - 2, maxdeg + 83)."""
    if max_degree < 0:
        raise ValueError("max degree must be non-negative")
    return max(2 * max_degree - 2, max_degree + _PALETTE_SLACK)


class ExtensionFailed(OnePlanarError):
    """A plan step could not be colored within its admissible sets.

    This is a reportable finding about the procedure, not a silent pass;
    the message carries the step and the admissible-set sizes seen.
    """

    def __init__(self, step_index: int, vertex: int, detail: str):
        super().__init__(f"extension failed at step {step_index} (vertex {vertex}): {detail}")
        self.step_index = step_index
        self.vertex = vertex


class ListTooSmall(OnePlanarError):
    pass


# --------------------------------------------------------------------------
# elimination plan
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    vertex: int
    case: str  # "deg2" (degree <= 2) or "config"
    kind: str | None  # configuration kind for config steps
    neighbors: tuple[int, ...]  # ascending by (degree at plan time, id)
    aux: tuple[int, int] | None  # (second-largest, largest) neighbor pair
    aux_added: bool


@dataclass(frozen=True)
class EliminationPlan:
    steps: tuple[PlanStep, ...]


def build_elimination_plan(g: AbstractGraph) -> EliminationPlan:
    """Vertex elimination order for the coloring recursion.

    While a vertex of degree <= 2 exists, the one with smallest (degree, id)
    is removed; otherwise the smallest-id configuration center is.  For
    steps that record an aux pair, the pair is bridged in the working graph
    when not already adjacent, which keeps later steps' degree queries
    consistent with the reverse replay.  After a removal only the vertices
    whose status can have changed are re-checked (see the module docstring);
    a stale heap entry is dropped when it reaches the top.
    """
    n = g.n
    adj: dict[int, set[int]] = {v: set(g.neighbors(v)) for v in range(n)}
    alive: set[int] = set(range(n))

    def degree(u: int) -> int:
        return len(adj[u])

    # entries (degree, v) for degree <= 2 and (3, v) for configuration
    # centers, packed as k * n + v so the heap compares plain ints; every
    # live vertex of degree <= 2 keeps a valid entry, so all of them are
    # taken before any center
    heap: list[int] = []

    def push(u: int) -> None:
        deg = len(adj[u])
        if deg <= 2:
            heapq.heappush(heap, deg * n + u)
        elif matches_configuration(adj[u], degree):
            heapq.heappush(heap, 3 * n + u)

    for v in alive:
        push(v)

    steps: list[PlanStep] = []
    while alive:
        while heap:
            k, v = divmod(heap[0], n)
            if v in alive and (
                len(adj[v]) == k if k <= 2 else matches_configuration(adj[v], degree)
            ):
                break
            heapq.heappop(heap)
        else:
            raise ConfigurationNotFound(
                "no vertex of degree <= 2 and no configuration center; "
                "the input is not 1-planar (or a bug)"
            )
        nbrs = sorted(adj[v], key=lambda u: (len(adj[u]), u))
        aux = None
        aux_added = False
        if k <= 2:
            case, kind = "deg2", None
            if len(nbrs) == 2:
                aux = (nbrs[0], nbrs[1])
                aux_added = nbrs[1] not in adj[nbrs[0]]
        else:
            case, kind = "config", f"C{len(nbrs) - 1}"
            aux = (nbrs[-2], nbrs[-1])
            aux_added = nbrs[-1] not in adj[nbrs[-2]]
        steps.append(PlanStep(v, case, kind, tuple(nbrs), aux, aux_added))

        alive.remove(v)
        for u in nbrs:
            adj[u].discard(v)
        del adj[v]
        if aux_added:
            a, b = aux
            adj[a].add(b)
            adj[b].add(a)
        # every neighbor but a bridged aux pair lost one degree; that changes
        # the status of its own degree <= 7 neighbors only when it falls onto
        # a ceiling
        recheck = set(nbrs)
        for u in nbrs:
            if len(adj[u]) in CEILINGS and not (aux_added and u in aux):
                recheck.update(x for x in adj[u] if len(adj[x]) <= LIGHT_DEGREE_MAX)
        for u in recheck:
            push(u)
    return EliminationPlan(tuple(steps))


# --------------------------------------------------------------------------
# coloring state
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeColoring:
    assignment: dict[Edge, int]
    palette: int

    def num_colors(self) -> int:
        return len(set(self.assignment.values()))

    def color(self, u: int, v: int) -> int:
        return self.assignment[normalize_edge(u, v)]


@dataclass
class StepStats:
    index: int
    vertex: int
    case: str
    degree: int
    attempts: int
    t1_size: int | None = None
    td_size: int | None = None
    literal_bound: int | None = None
    middle_sizes: list[int] = field(default_factory=list)  # first-seen, by position
    # sizes excluding, like t1_size, only the colors of the first two edges
    # (these are monotone along the edge order; the executed sets can dip by
    # one per further placed color)
    middle_raw_sizes: list[int] = field(default_factory=list)


@dataclass
class ColoringRun:
    coloring: EdgeColoring
    plan: EliminationPlan
    step_stats: list[StepStats] = field(default_factory=list)


class _State:
    """Partial proper coloring: per-vertex color->neighbor maps."""

    __slots__ = ("colors", "edge_color")

    def __init__(self, n: int):
        self.colors: list[dict[int, int]] = [dict() for _ in range(n)]
        self.edge_color: dict[Edge, int] = {}

    def assign(self, u: int, v: int, c: int) -> None:
        self.colors[u][c] = v
        self.colors[v][c] = u
        self.edge_color[normalize_edge(u, v)] = c

    def unassign(self, u: int, v: int) -> None:
        c = self.edge_color.pop(normalize_edge(u, v))
        del self.colors[u][c]
        del self.colors[v][c]


def _closes_cycle(colors: Sequence[Mapping[int, int]], x: int, y: int, c: int) -> bool:
    """Would coloring xy with c (a color at neither end) close a bichromatic cycle?

    Only if some color b at both ends starts a b/c alternating path at x that
    ends at y: c is missing at x, so that path is x's whole b/c component.
    """
    for b in colors[x].keys() & colors[y].keys():
        cur, want = x, b
        while (cur := colors[cur].get(want)) is not None:
            if cur == y:
                return True
            want = c if want == b else b
    return False


def _backtrack(
    state: _State,
    edges: Sequence[Edge],
    candidates: Callable[[int], Iterable[int]],
    budget: float = float("inf"),
) -> tuple[bool, int]:
    """Color edges in order, edge i with the first color from candidates(i)
    that closes no bichromatic cycle; candidates(i) is asked again each time
    the search enters position i, with edges[:i] colored.  A position that
    runs out of candidates backs the search up one edge.  Iterative, so any
    number of edges fits.  Returns (done, attempts); the search gives up
    once attempts exceed budget.
    """
    attempts, pos = 0, 0
    pending: list[Iterator[int]] = []  # the untried candidates of each entered position
    while 0 <= pos < len(edges):
        if pos == len(pending):
            pending.append(iter(candidates(pos)))
        x, y = edges[pos]
        for c in pending[pos]:
            attempts += 1
            if attempts > budget:
                return False, attempts
            if not _closes_cycle(state.colors, x, y, c):
                state.assign(x, y, c)
                pos += 1
                break
        else:
            pending.pop()
            pos -= 1
            if pos >= 0:
                state.unassign(*edges[pos])
    return pos == len(edges), attempts


# --------------------------------------------------------------------------
# the constructive algorithm
# --------------------------------------------------------------------------


def _admissible_size(allowed: Sequence[int], forbidden: set[int]) -> int:
    """|allowed - forbidden| by set arithmetic, never by scanning the palette.

    Every color a plain run places lies in range(L), so there the size is
    L - |forbidden|; a list is intersected with forbidden at C speed.
    """
    if isinstance(allowed, range):
        return len(allowed) - len(forbidden)
    return len(allowed) - len(forbidden.intersection(allowed))


def _extend_step(
    state: _State,
    step: PlanStep,
    index: int,
    L: int,
    maxdeg: int,
    edge_lists: dict[Edge, tuple[int, ...]] | None,
) -> StepStats:
    v = step.vertex
    nbrs = step.neighbors
    d = len(nbrs)
    stats = StepStats(index=index, vertex=v, case=step.case, degree=d, attempts=0)
    if d == 0:
        return stats
    # edges to v_{d-1}, v_d, v_1, ..., v_{d-2}; each position's forbidden
    # colors are the pre-step colors seen at a range of neighbors
    order = nbrs[-2:] + nbrs[:-2]
    phi = [state.colors[u] for u in nbrs]
    seen = [set().union(*phi[-2:]), set().union(*phi[: d - 2], phi[-1])]
    seen += [set().union(*phi[p - 2 : d - 1]) for p in range(2, d)]
    allowed = [range(L) if edge_lists is None else edge_lists[normalize_edge(v, u)] for u in order]

    if step.aux_added:
        a, b = step.aux
        aux_color = state.edge_color[normalize_edge(a, b)]
        state.unassign(a, b)
        first: Iterable[int] = (aux_color,) if aux_color in allowed[0] else ()
    else:
        first = (c for c in allowed[0] if c not in seen[0])

    config = step.case == "config"
    if config:
        # a degree-d center's d - 2 small neighbors lie under its own ceilings
        stats.literal_bound = L - (sum(c - 1 for c in CEILINGS[LIGHT_DEGREE_MAX - d :]) + maxdeg)

    def candidates(pos: int) -> Iterable[int]:
        if pos == 0:
            return first
        # the colors at v are the ones this step has placed so far, in order
        forbidden = seen[pos].union(state.colors[v])
        if config and pos in (1, 2):
            # size guarantee min(|T_1|, |T_d|) >= L - (sum(c_k - 1) + maxdeg) > 0
            # over the center's ceilings c_k; violations are findings, not passes
            size = _admissible_size(allowed[pos], forbidden)
            if pos == 1:
                stats.td_size, which = size, "last-edge"
            else:
                stats.t1_size, which = size, "first-edge"
            if size < stats.literal_bound or not size:
                raise ExtensionFailed(
                    index,
                    v,
                    f"admissible-set size bound violated: {which} set has {size} "
                    f"colors, guarantee is {stats.literal_bound}",
                )
        elif config and len(stats.middle_sizes) == pos - 3:
            stats.middle_sizes.append(_admissible_size(allowed[pos], forbidden))
            raw = seen[pos].union(list(state.colors[v])[:2])
            stats.middle_raw_sizes.append(_admissible_size(allowed[pos], raw))
        return (c for c in allowed[pos] if c not in forbidden)

    done, stats.attempts = _backtrack(state, [(u, v) for u in order], candidates, BACKTRACK_BUDGET)
    if stats.attempts > BACKTRACK_BUDGET:
        raise ExtensionFailed(index, v, f"backtracking budget {BACKTRACK_BUDGET} exhausted")
    if not done:
        n_first = len(first) if step.aux_added else _admissible_size(allowed[0], seen[0])
        raise ExtensionFailed(
            index,
            v,
            f"admissible sets exhausted (first-edge candidates: {n_first}, "
            f"degree {d})",
        )
    return stats


def color_run(g: AbstractGraph, lists: Mapping[Edge, Iterable[int]] | None = None) -> ColoringRun:
    """Run the elimination plan in reverse and color every edge.

    With lists=None the palette is 0..L-1; otherwise every admissible set
    is intersected with the edge's own list (each of size >= L), and an
    auxiliary edge inherits the list of the edge whose color it donates.
    """
    L = palette_size(g.max_degree())
    plan = build_elimination_plan(g)

    edge_lists: dict[Edge, tuple[int, ...]] | None = None
    if lists is not None:
        edge_lists = {}
        for e in g.edges:
            if e not in lists:
                raise ListTooSmall(f"no color list for edge {e}")
            lst = tuple(sorted(set(lists[e])))
            if len(lst) < L:
                raise ListTooSmall(f"list for edge {e} has {len(lst)} colors, need {L}")
            edge_lists[e] = lst
        # aux edges inherit the list of the edge that donates their color
        for step in plan.steps:
            if step.aux_added:
                donor = normalize_edge(step.vertex, step.aux[0])
                edge_lists[normalize_edge(*step.aux)] = edge_lists[donor]

    maxdeg = g.max_degree()
    state = _State(g.n)
    run_stats = [
        _extend_step(state, plan.steps[index], index, L, maxdeg, edge_lists)
        for index in range(len(plan.steps) - 1, -1, -1)
    ]

    assignment = dict(state.edge_color)
    missing = g.edges - set(assignment)
    extra = set(assignment) - g.edges
    if missing or extra:
        raise OnePlanarError(f"replay mismatch: missing {missing}, extra {extra}")
    return ColoringRun(EdgeColoring(assignment, L), plan, run_stats)


def acyclic_edge_color(g: AbstractGraph) -> EdgeColoring:
    return color_run(g).coloring


def acyclic_edge_color_lists(g: AbstractGraph, lists: Mapping[Edge, Iterable[int]]) -> EdgeColoring:
    return color_run(g, lists).coloring


# --------------------------------------------------------------------------
# verifier
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    missing_edges: tuple[Edge, ...]
    unknown_edges: tuple[Edge, ...]
    properness_violations: tuple[tuple[Edge, Edge], ...]
    bichromatic_cycles: tuple[tuple[int, int, tuple[int, ...]], ...]


def verify_acyclic(g: AbstractGraph, coloring: EdgeColoring) -> VerifyReport:
    """Check totality, properness, and absence of bichromatic cycles.

    Properness takes one pass in the assignment's own order; only when it
    finds a clash is the pass repeated in ascending edge order, which fixes
    which edge of each clash is reported.  The cycle search runs only on a
    total, proper coloring and only over the graph's own edges: a colored
    non-edge is reported as unknown and closes no cycle.  Properness makes every two-colored component a path or a
    cycle, so each color pair (a, b) is decided by one alternating walk per
    component.  Walks start only at vertices whose a-neighbor carries b and
    whose b-neighbor carries a (every vertex of an a/b cycle does), found by
    intersecting each vertex's colors with each neighbor's; the whole search
    costs O(sum over edges uv of min(deg u, deg v)), at most O(sum of deg^2)
    and linear on 1-planar graphs (arboricity <= 4).  A cyclic pair is
    reported once, as (a, b, cycle): the cycle starts at the smallest-id
    vertex on any a/b cycle and is walked color a first.  Pairs ascend.
    """
    assignment = coloring.assignment
    missing = tuple(sorted(g.edges - set(assignment)))
    unknown = tuple(sorted(set(assignment) - g.edges))

    at, proper = _place_colors(g, assignment.items())
    if proper:
        # which edge of a clash is reported depends on the order: ascending
        at, proper = _place_colors(g, sorted(assignment.items()))

    cycles: list[tuple[int, int, tuple[int, ...]]] = []
    if not proper and not missing:
        starts: dict[tuple[int, int], list[int]] = {}
        for w in range(g.n):
            near = {a: at[w].keys() & at[x].keys() for a, x in at[w].items()}
            for a, shared in near.items():
                for b in shared:
                    if a < b and a in near[b]:
                        starts.setdefault((a, b), []).append(w)
        for (a, b), ws in sorted(starts.items()):
            seen: set[int] = set()
            for start in ws:
                if start in seen:
                    continue
                walk, cur, want = [start], at[start][a], b
                while cur != start and cur is not None:
                    walk.append(cur)
                    cur, want = at[cur].get(want), a if want == b else b
                if cur == start:
                    cycles.append((a, b, tuple(walk)))
                    break
                seen.update(walk)
                cur, want = at[start][b], a
                while cur is not None:
                    seen.add(cur)
                    cur, want = at[cur].get(want), a if want == b else b

    ok = not (missing or unknown or proper or cycles)
    return VerifyReport(ok, missing, unknown, tuple(proper), tuple(cycles))


def _place_colors(
    g: AbstractGraph, items: Iterable[tuple[Edge, int]]
) -> tuple[list[dict[int, int]], list[tuple[Edge, Edge]]]:
    """Per-vertex color -> neighbor tables over g's edges, and the clashes.

    On a proper coloring the tables are the same in any order of items."""
    at: list[dict[int, int]] = [dict() for _ in range(g.n)]
    proper: list[tuple[Edge, Edge]] = []
    for (u, v), c in items:
        if (u, v) in g.edges:
            for w, o in ((u, v), (v, u)):
                if c in at[w]:
                    proper.append((normalize_edge(w, at[w][c]), (u, v)))
                else:
                    at[w][c] = o
    return at, proper


# --------------------------------------------------------------------------
# exact oracle
# --------------------------------------------------------------------------


def oracle_chi_a(g: AbstractGraph, limit: int) -> int | None:
    """Smallest k <= limit admitting a proper acyclic edge coloring, else None.

    Backtracking over edges in a connectivity-friendly order with color
    symmetry breaking: color c may be used only once c-1 has appeared.
    Exponential in the worst case, so meant for small graphs; the search is
    iterative, so a graph that colors with little backtracking may be large.
    """
    m = g.num_edges
    if m == 0:
        return 0
    edges = _search_order(g)
    lo = max(g.max_degree(), 1)
    for k in range(lo, limit + 1):
        if _colorable_with(g, edges, k):
            return k
    return None


def _search_order(g: AbstractGraph) -> list[Edge]:
    """Edges ordered so each touches an earlier one when possible: next is
    the smallest remaining edge at a visited vertex, else the smallest
    remaining edge.  The edges at visited vertices wait in a heap, where an
    edge already placed is dropped when it reaches the top."""
    edges = sorted(g.edges)
    order: list[Edge] = []
    placed: set[Edge] = set()
    visited: set[int] = set()
    near: list[Edge] = []
    i = 0
    while len(order) < len(edges):
        while near and near[0] in placed:
            heapq.heappop(near)
        if not near:
            while edges[i] in placed:
                i += 1
            near.append(edges[i])
        e = heapq.heappop(near)
        order.append(e)
        placed.add(e)
        for w in e:
            if w not in visited:
                visited.add(w)
                for x in g.neighbors(w):
                    heapq.heappush(near, normalize_edge(w, x))
    return order


def _colorable_with(g: AbstractGraph, edges: list[Edge], k: int) -> bool:
    state = _State(g.n)
    used = [0] * len(edges)  # edges[:i] use exactly the colors below used[i]

    def candidates(i: int) -> Iterable[int]:
        if i:
            used[i] = max(used[i - 1], state.edge_color[edges[i - 1]] + 1)
        at_u, at_v = (state.colors[x] for x in edges[i])
        return (c for c in range(min(k, used[i] + 1)) if c not in at_u and c not in at_v)

    return _backtrack(state, edges, candidates)[0]
