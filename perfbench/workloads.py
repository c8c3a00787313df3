"""The four benchmark workloads.

Each workload builds its inputs from the seed (``build``), carries one input
through the package's public functions (``run``, the timed part), checks
every output (``check``) and digests the mathematical results (``digest``).
Checks and digests run outside the timed part.

The workloads with few large drawings take their graph shapes, and the
deletions that thin them, from a fixed corpus seed; the run seed relabels
the vertices and picks the lists and kites.  Drawn afresh per seed, those
few drawings would make a run's figures swing with the heavy degree tail of
the random triangulations (up to 40% between seeds at n=4000).  suite-small
draws its other drawings from the seed over a fixed multiset of sizes; its
desk-size oracle drawings are fixed shapes relabeled by the seed, because
one fresh shape whose exact search backtracks long moved a whole run's
throughput by 13%.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from oneplanar import cli, coloring, corpus, discharging, model, structure, triangulation

from inputs import (
    alternates,
    color_lists,
    derive_seed,
    inject_kites,
    pick_disjoint_kites,
    relabel,
    thin_drawing,
)

CORPUS_SEED = 0x0E1A9A

# --------------------------------------------------------------------------
# the public calls, wrapped for tracing
# --------------------------------------------------------------------------


def _tri_counts(T, d):
    changed = (
        T.added_kite_edges or T.removed_duplicates or T.temporarily_removed or T.added_fill_edges
    )
    yield "triangulation.kite_edges", len(T.added_kite_edges)
    yield "triangulation.fill_edges", len(T.added_fill_edges)
    yield "triangulation.calls", 1
    yield "triangulation.fast_calls", 0 if changed else 1


def _palette_counts(ec, g, *_):
    yield "coloring.palette_L", ec.palette
    yield "coloring.colors_over_maxdeg", ec.num_colors() - g.max_degree()
    yield "coloring.calls", 1
    yield "coloring.wide_palette_calls", int(ec.palette == 2 * g.max_degree() - 2)


def _run_counts(run, g, *_):
    yield "coloring.attempts", sum(s.attempts for s in run.step_stats)
    yield from _palette_counts(run.coloring, g)


def _plan_counts(plan, g):
    yield "coloring.plan_steps", len(plan.steps)
    yield "coloring.aux_edges", sum(1 for s in plan.steps if s.aux_added)


def _suite_counts(report, manifest):
    yield "cli.checks", sum(len(e["results"]) for e in report["entries"])
    yield "cli.check_failures", report["failures"]


# attribute, module, per-layer metric, counter over the return value
CALLS = (
    ("read_drawing_json", corpus, "corpus.read_json_s", None),
    ("write_drawing_json", corpus, "corpus.write_json_s", None),
    ("parse_graph6", corpus, "corpus.parse_graph6_s", None),
    ("gen_random_oneplanar", corpus, "corpus.gen_s", None),
    ("validate_drawing", model, "model.validate_s", None),
    ("edge_bound_check", model, "model.validate_s", None),
    ("planarization_components", model, "model.validate_s", None),
    ("canonical_triangulate", triangulation, "triangulation.triangulate_s", _tri_counts),
    ("is_canonical", triangulation, "triangulation.is_canonical_s", None),
    ("find_configuration", structure, "structure.find_config_s", None),
    ("find_light_path3", structure, "structure.find_config_s", None),
    ("find_light_star3", structure, "structure.find_config_s", None),
    ("classify_neighbors", structure, "structure.census_s", None),
    ("check_observations", structure, "structure.observations_s", None),
    ("initial_charges", discharging, "discharging.initial_s", None),
    ("apply_rules", discharging, "discharging.apply_s",
     lambda led, *_: [("discharging.transfers", len(led.transcript))]),
    ("audit", discharging, "discharging.audit_s", None),
    ("color_run", coloring, "coloring.color_s", _run_counts),
    ("acyclic_edge_color", coloring, "coloring.color_s", _palette_counts),
    ("acyclic_edge_color_lists", coloring, "coloring.color_lists_s", _palette_counts),
    ("build_elimination_plan", coloring, "coloring.plan_s", _plan_counts),
    ("verify_acyclic", coloring, "coloring.verify_s", None),
    ("oracle_chi_a", coloring, "coloring.oracle_s", None),
    ("run_suite", cli, "cli.run_suite_s", _suite_counts),
)


def make_api(tracer) -> SimpleNamespace:
    api = {
        attr: tracer.wrap(f"{mod.__name__}.{attr}", metric, getattr(mod, attr), count)
        for attr, mod, metric, count in CALLS
    }
    # the second verification, over a coloring with injected cycles
    api["verify_witness"] = tracer.wrap(
        "oneplanar.coloring.verify_acyclic",
        "coloring.verify_witness_s",
        coloring.verify_acyclic,
        lambda rep, *_: [("coloring.witness_cycles", len(rep.bichromatic_cycles))],
    )
    return SimpleNamespace(**api)


# per-layer metrics: (name, unit, how inputs combine)
PER_LAYER = (
    ("coloring.verify_s", "s", "sum"),
    ("coloring.color_s", "s", "sum"),
    ("coloring.plan_s", "s", "sum"),
    ("coloring.attempts", "count", "sum"),
    ("coloring.aux_edges", "count", "sum"),
    ("coloring.plan_steps", "count", "sum"),
    ("coloring.color_lists_s", "s", "sum"),
    ("coloring.verify_witness_s", "s", "sum"),
    ("coloring.witness_cycles", "count", "sum"),
    ("coloring.oracle_s", "s", "sum"),
    ("coloring.palette_L", "count", "max"),
    ("coloring.colors_over_maxdeg", "count", "max"),
    ("discharging.initial_s", "s", "sum"),
    ("discharging.apply_s", "s", "sum"),
    ("discharging.audit_s", "s", "sum"),
    ("discharging.transfers", "count", "sum"),
    ("triangulation.triangulate_s", "s", "sum"),
    ("triangulation.kite_edges", "count", "sum"),
    ("triangulation.fill_edges", "count", "sum"),
    ("triangulation.fast_path_ratio", "ratio", "ratio"),
    ("triangulation.is_canonical_s", "s", "sum"),
    ("model.validate_s", "s", "sum"),
    ("corpus.read_json_s", "s", "sum"),
    ("corpus.write_json_s", "s", "sum"),
    ("corpus.parse_graph6_s", "s", "sum"),
    ("corpus.gen_s", "s", "setup"),
    ("structure.find_config_s", "s", "sum"),
    ("structure.census_s", "s", "sum"),
    ("structure.observations_s", "s", "sum"),
    ("cli.run_suite_s", "s", "sum"),
    ("cli.checks", "count", "sum"),
    ("cli.check_failures", "count", "sum"),
)


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _assignment_doc(assignment: dict) -> list:
    return sorted([u, v, c] for (u, v), c in assignment.items())


class Item:
    """One input of a workload: an id, its input-graph edge count, its data."""

    __slots__ = ("idx", "name", "edges", "data")

    def __init__(self, idx: int, name: str, edges: int, data: dict):
        self.idx = idx
        self.name = name
        self.edges = edges
        self.data = data


# --------------------------------------------------------------------------
# pipeline-large
# --------------------------------------------------------------------------


class PipelineLarge:
    """Large drawings through every layer: read, validate, triangulate,
    structure, discharge, color, verify, write."""

    name = "pipeline-large"

    def __init__(self, tiny: bool, workdir: Path):
        n = 40 if tiny else 1000
        self.specs = [(n, Fraction(0)), (n, Fraction(1, 2)), (n, Fraction(1))]
        self.workdir = workdir

    def build(self, seed: int, api) -> list[Item]:
        items = []
        for i, (n, frac) in enumerate(self.specs):
            base = api.gen_random_oneplanar(n, frac, CORPUS_SEED + i)
            d = relabel(base, derive_seed(seed, i))
            text = corpus.write_drawing_json(d)
            out = self.workdir / f"pipeline-{i}.json"
            items.append(Item(i, f"n{n}-f{frac}", d.base.num_edges, {"text": text, "out": out}))
        return items

    def run(self, item: Item, api, traced: bool) -> dict:
        d = api.read_drawing_json(item.data["text"])
        valid = api.validate_drawing(d).valid
        bound = api.edge_bound_check(d).passed
        T = api.canonical_triangulate(d)
        canonical = api.is_canonical(T.drawing)
        again = api.canonical_triangulate(T.drawing)
        g = T.base
        api.find_configuration(g)
        for v in range(T.drawing.n):
            api.classify_neighbors(T, v)
        obs = api.check_observations(T)
        led0 = api.initial_charges(T)
        led1 = api.apply_rules(T, led0)
        aud = api.audit(led1)
        run = api.color_run(g)
        if traced:
            api.build_elimination_plan(g)
        ver = api.verify_acyclic(g, run.coloring)
        text = api.write_drawing_json(T.drawing)
        item.data["out"].write_text(text, encoding="utf-8")
        return dict(
            valid=valid, bound=bound, T=T, canonical=canonical, again=again, obs=obs,
            led0=led0, led1=led1, audit=aud, coloring=run.coloring, verify=ver, text=text,
        )

    def check(self, item: Item, r: dict) -> list[str]:
        bad = []
        if not (r["valid"] and r["bound"]):
            bad.append("input drawing invalid or over the edge bound")
        if not r["canonical"] or r["again"].drawing != r["T"].drawing:
            bad.append("triangulation not canonical or not idempotent")
        if not r["obs"].ok:
            bad.append("observation errors")
        bad += _discharge_failures(r["led0"], r["led1"], r["audit"])
        bad += _plain_coloring_failures(r["T"].base, r["coloring"], r["verify"])
        return bad

    def digest(self, item: Item, r: dict) -> str:
        transcript = [
            [t.rule, str(t.source), str(t.target), str(t.amount)] for t in r["led1"].transcript
        ]
        return _sha([r["text"], _assignment_doc(r["coloring"].assignment), transcript])


def _discharge_failures(led0, led1, aud) -> list[str]:
    bad = []
    if led0.total() != -8 or led1.total() != -8 or not aud.total_is_minus8:
        bad.append("discharging total is not -8")
    if any(c != 0 for c in led1.face_charges().values()):
        bad.append("a face ends with non-zero charge")
    return bad


def _plain_coloring_failures(g, ec, ver) -> list[str]:
    L = coloring.palette_size(g.max_degree())
    bad = []
    if not ver.ok:
        bad.append("coloring fails verification")
    if ec.palette != L or any(not 0 <= c < L for c in ec.assignment.values()):
        bad.append("coloring uses a color outside 0..L-1")
    return bad


# --------------------------------------------------------------------------
# triangulate-thinned
# --------------------------------------------------------------------------


class TriangulateThinned:
    """Non-canonical drawings: triangulation steps 1-5 really run."""

    name = "triangulate-thinned"
    SHARE = Fraction(1, 2)  # of crossings, then of uncrossed off-tree edges, deleted

    def __init__(self, tiny: bool, workdir: Path):
        fracs = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
        sizes = [30 + 10 * i for i in range(3)] if tiny else [500 + 300 * i for i in range(6)]
        self.specs = [(n, fracs[i % 3]) for i, n in enumerate(sizes)]

    def build(self, seed: int, api) -> list[Item]:
        items = []
        for i, (n, frac) in enumerate(self.specs):
            base = api.gen_random_oneplanar(n, frac, CORPUS_SEED + 200 + i)
            base = thin_drawing(base, self.SHARE, self.SHARE, derive_seed(CORPUS_SEED, i, 1))
            d = relabel(base, derive_seed(seed, i))
            if not api.validate_drawing(d).valid:
                raise RuntimeError(f"thinned drawing {i} is invalid")
            if api.planarization_components(d) != 1:
                raise RuntimeError(f"thinned drawing {i} is disconnected")
            if api.is_canonical(d):
                raise RuntimeError(f"thinned drawing {i} is still canonical")
            text = corpus.write_drawing_json(d)
            items.append(Item(i, f"n{n}-f{frac}", d.base.num_edges, {"text": text}))
        return items

    def run(self, item: Item, api, traced: bool) -> dict:
        d = api.read_drawing_json(item.data["text"])
        T = api.canonical_triangulate(d)
        canonical = api.is_canonical(T.drawing)
        again = api.canonical_triangulate(T.drawing)
        return dict(T=T, canonical=canonical, again=again)

    def check(self, item: Item, r: dict) -> list[str]:
        if not r["canonical"] or r["again"].drawing != r["T"].drawing:
            return ["triangulation not canonical or not idempotent"]
        return []

    def digest(self, item: Item, r: dict) -> str:
        return _sha(corpus.write_drawing_json(r["T"].drawing))


# --------------------------------------------------------------------------
# suite-small
# --------------------------------------------------------------------------

SUITE_FRACTIONS = ("0", "1/8", "1/4", "1/2", "1")
DRAWING_CHECKS = ["validate", "edge-bound", "triangulate", "find-config", "discharge", "color"]
# acyclic chromatic index of the named instances, as the exact oracle finds it
NAMED_CHI_A = {"k3": 3, "k4": 5, "octahedron": 6, "icosahedron": 6, "k6_1planar": 7, "kite": 1}


class SuiteSmall:
    """Acceptance-style corpus, one single-entry manifest per item through
    ``cli.run_suite``: drawing files, graph6 text and desk-size oracle runs."""

    name = "suite-small"

    def __init__(self, tiny: bool, workdir: Path):
        self.drawings, self.graphs, self.desk = (8, 3, 2) if tiny else (160, 30, 12)
        self.workdir = workdir

    def build(self, seed: int, api) -> list[Item]:
        offset = corpus.XorShift64Star(derive_seed(seed, 0)).below(197)
        items: list[Item] = []

        def add(name, spec, checks, edges, **extra):
            entry = {"name": name, "input": spec, "checks": checks}
            items.append(Item(len(items), name, edges, {"manifest": {"entries": [entry]}, **extra}))

        for i in range(self.drawings + self.graphs):
            n = 4 + (7 * i + offset) % 197  # distinct sizes in [4, 200]
            frac = SUITE_FRACTIONS[i % len(SUITE_FRACTIONS)]
            d = api.gen_random_oneplanar(n, Fraction(frac), derive_seed(seed, 1, i))
            if i < self.drawings:
                path = self.workdir / f"suite-{i}.json"
                path.write_text(corpus.write_drawing_json(d), encoding="utf-8")
                add(f"d{i}-n{n}-f{frac}", {"kind": "file", "path": str(path)},
                    DRAWING_CHECKS, d.base.num_edges)
            else:
                text = corpus.write_graph6(d.base)
                add(f"g{i}-n{n}-f{frac}", {"kind": "g6", "text": text},
                    ["find-config", "color"], d.base.num_edges)
        for name in corpus.NAMED_INSTANCES:
            checks = ["oracle"]
            if name in ("octahedron", "icosahedron"):
                checks.append("light-p3")
            if name == "icosahedron":  # the 3-star needs minimum degree 5
                checks.append("light-s3")
            add(name, {"kind": "named", "name": name}, checks,
                corpus.named_instance(name).base.num_edges, chi_a=NAMED_CHI_A[name])
        for i in range(self.desk):
            n = 6 + i % 5
            frac = SUITE_FRACTIONS[i % len(SUITE_FRACTIONS)]
            base = api.gen_random_oneplanar(n, Fraction(frac), CORPUS_SEED + 300 + i)
            d = relabel(base, derive_seed(seed, 2, i))
            path = self.workdir / f"desk-{i}.json"
            path.write_text(corpus.write_drawing_json(d), encoding="utf-8")
            add(f"desk{i}-n{n}-f{frac}", {"kind": "file", "path": str(path)},
                ["validate", "oracle"], d.base.num_edges)
        return items

    def run(self, item: Item, api, traced: bool) -> dict:
        with _cli_calls(api, traced):
            report = api.run_suite(item.data["manifest"])
        return dict(report=report)

    def check(self, item: Item, r: dict) -> list[str]:
        report = r["report"]
        bad = []
        if report["failures"] != 0:
            bad.append(f"{report['failures']} suite check failures")
        results = report["entries"][0]["results"]
        want = item.data["manifest"]["entries"][0]["checks"]
        if [c["check"] for c in results] != want or any(c["status"] != "pass" for c in results):
            bad.append("a check did not pass")
        if "chi_a" in item.data:
            got = [c["detail"].get("chi_a") for c in results if c["check"] == "oracle"]
            if got != [item.data["chi_a"]]:
                bad.append(f"oracle gave {got}, expected {item.data['chi_a']}")
        return bad

    def digest(self, item: Item, r: dict) -> str:
        entry = r["report"]["entries"][0]
        statuses = [
            [c["check"], c["status"], c["detail"].get("chi_a")] for c in entry["results"]
        ]
        return _sha([entry["input_digest"], statuses])


@contextmanager
def _cli_calls(api, traced: bool):
    """Route the suite runner's calls into the other layers through ``api``."""
    if not traced:
        yield
        return

    def color_then_plan(g, *args, **kwargs):
        ec = api.acyclic_edge_color(g, *args, **kwargs)
        api.build_elimination_plan(g)  # traced runs only: the plan timed by itself
        return ec

    saved = {}
    for attr in vars(api):
        if attr != "run_suite" and hasattr(cli, attr):
            saved[attr] = getattr(cli, attr)
            setattr(cli, attr, getattr(api, attr))
    cli.acyclic_edge_color = color_then_plan
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


# --------------------------------------------------------------------------
# lists-witness
# --------------------------------------------------------------------------


class ListsWitness:
    """List coloring from seeded lists, then the verifier's witness path."""

    name = "lists-witness"
    KITES = 32

    def __init__(self, tiny: bool, workdir: Path):
        self.sizes = [30, 40] if tiny else [600, 900, 1200]

    def build(self, seed: int, api) -> list[Item]:
        items = []
        for i, n in enumerate(self.sizes):
            base = api.gen_random_oneplanar(n, Fraction(1, 2), CORPUS_SEED + 100 + i)
            d = relabel(base, derive_seed(seed, i))
            if not api.is_canonical(d):
                raise RuntimeError(f"drawing {i} is not canonical; its kites are undefined")
            L = coloring.palette_size(d.base.max_degree())
            lists = color_lists(d.base, L, derive_seed(seed, i, 1))
            kites = pick_disjoint_kites(d, self.KITES, derive_seed(seed, i, 2))
            data = {"text": corpus.write_drawing_json(d), "lists": lists, "kites": kites, "L": L}
            items.append(Item(i, f"n{n}-f1/2", d.base.num_edges, data))
        return items

    def run(self, item: Item, api, traced: bool) -> dict:
        d = api.read_drawing_json(item.data["text"])
        valid = api.validate_drawing(d).valid
        g = d.base
        ec = api.acyclic_edge_color_lists(g, item.data["lists"])
        ver = api.verify_acyclic(g, ec)
        fresh = 2 * item.data["L"]  # list colors come from 0..2L-1
        assignment, pairs = inject_kites(ec.assignment, item.data["kites"], fresh)
        wit = api.verify_witness(g, coloring.EdgeColoring(assignment, ec.palette))
        return dict(valid=valid, coloring=ec, verify=ver, assignment=assignment,
                    pairs=pairs, witness=wit, fresh=fresh)

    def check(self, item: Item, r: dict) -> list[str]:
        bad = []
        lists = item.data["lists"]
        ec = r["coloring"]
        if not r["valid"]:
            bad.append("input drawing invalid")
        if not r["verify"].ok:
            bad.append("list coloring fails verification")
        if ec.palette != item.data["L"] or any(c not in lists[e] for e, c in ec.assignment.items()):
            bad.append("a color is not in its edge's list")
        wit = r["witness"]
        found = {(a, b) for a, b, _ in wit.bichromatic_cycles}
        if wit.ok or not set(r["pairs"]) <= found:
            bad.append("an injected bichromatic cycle was not reported")
        for a, b, cyc in wit.bichromatic_cycles:
            if max(a, b) < r["fresh"] or not alternates(cyc, r["assignment"], a, b):
                bad.append(f"witness for pair {(a, b)} is not a fresh two-colored cycle")
        return bad

    def digest(self, item: Item, r: dict) -> str:
        found = sorted([a, b] for a, b, _ in r["witness"].bichromatic_cycles)
        return _sha([_assignment_doc(r["coloring"].assignment), found])


WORKLOADS = {w.name: w for w in (PipelineLarge, TriangulateThinned, SuiteSmall, ListsWitness)}
