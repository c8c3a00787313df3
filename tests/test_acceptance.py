"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The corpus is the fixed 1000-drawing family from conftest (n in [4, 200],
fractions cycling 0, 1/8, 1/4, 1/2, 1, seed = index).  Run with -s to see
the per-criterion lines; every tolerance here is exact unless a wall-clock
budget is stated.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from oneplanar import (
    acyclic_edge_color,
    acyclic_edge_color_lists,
    apply_rules,
    audit,
    canonical_triangulate,
    color_run,
    edge_bound_check,
    find_configuration,
    find_light_path3,
    find_light_star3,
    initial_charges,
    is_canonical,
    named_instance,
    oracle_chi_a,
    palette_size,
    validate_drawing,
    verify_acyclic,
)
from oneplanar.cli import run_suite
from oneplanar.corpus import XorShift64Star, write_graph6
from oneplanar.structure import ConfigurationNotFound
from oneplanar.triangulation import StepFourDeadlock

from conftest import complete_graph, cycle_graph, path_graph, star_graph, without_uncrossed_edges


def _report(name: str, ok: bool, extra: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{' (' + extra + ')' if extra else ''}")
    assert ok


def test_c1_edge_bound(corpus_drawings):
    drawings, gen_elapsed = corpus_drawings
    t0 = time.perf_counter()
    ok = all(validate_drawing(d).valid for d in drawings)
    ok = ok and all(edge_bound_check(d).passed for d in drawings)
    elapsed = gen_elapsed + time.perf_counter() - t0
    ok = ok and len(drawings) == 1000 and elapsed < 30
    _report("C1 edge bound over 1000 drawings", ok, f"{elapsed:.1f}s")


def test_c2_canonical_triangulation(corpus_drawings, corpus_canonical):
    drawings, _ = corpus_drawings
    ts, tri_elapsed = corpus_canonical
    t0 = time.perf_counter()
    outputs = [T.drawing for T in ts]
    changed = sum(T.drawing != d for T, d in zip(ts, drawings))
    # the generated corpus is canonical already, so thinned copies of every
    # 10th drawing are what run steps 1-5
    thinned_changed = deadlocks = 0
    for d in drawings[::10]:
        thin = without_uncrossed_edges(d, 3)
        try:
            T = canonical_triangulate(thin)
        except StepFourDeadlock:
            deadlocks += 1
            continue
        thinned_changed += T.drawing != thin
        outputs.append(T.drawing)
    ok = all(is_canonical(out) for out in outputs)
    idem = all(canonical_triangulate(out).drawing == out for out in outputs)
    elapsed = tri_elapsed + time.perf_counter() - t0
    ok = ok and idem and thinned_changed > 0 and deadlocks == 0 and elapsed < 60
    _report(
        "C2 canonical triangulation",
        ok,
        f"{elapsed:.1f}s, changed {changed} of {len(drawings)} corpus drawings and "
        f"{thinned_changed} of {len(drawings[::10])} thinned copies, {deadlocks} deadlocks",
    )


def test_c3_configuration_completeness(corpus_drawings):
    drawings, _ = corpus_drawings
    ok = True
    for d in drawings:
        find_configuration(d.base)
    for name in ("octahedron", "icosahedron", "k6_1planar"):
        find_configuration(named_instance(name).base)
    for k in (9, 10):
        with pytest.raises(ConfigurationNotFound):
            find_configuration(complete_graph(k))
    _report("C3 configuration completeness + K9/K10 NotFound", ok)


def test_c4_light_subgraphs(corpus_drawings):
    drawings, _ = corpus_drawings
    checked = 0
    for d in drawings:
        g = d.base
        if g.min_degree() >= 4:
            u, v, w = find_light_path3(g)
            assert g.has_edge(u, v) and g.has_edge(v, w)
            assert max(g.degree(x) for x in (u, v, w)) <= 35
            checked += 1
    for name in ("octahedron", "icosahedron"):
        g = named_instance(name).base
        u, v, w = find_light_path3(g)
        assert max(g.degree(x) for x in (u, v, w)) <= 35
    ig = named_instance("icosahedron").base
    c, leaves = find_light_star3(ig)
    assert max(ig.degree(x) for x in (c, *leaves)) <= 35
    _report("C4 light subgraphs", True, f"{checked} corpus graphs with min degree >= 4")


def test_c5_discharging(corpus_canonical):
    ts, _ = corpus_canonical
    ok = True
    for T in ts:
        led0 = initial_charges(T)
        ok = ok and led0.total() == -8
        led1 = apply_rules(T, led0)
        ok = ok and led1.total() == -8
        ok = ok and set(led1.face_charges().values()) <= {Fraction(0)}
    for name, want in (("octahedron", Fraction(-4, 3)), ("icosahedron", Fraction(-2, 3))):
        T = canonical_triangulate(named_instance(name))
        led = apply_rules(T, initial_charges(T))
        ok = ok and set(led.vertex_charges().values()) == {want}
    _report("C5 discharging totals and face zeroing", ok)


def test_c6_coloring_soundness(corpus_drawings):
    drawings, _ = corpus_drawings
    t0 = time.perf_counter()
    ok = True
    for d in drawings:
        ec = acyclic_edge_color(d.base)  # ExtensionFailed would propagate
        rep = verify_acyclic(d.base, ec)
        ok = ok and rep.ok and ec.num_colors() <= palette_size(d.base.max_degree())
    for name in ("k3", "k4", "octahedron", "icosahedron", "k6_1planar", "kite"):
        g = named_instance(name).base
        ec = acyclic_edge_color(g)
        ok = ok and verify_acyclic(g, ec).ok and ec.num_colors() <= ec.palette
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    _report("C6 coloring soundness, zero ExtensionFailed", ok, f"{elapsed:.1f}s")


def test_c7_oracle_cross_check():
    t0 = time.perf_counter()
    suite = (
        [(f"C{k}", cycle_graph(k)) for k in range(3, 9)]
        + [(f"P{k}", path_graph(k)) for k in range(2, 9)]
        + [(f"S{k}", star_graph(k)) for k in range(1, 8)]
        + [
            ("K4", complete_graph(4)),
            ("K5-e", __import__("oneplanar").AbstractGraph(
                5, [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (3, 4)])),
            ("octahedron", named_instance("octahedron").base),
        ]
    )
    ok = True
    for name, g in suite:
        assert g.n <= 8 or name == "S7"
        limit = palette_size(g.max_degree())
        value = oracle_chi_a(g, limit)
        ok = ok and value is not None and value <= limit
    from oneplanar import AbstractGraph

    ok = ok and oracle_chi_a(complete_graph(3), 5) == 3
    ok = ok and oracle_chi_a(cycle_graph(4), 5) == 3
    ok = ok and oracle_chi_a(path_graph(3), 5) == 2
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    _report("C7 oracle cross-check", ok, f"{elapsed:.1f}s")


def test_c8_list_variant(corpus_drawings):
    drawings, _ = corpus_drawings
    ok = True
    for d in drawings[::40]:  # 25 corpus graphs: full-palette equivalence
        g = d.base
        L = palette_size(g.max_degree())
        full = {e: range(L) for e in g.edges}
        ok = ok and acyclic_edge_color(g).assignment == acyclic_edge_color_lists(g, full).assignment
    for idx, d in enumerate(drawings[::100]):  # 10 corpus graphs: random lists of size L
        g = d.base
        L = palette_size(g.max_degree())
        rng = XorShift64Star(idx + 1)
        lists = {}
        for e in sorted(g.edges):
            pool = list(range(2 * L))
            lists[e] = [pool.pop(rng.below(len(pool))) for _ in range(L)]
        ec = acyclic_edge_color_lists(g, lists)
        ok = ok and verify_acyclic(g, ec).ok
        ok = ok and all(ec.assignment[e] in set(lists[e]) for e in g.edges)
    _report("C8 list variant", ok)


def test_c9_run_suite_determinism(tmp_path):
    k9 = complete_graph(9)
    manifest = {
        "entries": [
            {
                "name": "octahedron",
                "input": {"kind": "named", "name": "octahedron"},
                "checks": ["validate", "edge-bound", "triangulate", "find-config",
                           "light-p3", "discharge", "color", "oracle"],
            },
            {
                "name": "gen-80",
                "input": {"kind": "gen", "generator": "random_oneplanar",
                          "n": 80, "seed": 3, "fraction": "1/4"},
                "checks": ["validate", "edge-bound", "triangulate", "discharge", "color"],
            },
            {"name": "k9", "input": {"kind": "g6", "text": write_graph6(k9)},
             "checks": ["find-config"]},
        ]
    }

    def strip(o):
        if isinstance(o, dict):
            return {k: strip(v) for k, v in o.items() if k != "elapsed_s"}
        if isinstance(o, list):
            return [strip(x) for x in o]
        return o

    rep1 = run_suite(manifest)
    rep2 = run_suite(manifest)
    b1 = json.dumps(strip(rep1), sort_keys=True).encode()
    b2 = json.dumps(strip(rep2), sort_keys=True).encode()
    ok = b1 == b2 and rep1["failures"] == 1  # the K9 entry fails by design
    _report("C9 run-suite determinism (modulo timing)", ok)
