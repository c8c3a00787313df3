from __future__ import annotations

import dataclasses
import gc
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneplanar import (
    AbstractGraph,
    acyclic_edge_color,
    acyclic_edge_color_lists,
    build_elimination_plan,
    color_run,
    gen_random_oneplanar,
    named_instance,
    oracle_chi_a,
    palette_size,
    verify_acyclic,
)
from oneplanar import coloring
from oneplanar.coloring import (
    EdgeColoring,
    ExtensionFailed,
    ListTooSmall,
    PlanStep,
    _PALETTE_SLACK,
    _extend_step,
    _State,
)
from oneplanar.corpus import XorShift64Star
from oneplanar.structure import CEILINGS, ConfigurationNotFound

from conftest import complete_graph, cycle_graph, path_graph, star_graph


def test_palette_size_values():
    assert palette_size(5) == 88
    assert palette_size(85) == 168  # crossover point: 2d-2 = d+83
    assert palette_size(100) == 198
    assert palette_size(0) == 83
    assert palette_size(2) == 85


def test_palette_slack_is_derived_from_the_ceilings():
    # 1 + sum of (c - 1) over CEILINGS = 1 + 7 + 10 + 13 + 18 + 34
    assert CEILINGS == (8, 11, 14, 19, 35)
    assert _PALETTE_SLACK == 83
    assert all(palette_size(m) == max(2 * m - 2, m + 83) for m in range(200))


def test_plan_path3():
    plan = build_elimination_plan(path_graph(3))
    assert [s.case for s in plan.steps] == ["deg2"] * 3
    assert [len(s.neighbors) for s in plan.steps] == [1, 1, 0]


def test_plan_icosahedron_first_step():
    plan = build_elimination_plan(named_instance("icosahedron").base)
    first = plan.steps[0]
    assert first.case == "config" and first.kind == "C4" and first.vertex == 0
    assert first.aux == (first.neighbors[-2], first.neighbors[-1])


def test_plan_c4_aux_added():
    plan = build_elimination_plan(cycle_graph(4))
    first = plan.steps[0]
    assert first.vertex == 0 and first.case == "deg2"
    assert first.aux == (1, 3) and first.aux_added


def test_plan_k9_not_found():
    with pytest.raises(ConfigurationNotFound):
        build_elimination_plan(complete_graph(9))


def test_plan_replays_to_empty_graph(corpus_drawings):
    drawings, _ = corpus_drawings
    for d in drawings[:25]:
        g = d.base
        plan = build_elimination_plan(g)
        adj = {v: set(g.neighbors(v)) for v in range(g.n)}
        for s in plan.steps:
            assert set(s.neighbors) == adj[s.vertex]
            if s.case == "config":
                assert 3 <= len(s.neighbors) <= 7
            else:
                assert len(s.neighbors) <= 2
            for u in s.neighbors:
                adj[u].discard(s.vertex)
            del adj[s.vertex]
            if s.aux_added:
                a, b = s.aux
                assert b not in adj[a]
                adj[a].add(b)
                adj[b].add(a)
        assert all(not v for v in adj.values())


def test_star_coloring():
    g = star_graph(3)
    ec = acyclic_edge_color(g)
    assert ec.num_colors() == 3
    assert verify_acyclic(g, ec).ok


def test_c4_coloring_bounds():
    g = cycle_graph(4)
    ec = acyclic_edge_color(g)
    rep = verify_acyclic(g, ec)
    assert rep.ok
    assert 3 <= ec.num_colors() <= ec.palette == 85
    assert oracle_chi_a(g, 10) == 3  # 3 is genuinely required


def test_k6_coloring():
    g = named_instance("k6_1planar").base
    ec = acyclic_edge_color(g)
    assert verify_acyclic(g, ec).ok and ec.palette == 88
    assert ec.num_colors() <= 88


def test_named_instances_color(corpus_drawings):
    for name in ("k3", "k4", "octahedron", "icosahedron", "k6_1planar", "kite"):
        g = named_instance(name).base
        ec = acyclic_edge_color(g)
        assert verify_acyclic(g, ec).ok
        assert ec.num_colors() <= ec.palette


def test_isolated_and_pendant_vertices():
    g = AbstractGraph(5, [(0, 1), (1, 2)])  # vertex 3, 4 isolated
    ec = acyclic_edge_color(g)
    assert verify_acyclic(g, ec).ok and len(ec.assignment) == 2


def test_verify_detects_bichromatic_cycle():
    g = cycle_graph(4)
    bad = EdgeColoring({(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}, 85)
    rep = verify_acyclic(g, bad)
    assert not rep.ok
    assert len(rep.bichromatic_cycles) == 1
    a, b, cyc = rep.bichromatic_cycles[0]
    assert (a, b) == (1, 2) and sorted(cyc) == [0, 1, 2, 3]
    assert rep.bichromatic_cycles == ((1, 2, (0, 1, 2, 3)),)


def test_verify_witness_contract():
    # (1,2): two disjoint cycles, 3-8-4-9 and 1-5-2-6; (1,3): one cycle
    # 0-12-11-10; (2,3): only paths (14-10-0 and 2-5-13).  One entry per
    # cyclic pair, pairs ascending, each cycle from the smallest vertex on
    # any cycle of its pair, walked color a first.
    colors = {
        (3, 8): 1, (4, 8): 2, (4, 9): 1, (3, 9): 2,
        (1, 6): 2, (2, 6): 1, (2, 5): 2, (1, 5): 1,
        (0, 10): 3, (10, 11): 1, (11, 12): 3, (0, 12): 1,
        (10, 14): 2, (5, 13): 3,
    }
    g = AbstractGraph(15, list(colors))
    rep = verify_acyclic(g, EdgeColoring(colors, 85))
    assert not rep.ok and not (rep.missing_edges or rep.unknown_edges or rep.properness_violations)
    assert rep.bichromatic_cycles == ((1, 2, (1, 5, 2, 6)), (1, 3, (0, 12, 11, 10)))


def test_verify_ignores_colored_non_edges_in_cycle_search():
    # (0,2) is not an edge of the path; it closes no cycle of the graph
    g = path_graph(3)
    rep = verify_acyclic(g, EdgeColoring({(0, 1): 0, (1, 2): 1, (0, 2): 0}, 85))
    assert not rep.ok and rep.unknown_edges == ((0, 2),) and rep.bichromatic_cycles == ()
    # a real cycle is still reported next to a colored non-edge
    g = cycle_graph(4)
    bad = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2, (0, 2): 1, (1, 7): 2}
    rep = verify_acyclic(g, EdgeColoring(bad, 85))
    assert rep.unknown_edges == ((0, 2), (1, 7)) and rep.bichromatic_cycles == ((1, 2, (0, 1, 2, 3)),)


def test_verify_accepts_acyclic():
    g = cycle_graph(4)
    good = EdgeColoring({(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 3}, 85)
    assert verify_acyclic(g, good).ok


def test_verify_detects_properness_violation():
    g = path_graph(3)
    bad = EdgeColoring({(0, 1): 0, (1, 2): 0}, 85)
    rep = verify_acyclic(g, bad)
    assert not rep.ok and rep.properness_violations == (((0, 1), (1, 2)),)


def test_verify_detects_missing_edge():
    g = path_graph(3)
    rep = verify_acyclic(g, EdgeColoring({(0, 1): 0}, 85))
    assert not rep.ok and rep.missing_edges == ((1, 2),)


def test_oracle_hand_facts():
    assert oracle_chi_a(complete_graph(3), 5) == 3
    assert oracle_chi_a(cycle_graph(4), 5) == 3
    assert oracle_chi_a(path_graph(3), 5) == 2
    assert oracle_chi_a(AbstractGraph(3, []), 5) == 0


def test_oracle_exceeded():
    assert oracle_chi_a(complete_graph(4), 3) is None


def test_oracle_known_small_values():
    # independent brute force agreed on these during development
    assert oracle_chi_a(complete_graph(4), 8) == 5
    assert oracle_chi_a(cycle_graph(5), 8) == 3
    assert oracle_chi_a(star_graph(5), 8) == 5
    k33 = AbstractGraph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert oracle_chi_a(k33, 8) == 5


def test_full_palette_lists_identical():
    for g in (cycle_graph(4), named_instance("octahedron").base, star_graph(3)):
        L = palette_size(g.max_degree())
        full = {e: range(L) for e in g.edges}
        assert acyclic_edge_color(g).assignment == acyclic_edge_color_lists(g, full).assignment


def test_disjoint_lists_star():
    g = star_graph(3)
    L = palette_size(g.max_degree())
    lists = {e: range(i * L, (i + 1) * L) for i, e in enumerate(sorted(g.edges))}
    ec = acyclic_edge_color_lists(g, lists)
    assert verify_acyclic(g, ec).ok
    assert all(ec.assignment[e] in set(lists[e]) for e in g.edges)


def test_adversarial_equal_lists_c4():
    g = cycle_graph(4)
    L = palette_size(g.max_degree())
    lists = {e: range(100, 100 + L) for e in g.edges}
    ec = acyclic_edge_color_lists(g, lists)
    assert verify_acyclic(g, ec).ok
    assert all(100 <= c < 100 + L for c in ec.assignment.values())


def test_random_lists_respected():
    g = named_instance("k6_1planar").base
    L = palette_size(g.max_degree())
    rng = XorShift64Star(99)
    lists = {}
    for e in sorted(g.edges):
        pool = list(range(2 * L))
        lists[e] = [pool.pop(rng.below(len(pool))) for _ in range(L)]
    ec = acyclic_edge_color_lists(g, lists)
    assert verify_acyclic(g, ec).ok
    assert all(ec.assignment[e] in set(lists[e]) for e in g.edges)


def test_list_too_small_rejected():
    g = cycle_graph(4)
    L = palette_size(g.max_degree())
    lists = {e: range(L - 1) for e in g.edges}
    with pytest.raises(ListTooSmall):
        acyclic_edge_color_lists(g, lists)
    with pytest.raises(ListTooSmall):
        acyclic_edge_color_lists(g, {})


def test_admissible_set_sizes_monotone_before_exclusions(corpus_drawings):
    # the suffix unions shrink along the edge order, so the sets before
    # removing already-placed colors grow; the executed sets may dip by at
    # most one per placed color
    drawings, _ = corpus_drawings
    for d in drawings[:50]:
        run = color_run(d.base)
        for s in run.step_stats:
            if s.t1_size is None or not s.middle_raw_sizes:
                continue
            raw = [s.t1_size] + s.middle_raw_sizes
            assert all(raw[j] <= raw[j + 1] for j in range(len(raw) - 1))
            executed = [s.t1_size] + s.middle_sizes
            assert all(executed[j] - 1 <= executed[j + 1] for j in range(len(executed) - 1))


def test_bound_diagnostics_clean_on_corpus(corpus_drawings):
    drawings, _ = corpus_drawings
    for d in drawings[:50]:
        run = color_run(d.base)
        for s in run.step_stats:
            if s.t1_size is not None:
                assert min(s.t1_size, s.td_size) >= s.literal_bound > 0


def test_deterministic_assignment():
    g = named_instance("icosahedron").base
    assert acyclic_edge_color(g).assignment == acyclic_edge_color(g).assignment


# (n, crossing fraction, seed) of the drawings whose coloring runs are pinned
PIN_SPECS = [
    (10, Fraction(0), 11),
    (40, Fraction(1, 4), 12),
    (90, Fraction(1, 2), 13),
    (150, Fraction(1), 14),
    (250, Fraction(1, 4), 15),
    (400, Fraction(1, 2), 16),
]


def _seeded_lists(g: AbstractGraph, seed: int) -> dict:
    """Per-edge lists of L colors drawn from 0..2L-1."""
    L = palette_size(g.max_degree())
    rng = XorShift64Star(seed)
    lists = {}
    for e in sorted(g.edges):
        pool = list(range(2 * L))
        lists[e] = [pool.pop(rng.below(len(pool))) for _ in range(L)]
    return lists


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _pin_digests(n: int, frac: Fraction, seed: int, with_lists: bool) -> tuple[str, str, str]:
    g = gen_random_oneplanar(n, frac, seed).base
    run = color_run(g, _seeded_lists(g, seed) if with_lists else None)
    return (
        _sha(sorted(run.coloring.assignment.items())),
        _sha(run.plan.steps),
        _sha([dataclasses.asdict(s) for s in run.step_stats]),
    )


# sha256 of (sorted assignment, plan steps, asdict of every StepStats)
PINNED_RUNS = {
    (10, False): (
        "c91eb9ee862bd43e7018e091426032f9dc2b1873fb9c16e7dbec601b1363a518",
        "44aa6caf058c3b856ce1cec57f4deac4b5f02cebd93cd02783ade37a64adc877",
        "2a93d1ab9bb825ab7144424739ccd1ea5e59b1d32da0c5de6d989e21629c1b09",
    ),
    (10, True): (
        "66333bb507e5076085ae40087f97e953ae52f8f31d6a311c0c92fc7888f2b324",
        "44aa6caf058c3b856ce1cec57f4deac4b5f02cebd93cd02783ade37a64adc877",
        "8c0189d53b6daca9384be81c62c79de8927d5a8d1e0871914bf2c2136f2df671",
    ),
    (40, False): (
        "a97ada79c22dadd4444c0ac7acf80440880ee20b2330a7b10f6d059e0e1daef9",
        "af204c28dca7909e60329750300d618d2a0ce0c3e4ec2d8ac0899cfdcf6a8463",
        "c9f5ea0a8028a266f0e9adabfe639e517b68a0a5c6e97b2dfbce8e2493de6163",
    ),
    (40, True): (
        "4c415df4990deede8ef6eebc43f23c6666515ae3feadb0c6b5e943539542f6a9",
        "af204c28dca7909e60329750300d618d2a0ce0c3e4ec2d8ac0899cfdcf6a8463",
        "c9699bbb013f241b5335f08b7cc9ec93e280dd7e5f1a2c73832deef89e6a88bc",
    ),
    (90, False): (
        "6bde5ead979a5358650602d3748a4aa0ead7b4571925c6d775cf9d40ab3473b1",
        "aa2eefb1c9caeeb0c6d1f7b49092622575b89289d32843223bfd8ac2f4968cf3",
        "33f531f561426272d86b5c6db6ae821b33769c8f2ef8f128c921544f11c9a36d",
    ),
    (90, True): (
        "461451a0130baf517844f2b85c8879e4fbeb501f0ea41ea715e7b7062d69ad38",
        "aa2eefb1c9caeeb0c6d1f7b49092622575b89289d32843223bfd8ac2f4968cf3",
        "b0ec3a3f675928822e478c4aa4e0dc2c2c7b66cdc34321dc1ad9c8c3c5969703",
    ),
    (150, False): (
        "da9b7d15fa29757be44141c2cdc26415c587f3d4b07aec44f9f5980e2b7d3357",
        "7199ad6488dbaf81f9f1dca2aa799255318ee2b4fdb238b1d2e45249db643097",
        "f76d94d264ff4aea6178bb2a16544c4112117864f187728ef258ebdf97a02c56",
    ),
    (150, True): (
        "a4fab3bb0fcbd8a7c96e6c14d5154af1c31427bc17ffe9e63a16fae40530551e",
        "7199ad6488dbaf81f9f1dca2aa799255318ee2b4fdb238b1d2e45249db643097",
        "a4611689759a25272d7915158c45b5263302b0ae5b868bf52ccc8aa6a00f0b08",
    ),
    (250, False): (
        "67e78976cb271ff5b95d6a1cdc930bc9bd0a12d1ff18b034567a7048e3530bf8",
        "b80683827f12cca758e15d47db268feee4c560b10ca20d8c08e6b4282120f7b9",
        "5319ceba1980e579294bc170569f3c43fca507eaceefaa4f763185a70f7da839",
    ),
    (250, True): (
        "73536277bd5e44512ba56e03f3ea1d2045c0d9a95264e30f9e67ffa37c20aabc",
        "b80683827f12cca758e15d47db268feee4c560b10ca20d8c08e6b4282120f7b9",
        "a87a48ffaa308c444d8acb7801e40642eb0d618a6bfbfe7b274ff9421323ce26",
    ),
    (400, False): (
        "f66ddef103711d0833e91b90103ca4fa80fbeef4ca58621db4921002b21f0f9c",
        "bbe809b7f5dd9cdcc7d1bf7284e27837c2d11150224dda041f5a440bb5665365",
        "c89381c28b0c59eb4bb75175339d78e623766c20d7f8c2c3461ff9153581f1e8",
    ),
    (400, True): (
        "5a95024ef63fadfa031cec999bcf515afd61567dbf676925f2d7fb980fb8bc36",
        "bbe809b7f5dd9cdcc7d1bf7284e27837c2d11150224dda041f5a440bb5665365",
        "518f18d5927107bb46f4266f6f6fb892b2e70c670ecb96616fce826412c68d07",
    ),
}


def test_pinned_runs_cover_aux_and_wide_steps():
    plans = [build_elimination_plan(gen_random_oneplanar(*spec).base) for spec in PIN_SPECS]
    assert any(s.aux_added for p in plans for s in p.steps)
    assert any(len(s.neighbors) > 3 for p in plans for s in p.steps)
    assert {spec[1] for spec in PIN_SPECS} == {Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)}


@pytest.mark.parametrize("with_lists", [False, True], ids=["plain", "lists"])
@pytest.mark.parametrize("spec", PIN_SPECS, ids=lambda s: f"n{s[0]}-f{s[1]}")
def test_color_run_outputs_pinned(spec, with_lists):
    assert _pin_digests(*spec, with_lists) == PINNED_RUNS[(spec[0], with_lists)]


def test_zero_budget_extension_failure_pinned(monkeypatch):
    g = gen_random_oneplanar(*PIN_SPECS[0]).base
    monkeypatch.setattr(coloring, "BACKTRACK_BUDGET", 0)
    with pytest.raises(ExtensionFailed) as info:
        color_run(g)
    err = info.value
    assert (err.step_index, err.vertex, str(err)) == (
        8,
        4,
        "extension failed at step 8 (vertex 4): backtracking budget 0 exhausted",
    )


def test_color_run_leaves_no_cyclic_garbage():
    # each step's admissible sets must die with the step, not wait for the
    # cyclic collector (they would raise the peak memory of long runs)
    g = gen_random_oneplanar(*PIN_SPECS[3]).base
    lists = _seeded_lists(g, PIN_SPECS[3][2])
    gc.collect()
    gc.disable()
    try:
        color_run(g)
        color_run(g, lists)
        assert gc.collect() == 0
    finally:
        gc.enable()


# vertex 0 returns with neighbors (1, 2) under L = 3: the first edge (to 1)
# avoids the colors at 1 and 2, the second (to 2) the colors at 2 and the
# first edge's color, and 2 already carries every color the second may take
@pytest.mark.parametrize(
    "colored, aux_added, edge_lists, n_first",
    [
        ([(1, 3, 0), (2, 4, 0), (2, 5, 1)], False, None, 1),
        ([(1, 3, 0), (2, 4, 0), (2, 5, 1)], False, {(0, 1): (0, 2, 5), (0, 2): (0, 1)}, 2),
        ([(1, 2, 0), (2, 4, 1), (2, 5, 2)], True, None, 1),
    ],
    ids=["palette", "lists", "aux"],
)
def test_exhausted_admissible_sets_message(colored, aux_added, edge_lists, n_first):
    state = _State(6)
    for u, v, c in colored:
        state.assign(u, v, c)
    step = PlanStep(0, "deg2", None, (1, 2), (1, 2), aux_added)
    with pytest.raises(ExtensionFailed) as info:
        _extend_step(state, step, 5, 3, 3, edge_lists)
    assert str(info.value) == (
        "extension failed at step 5 (vertex 0): admissible sets exhausted "
        f"(first-edge candidates: {n_first}, degree 2)"
    )


def test_literal_bound_uses_the_centers_own_ceilings():
    # a degree-3 center 0 with neighbors 1, 2, 3 (degrees 35, 37, 60 = maxdeg)
    # returns under L = 143; the colors already at its neighbors leave the
    # last-edge set 50 colors, above the degree-3 guarantee
    # 143 - ((35 - 1) + 60) = 49 but below the 76 that a degree-7 center's
    # first ceiling (8) would promise
    state = _State(133)
    leaves = iter(range(4, 133))
    for u, colors in ((1, range(0, 34)), (2, range(34, 70)), (3, range(34, 93))):
        for c in colors:
            state.assign(u, next(leaves), c)
    step = PlanStep(0, "config", "C2", (1, 2, 3), (2, 3), False)
    stats = _extend_step(state, step, 0, palette_size(60), 60, None)
    assert (stats.t1_size, stats.td_size, stats.literal_bound) == (72, 50, 49)
    assert [state.colors[0][c] for c in (0, 93, 70)] == [2, 3, 1]


def test_admissible_set_size_bound_violation_is_reported():
    # the center of the test above, with two more colors at its last
    # neighbor 3: v_1 and v_d then carry 95 distinct colors, more than the
    # L - literal_bound = 143 - 49 = 94 the ceilings allow, and with the
    # first edge's color 0 the last-edge set keeps only 48 of 143
    state = _State(135)
    leaves = iter(range(4, 135))
    for u, colors in ((1, range(0, 34)), (2, range(34, 70)), (3, range(34, 95))):
        for c in colors:
            state.assign(u, next(leaves), c)
    step = PlanStep(0, "config", "C2", (1, 2, 3), (2, 3), False)
    with pytest.raises(ExtensionFailed) as info:
        _extend_step(state, step, 9, palette_size(60), 60, None)
    err = info.value
    assert (err.step_index, err.vertex, str(err)) == (
        9,
        0,
        "extension failed at step 9 (vertex 0): admissible-set size bound violated: "
        "last-edge set has 48 colors, guarantee is 49",
    )


def test_empty_admissible_set_under_a_small_palette_is_a_size_bound_violation():
    # a degree-3 center 0 with neighbors 1, 2, 3 under L = 10: neighbor 1
    # carries 9 colors and neighbor 3 the tenth, far more than their ceilings
    # allow at this palette, so literal_bound is 10 - (34 + 10) < 0 and only
    # the emptiness test can catch the last-edge set, which the first edge's
    # color 0 empties; backing up instead would end in "admissible sets exhausted"
    state = _State(14)
    for c in range(9):
        state.assign(1, 4 + c, c)
    state.assign(3, 13, 9)
    step = PlanStep(0, "config", "C2", (1, 2, 3), (2, 3), False)
    with pytest.raises(ExtensionFailed) as info:
        _extend_step(state, step, 2, 10, 10, None)
    assert str(info.value) == (
        "extension failed at step 2 (vertex 0): admissible-set size bound violated: "
        "last-edge set has 0 colors, guarantee is -34"
    )


def test_replay_backs_up_and_recolors_an_earlier_edge():
    # a degree-4 center 0 returns with neighbors (1, 2, 3, 4) and uncolored
    # surroundings, so its edges go to 3, 4, 1, 2 and each draws from its own
    # list minus the colors this step has placed: 3 takes 0 and 4 takes 1;
    # 1 then has only 3 left, which empties the list (1, 3) of the middle
    # position 2.  The search backs up past 1 to re-color 4 with 2, after
    # which 1 takes 1 and 2 takes 3.  The middle sizes are those of the
    # first entry (empty); t1_size is that of the last entry.
    lists = {(0, 3): (0,), (0, 4): (1, 2), (0, 1): (1, 3), (0, 2): (1, 3)}
    state = _State(5)
    step = PlanStep(0, "config", "C3", (1, 2, 3, 4), (3, 4), False)
    stats = _extend_step(state, step, 0, 4, 4, lists)
    assert state.colors[0] == {0: 3, 2: 4, 1: 1, 3: 2}
    assert stats.attempts == 6
    assert (stats.td_size, stats.t1_size) == (2, 2)
    assert (stats.middle_sizes, stats.middle_raw_sizes) == ([0], [1])


def test_oracle_within_palette_on_small_corpus_graphs(corpus_drawings):
    drawings, _ = corpus_drawings
    small = [d.base for d in drawings if d.n <= 9]
    assert small
    for g in small:
        assert oracle_chi_a(g, palette_size(g.max_degree())) <= palette_size(g.max_degree())


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return AbstractGraph(n, [e for e, keep in zip(pairs, mask) if keep])


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_coloring_sound_or_not_found(g):
    # arbitrary small graphs: either the plan builder honestly reports that
    # no configuration exists, or the produced coloring verifies
    try:
        ec = acyclic_edge_color(g)
    except ConfigurationNotFound:
        return
    rep = verify_acyclic(g, ec)
    assert rep.ok
    assert ec.num_colors() <= ec.palette
