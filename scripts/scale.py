"""Scaling record of the pipeline layers at n = 1000, 4000 and 16000.

Usage, from the repository root:

    python3 scripts/scale.py -o BENCH_scale.json [--repeats 3]

For each crossing fraction f in FRACTIONS (0, 1/2 and 1) and each n it
generates ``gen_random_oneplanar(n, f, 7)`` and a thinned copy
``thin_drawing(d, 1/2, 1/2, 7)`` (the benchmark's thinning, so that
triangulation steps 1-5 run), then times these layers, each the minimum of
``--repeats`` runs in CPU time (``time.process_time``) and in wall time:

- ``gen``: ``gen_random_oneplanar(n, f, 7)``;
- ``write_json`` and ``read_json``: ``write_drawing_json`` of that drawing
  and ``read_drawing_json`` of its text;
- ``triangulate_thinned``: ``canonical_triangulate`` of the thinned copy,
  its input validation included;
- ``validate``: ``validate_drawing`` of the drawing read back;
- ``census``: ``classify_neighbors`` of every vertex of its (already
  canonical) triangulation;
- ``initial_charges``, ``apply_rules`` and ``audit`` on that triangulation;
- ``color_run`` of its graph, plan included;
- ``verify``: ``verify_acyclic`` of that coloring;
- ``color_lists``: ``color_run`` of the same graph under lists of L colors,
  each edge given one of 64 seeded L-subsets of 0..2L-1; the 64 tuples are
  shared by every edge, so the input holds only O(64 L) colors and
  ``peak_kib`` is the layer's own memory.

A drawing keeps its validation report and face list once computed, so every
repetition re-reads its drawing from JSON text and times a fresh object.
One more pass, untimed, runs every layer under cProfile and records its
``calls``: the number of Python and builtin function calls, a cost that does
not move between runs as times do (work inside one builtin counts once,
whatever its size).  The same pass records ``gc_full``, the number of full
(generation 2) garbage collections that ran inside the layer, read from
``gc.get_stats()`` after a ``gc.collect()`` (a ``gc.callbacks`` hook would
be a Python call that cProfile counts in ``calls``).  A last pass, also
untimed and unprofiled, runs every layer under tracemalloc and records
``peak_kib``, the peak of the memory that Python allocated inside the layer
above what was allocated when it started.  The record holds the times, the
calls, the growth ratio of both per 4x of n, and a SHA-256 digest of every
layer's output, which must not change between repetitions.  This script is
not a gate: it only writes the record.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import platform
import pstats
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from oneplanar import (  # noqa: E402
    apply_rules,
    audit,
    canonical_triangulate,
    classify_neighbors,
    color_run,
    gen_random_oneplanar,
    initial_charges,
    palette_size,
    validate_drawing,
    verify_acyclic,
)
from oneplanar.corpus import XorShift64Star, read_drawing_json, write_drawing_json  # noqa: E402
from perfbench.inputs import thin_drawing  # noqa: E402

SIZES = (1000, 4000, 16000)
FRACTIONS = (Fraction(0), Fraction(1, 2), Fraction(1))
SEED = 7
LAYERS = ("gen", "write_json", "read_json", "triangulate_thinned", "validate", "census",
          "initial_charges", "apply_rules", "audit", "color_run", "verify", "color_lists")
SHAPES = 64


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _timed(fn, *args):
    """fn(*args) with its (cpu, wall) seconds."""
    gc.collect()  # garbage left by earlier layers is not charged to this one
    c0, w0 = time.process_time(), time.perf_counter()
    out = fn(*args)
    return out, (time.process_time() - c0, time.perf_counter() - w0)


def _counted(fn, *args):
    """fn(*args) with (function calls it made, full collections meanwhile)."""
    gc.collect()
    full = gc.get_stats()[2]["collections"]
    profile = cProfile.Profile()
    out = profile.runcall(fn, *args)
    return out, (pstats.Stats(profile).total_calls, gc.get_stats()[2]["collections"] - full)


def _peak(fn, *args):
    """fn(*args) with the peak KiB that Python allocated inside it."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, (round(peak / 1024),)


def _shared_lists(g, L: int) -> dict:
    """Edge -> one of SHAPES seeded L-subsets of 0..2L-1, as shared tuples."""
    rng = XorShift64Star(SEED)
    shapes = []
    for _ in range(SHAPES):
        pool = list(range(2 * L))
        for i in range(L):
            j = i + rng.below(2 * L - i)
            pool[i], pool[j] = pool[j], pool[i]
        shapes.append(tuple(pool[:L]))
    return {e: shapes[rng.below(SHAPES)] for e in g.sorted_edges()}


def _census(T) -> list:
    return [classify_neighbors(T, v) for v in range(T.drawing.n)]


def _one_repetition(n: int, fraction: Fraction, thin_text: str, run=_timed) -> dict[str, tuple]:
    """Every layer once, on fresh drawings, each called through run (_timed,
    _counted or _peak); name -> (digest, what run measured)."""
    out = {}
    d, cost = run(gen_random_oneplanar, n, fraction, SEED)
    text, cost_w = run(write_drawing_json, d)
    out["gen"] = (_digest(text), cost)
    out["write_json"] = (_digest(text), cost_w)
    del d
    d, cost = run(read_drawing_json, text)
    out["read_json"] = (_digest(write_drawing_json(d)), cost)

    T, cost = run(canonical_triangulate, read_drawing_json(thin_text))
    provenance = (T.added_kite_edges, T.removed_duplicates, T.temporarily_removed,
                  T.added_fill_edges)
    out["triangulate_thinned"] = (_digest(write_drawing_json(T.drawing), provenance), cost)
    del T

    rep, cost = run(validate_drawing, d)
    out["validate"] = (_digest(rep.valid, sorted(rep.stats.items())), cost)
    T = canonical_triangulate(d)
    census, cost = run(_census, T)
    out["census"] = (_digest(census), cost)
    del census
    led0, cost = run(initial_charges, T)
    out["initial_charges"] = (_digest(sorted(led0.charges.items(), key=repr)), cost)
    led1, cost = run(apply_rules, T, led0)
    out["apply_rules"] = (_digest(sorted(led1.charges.items(), key=repr), led1.transcript), cost)
    report, cost = run(audit, led1)
    out["audit"] = (_digest(report), cost)

    g = d.base
    result, cost = run(color_run, g)
    out["color_run"] = (
        _digest(sorted(result.coloring.assignment.items()), result.plan.steps), cost
    )
    vrep, cost = run(verify_acyclic, g, result.coloring)
    out["verify"] = (_digest(vrep), cost)
    del result
    lists = _shared_lists(g, palette_size(g.max_degree()))
    result, cost = run(color_run, g, lists)
    out["color_lists"] = (_digest(sorted(result.coloring.assignment.items())), cost)
    return out


def measure(n: int, fraction: Fraction, repeats: int) -> dict:
    d = gen_random_oneplanar(n, fraction, SEED)
    thin = thin_drawing(d, Fraction(1, 2), Fraction(1, 2), SEED)
    thin_text = write_drawing_json(thin)
    runs = [_one_repetition(n, fraction, thin_text) for _ in range(repeats)]
    counted = _one_repetition(n, fraction, thin_text, _counted)
    traced = _one_repetition(n, fraction, thin_text, _peak)
    layers = {}
    for name in LAYERS:
        digests = {r[name][0] for r in (*runs, counted, traced)}
        if len(digests) != 1:
            raise SystemExit(f"{name} at n={n}, f={fraction}: outputs differ between repetitions")
        layers[name] = {
            "cpu_s": round(min(r[name][1][0] for r in runs), 4),
            "wall_s": round(min(r[name][1][1] for r in runs), 4),
            "calls": counted[name][1][0],
            "gc_full": counted[name][1][1],
            "peak_kib": traced[name][1][0],
            "digest": digests.pop(),
        }
    return {
        "n": n,
        "e": d.base.num_edges,
        "crossings": d.num_crossings,
        "max_degree": d.base.max_degree(),
        "thinned_e": thin.base.num_edges,
        "thinned_crossings": thin.num_crossings,
        "layers": layers,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-o", "--output", required=True)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    fractions = []
    for fraction in FRACTIONS:
        sizes = []
        for n in SIZES:
            sizes.append(measure(n, fraction, args.repeats))
            cells = ", ".join(f"{k} {v['cpu_s']:.3f}" for k, v in sizes[-1]["layers"].items())
            print(f"f={fraction} n={n}: {cells} (CPU s)", flush=True)
        growth = {
            key: {
                name: {
                    f"{a['n']}->{b['n']}": round(
                        b["layers"][name][key] / a["layers"][name][key], 2
                    )
                    for a, b in zip(sizes, sizes[1:])
                }
                for name in LAYERS
            }
            for key in ("cpu_s", "calls")
        }
        fractions.append({
            "fraction": str(fraction),
            "sizes": sizes,
            "cpu_growth_per_4x": growth["cpu_s"],
            "calls_growth_per_4x": growth["calls"],
        })
        for name in LAYERS:
            print(f"f={fraction} {name}: CPU growth {growth['cpu_s'][name]}, "
                  f"calls growth {growth['calls'][name]}")
    record = {
        "what": "per-layer time, min of repeats, fresh drawing per repetition; "
                "calls and full GC collections from one more, profiled pass; "
                "tracemalloc peak from a last pass",
        "seed": SEED,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fractions": fractions,
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
