"""Command-line interface: one subcommand per operation plus a suite runner.

Exit codes: 0 all checks passed, 1 a check failed or reported violations,
2 unusable input or bad usage.  All machine output is JSON (default) with
stable field names; --format text prints terse human summaries instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .coloring import (
    EdgeColoring,
    ListTooSmall,
    acyclic_edge_color,
    acyclic_edge_color_lists,
    oracle_chi_a,
    palette_size,
    verify_acyclic,
)
from .corpus import (
    NAMED_INSTANCES,
    DrawingFormatError,
    GenerationError,
    Graph6Error,
    gen_plane_triangulation,
    gen_random_oneplanar,
    load_drawing,
    named_instance,
    parse_graph6,
    read_drawing_json,
    save_drawing,
    write_drawing_json,
    write_graph6,
)
from .discharging import apply_rules, audit, initial_charges, special_faces
from .model import (
    AbstractGraph,
    Edge,
    OnePlanarDrawing,
    OnePlanarError,
    edge_bound_check,
    normalize_edge,
    validate_drawing,
)
from .structure import (
    check_observations,
    classify_neighbors,
    find_configuration,
    find_light_path3,
    find_light_star3,
)
from .triangulation import canonical_triangulate, is_canonical

_USAGE_ERROR = 2
_CHECK_FAILED = 1


class _InputError(OnePlanarError):
    pass


# errors that mean the input cannot be used at all, as opposed to a failed check
_UNUSABLE_INPUT = (_InputError, DrawingFormatError, Graph6Error, GenerationError, ListTooSmall)


def _load_input(path: str) -> tuple[AbstractGraph, OnePlanarDrawing | None]:
    """Load a .g6 file (graph only) or a drawing JSON file."""
    p = Path(path)
    if not p.exists():
        raise _InputError(f"input file not found: {path}")
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".g6":
        line = next((ln for ln in text.splitlines() if ln.strip()), "")
        return parse_graph6(line), None
    d = read_drawing_json(text)
    return d.base, d


def _require_drawing(path: str) -> OnePlanarDrawing:
    _, d = _load_input(path)
    if d is None:
        raise _InputError(f"{path}: this command needs a drawing, not a graph6 file")
    return d


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: not valid JSON: {exc}") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(c) for c in x)


def _edge_records(doc, what: str, value_ok, value_desc: str) -> dict[Edge, object]:
    """The [u, v, value] records of a coloring or list document, keyed by edge."""
    if not isinstance(doc, dict) or not isinstance(doc.get("edges"), list):
        raise _InputError(f"{what} JSON needs a list field edges")
    out: dict[Edge, object] = {}
    for i, rec in enumerate(doc["edges"]):
        if not (
            isinstance(rec, list)
            and len(rec) == 3
            and _is_int(rec[0])
            and _is_int(rec[1])
            and rec[0] != rec[1]
            and value_ok(rec[2])
        ):
            raise _InputError(
                f"{what} edges[{i}]: expected [u, v, {value_desc}] with distinct integers u, v"
            )
        out[normalize_edge(rec[0], rec[1])] = rec[2]
    return out


def _emit(doc: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _key(k) -> str:
    return f"v{k}" if isinstance(k, int) else f"f{k[1]}"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    d = _require_drawing(args.input)
    rep = validate_drawing(d)
    eb = edge_bound_check(d)
    doc = {
        "valid": rep.valid,
        "violations": [{"code": v.code, "message": v.message} for v in rep.violations],
        "stats": dict(rep.stats),
        "edge_bound": {
            "passed": eb.passed,
            "vacuous": eb.vacuous,
            "e": eb.e,
            "bound": eb.bound,
        },
    }
    _emit(
        doc,
        args.format,
        [
            f"valid: {rep.valid}",
            *(f"  {v.code}: {v.message}" for v in rep.violations),
            f"edge bound: e={eb.e} <= {eb.bound}: {eb.passed}",
        ],
    )
    return 0 if rep.valid and eb.passed else _CHECK_FAILED


def _cmd_triangulate(args) -> int:
    d = _require_drawing(args.input)
    T = canonical_triangulate(d)
    save_drawing(T.drawing, args.output)
    prov = {
        "added_kite_edges": [list(e) for e in T.added_kite_edges],
        "removed_duplicates": [list(e) for e in T.removed_duplicates],
        "temporarily_removed": [list(e) for e in T.temporarily_removed],
        "added_fill_edges": [list(e) for e in T.added_fill_edges],
    }
    if args.provenance:
        Path(args.provenance).write_text(
            json.dumps(prov, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    doc = {
        "output": str(args.output),
        "canonical": is_canonical(T.drawing),
        "n": T.drawing.n,
        "e": T.drawing.base.num_edges,
        "crossings": T.drawing.num_crossings,
        "provenance": prov,
    }
    _emit(doc, args.format, [f"wrote {args.output} (canonical={doc['canonical']})"])
    return 0


def _cmd_census(args) -> int:
    d = _require_drawing(args.input)
    T = canonical_triangulate(d)
    c = classify_neighbors(T, args.vertex)
    obs = check_observations(T)
    doc = {
        "center": c.center,
        "cyclic_neighbors": list(c.cyclic_neighbors),
        "labels": list(c.labels),
        "crossing_count": c.crossing_count,
        "mirror_triangles": [
            {
                "crossing": t.crossing,
                "mirror": t.mirror,
                "images": list(t.images),
                "label": t.label,
            }
            for t in c.mirror_triangles
        ],
        "segments": [
            {"vertices": list(s.vertices), "scope": s.scope, "wraps": s.wraps}
            for s in c.segments
        ],
        "intervals": [list(i) for i in c.intervals],
        "counts": {
            "mirror_triangles": c.mirror_triangle_count,
            "light": c.light_count,
            "heavy": c.heavy_count,
            "class1": c.class1_count,
            "class2": c.class2_count,
            "class3": c.class3_count,
        },
        "degree_counts": {str(k): v for k, v in sorted(c.degree_counts.items())},
        "observations": {"errors": len(obs.errors), "warnings": len(obs.warnings)},
    }
    _emit(doc, args.format, [f"vertex {c.center}: labels {list(c.labels)}"])
    return 0


def _graph_for(args) -> AbstractGraph:
    g, _ = _load_input(args.input)
    return g


def _cmd_find_config(args) -> int:
    cfg = find_configuration(_graph_for(args))
    doc = {
        "kind": cfg.kind,
        "center": cfg.center,
        "neighbors": list(cfg.neighbors),
        "neighbor_degrees": list(cfg.neighbor_degrees),
    }
    _emit(doc, args.format, [f"{cfg.kind} at {cfg.center}, degrees {list(cfg.neighbor_degrees)}"])
    return 0


def _cmd_light(args) -> int:
    g = _graph_for(args)
    if args.shape == "p3":
        u, v, w = find_light_path3(g)
        doc = {"shape": "p3", "path": [u, v, w], "degrees": [g.degree(x) for x in (u, v, w)]}
        lines = [f"path {u}-{v}-{w}, degrees {doc['degrees']}"]
    else:
        v, leaves = find_light_star3(g)
        doc = {
            "shape": "s3",
            "center": v,
            "leaves": list(leaves),
            "degrees": [g.degree(v)] + [g.degree(x) for x in leaves],
        }
        lines = [f"star {v} -> {list(leaves)}, degrees {doc['degrees']}"]
    _emit(doc, args.format, lines)
    return 0


def _cmd_discharge(args) -> int:
    d = _require_drawing(args.input)
    T = canonical_triangulate(d)
    led0 = initial_charges(T)
    led1 = apply_rules(T, led0)
    rep = audit(led1)
    if args.transcript:
        doc_t = [
            {"rule": t.rule, "from": _key(t.source), "to": _key(t.target), "amount": _frac(t.amount)}
            for t in led1.transcript
        ]
        Path(args.transcript).write_text(
            json.dumps(doc_t, sort_keys=True, indent=None, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
    doc = {
        "initial_total": _frac(led0.total()),
        "final_total": _frac(rep.total),
        "total_is_minus8": rep.total_is_minus8,
        "special_faces": len(special_faces(T)),
        "transfers": len(led1.transcript),
        "negatives": [_key(k) for k in rep.negatives],
        "vertex_charges": {str(v): _frac(c) for v, c in sorted(led1.vertex_charges().items())},
    }
    _emit(
        doc,
        args.format,
        [f"total {_frac(rep.total)}, {len(rep.negatives)} negative elements"],
    )
    return 0 if rep.total_is_minus8 else _CHECK_FAILED


def _coloring_doc(ec: EdgeColoring) -> dict:
    return {
        "L": ec.palette,
        "edges": [[u, v, c] for (u, v), c in sorted(ec.assignment.items())],
    }


def _coloring_from_doc(doc) -> EdgeColoring:
    if not isinstance(doc, dict) or not _is_int(doc.get("L")):
        raise _InputError("coloring JSON needs an integer field L")
    assignment = _edge_records(doc, "coloring", _is_int, "color")
    return EdgeColoring(assignment, doc["L"])


def _cmd_color(args) -> int:
    g = _graph_for(args)
    if args.lists:
        lists = _edge_records(_read_json(args.lists), "lists", _is_int_list, "colors")
        ec = acyclic_edge_color_lists(g, lists)
    else:
        ec = acyclic_edge_color(g)
    rep = verify_acyclic(g, ec)
    doc = _coloring_doc(ec)
    doc["colors_used"] = ec.num_colors()
    doc["verified"] = rep.ok
    if args.output:
        Path(args.output).write_text(
            json.dumps(_coloring_doc(ec), sort_keys=True, indent=None, separators=(",", ":"))
            + "\n",
            encoding="utf-8",
        )
    _emit(doc, args.format, [f"{ec.num_colors()} colors of {ec.palette}, verified={rep.ok}"])
    return 0 if rep.ok else _CHECK_FAILED


def _cmd_verify(args) -> int:
    g = _graph_for(args)
    ec = _coloring_from_doc(_read_json(args.coloring))
    rep = verify_acyclic(g, ec)
    doc = {
        "ok": rep.ok,
        "missing_edges": [list(e) for e in rep.missing_edges],
        "unknown_edges": [list(e) for e in rep.unknown_edges],
        "properness_violations": [
            [list(a), list(b)] for a, b in rep.properness_violations
        ],
        "bichromatic_cycles": [
            {"colors": [a, b], "cycle": list(cyc)} for a, b, cyc in rep.bichromatic_cycles
        ],
    }
    _emit(doc, args.format, [f"ok: {rep.ok}"])
    return 0 if rep.ok else _CHECK_FAILED


def _cmd_oracle(args) -> int:
    g = _graph_for(args)
    limit = args.limit if args.limit is not None else palette_size(g.max_degree())
    value = oracle_chi_a(g, limit)
    doc = {"limit": limit, "chi_a": value, "exceeded": value is None}
    _emit(doc, args.format, [f"chi'_a = {value}" if value is not None else f"> {limit}"])
    return 0 if value is not None else _CHECK_FAILED


def _cmd_gen(args) -> int:
    if args.kind == "named":
        if not args.name:
            raise _InputError("--name is required for --kind named")
        d = named_instance(args.name)
    elif args.kind == "plane_triangulation":
        d = gen_plane_triangulation(args.n, args.seed)
    elif args.kind == "random_oneplanar":
        d = gen_random_oneplanar(args.n, Fraction(args.fraction), args.seed)
    else:
        raise _InputError(f"unknown generator kind {args.kind}")
    save_drawing(d, args.output)
    doc = {
        "output": str(args.output),
        "n": d.n,
        "e": d.base.num_edges,
        "crossings": d.num_crossings,
    }
    _emit(doc, args.format, [f"wrote {args.output}: n={d.n} e={d.base.num_edges} x={d.num_crossings}"])
    return 0


# --------------------------------------------------------------------------
# suite runner
# --------------------------------------------------------------------------


def _suite_input(spec) -> tuple[AbstractGraph, OnePlanarDrawing | None, str]:
    """Resolve a manifest input; returns (graph, drawing or None, sha256)."""
    kind = spec.get("kind")
    if kind == "named":
        d = named_instance(spec["name"])
        blob = write_drawing_json(d).encode()
        return d.base, d, hashlib.sha256(blob).hexdigest()
    if kind == "file":
        path = spec["path"]
        blob = Path(path).read_bytes()
        g, d = _load_input(path)
        return g, d, hashlib.sha256(blob).hexdigest()
    if kind == "g6":
        g = parse_graph6(spec["text"])
        return g, None, hashlib.sha256(spec["text"].encode()).hexdigest()
    if kind == "gen":
        generator = spec.get("generator", "random_oneplanar")
        if generator == "plane_triangulation":
            d = gen_plane_triangulation(spec["n"], spec["seed"])
        else:
            d = gen_random_oneplanar(spec["n"], Fraction(spec.get("fraction", 0)), spec["seed"])
        blob = write_drawing_json(d).encode()
        return d.base, d, hashlib.sha256(blob).hexdigest()
    raise _InputError(f"unknown input kind {kind!r}")


def _run_check(check: str, entry: dict, g: AbstractGraph, d: OnePlanarDrawing | None) -> dict:
    def need_drawing() -> OnePlanarDrawing:
        if d is None:
            raise _InputError("check needs a drawing input")
        return d

    try:
        if check == "validate":
            rep = validate_drawing(need_drawing())
            return {
                "check": check,
                "status": "pass" if rep.valid else "fail",
                "detail": {"violations": rep.codes()},
            }
        if check == "edge-bound":
            eb = edge_bound_check(need_drawing())
            return {
                "check": check,
                "status": "pass" if eb.passed else "fail",
                "detail": {"e": eb.e, "bound": eb.bound},
            }
        if check == "triangulate":
            T = canonical_triangulate(need_drawing())
            ok = is_canonical(T.drawing)
            idem = canonical_triangulate(T.drawing).drawing == T.drawing
            return {
                "check": check,
                "status": "pass" if ok and idem else "fail",
                "detail": {"canonical": ok, "idempotent": idem},
            }
        if check == "find-config":
            cfg = find_configuration(g)
            return {
                "check": check,
                "status": "pass",
                "detail": {"kind": cfg.kind, "center": cfg.center},
            }
        if check == "light-p3":
            u, v, w = find_light_path3(g)
            return {"check": check, "status": "pass", "detail": {"path": [u, v, w]}}
        if check == "light-s3":
            v, leaves = find_light_star3(g)
            return {
                "check": check,
                "status": "pass",
                "detail": {"center": v, "leaves": list(leaves)},
            }
        if check == "discharge":
            T = canonical_triangulate(need_drawing())
            led = apply_rules(T, initial_charges(T))
            rep = audit(led)
            return {
                "check": check,
                "status": "pass" if rep.total_is_minus8 else "fail",
                "detail": {"total": _frac(rep.total), "negatives": len(rep.negatives)},
            }
        if check == "color":
            ec = acyclic_edge_color(g)
            rep = verify_acyclic(g, ec)
            return {
                "check": check,
                "status": "pass" if rep.ok and ec.num_colors() <= ec.palette else "fail",
                "detail": {"colors_used": ec.num_colors(), "L": ec.palette},
            }
        if check == "oracle":
            limit = entry.get("oracle_limit", palette_size(g.max_degree()))
            value = oracle_chi_a(g, limit)
            return {
                "check": check,
                "status": "pass" if value is not None else "fail",
                "detail": {"chi_a": value, "limit": limit},
            }
        return {"check": check, "status": "error", "detail": {"message": "unknown check"}}
    except OnePlanarError as exc:
        return {"check": check, "status": "fail", "detail": {"error": str(exc)}}


def _run_entry(entry: dict) -> dict:
    t0 = time.perf_counter()
    name = entry.get("name", "?")
    try:
        g, d, digest = _suite_input(entry.get("input", {}))
    except (OnePlanarError, OSError, KeyError) as exc:
        return {
            "name": name,
            "input_digest": None,
            "results": [{"check": "input", "status": "error", "detail": {"message": str(exc)}}],
            "elapsed_s": round(time.perf_counter() - t0, 6),
        }
    results = [_run_check(c, entry, g, d) for c in entry.get("checks", [])]
    return {
        "name": name,
        "input_digest": digest,
        "results": results,
        "elapsed_s": round(time.perf_counter() - t0, 6),
    }


def run_suite(manifest: dict) -> dict:
    """Execute a manifest; report order always matches manifest order."""
    t0 = time.perf_counter()
    results = [_run_entry(e) for e in manifest.get("entries", [])]
    failures = sum(
        1 for r in results for c in r["results"] if c["status"] in ("fail", "error")
    )
    return {
        "tool": "oneplanar",
        "version": __version__,
        "entries": results,
        "failures": failures,
        "elapsed_s": round(time.perf_counter() - t0, 6),
    }


def _cmd_run_suite(args) -> int:
    manifest = _read_json(args.manifest)
    report = run_suite(manifest)
    out = json.dumps(report, sort_keys=True, indent=2)
    if args.report:
        Path(args.report).write_text(out + "\n", encoding="utf-8")
    if args.format == "json":
        print(out)
    else:
        for entry in report["entries"]:
            marks = ", ".join(f"{c['check']}:{c['status']}" for c in entry["results"])
            print(f"{entry['name']}: {marks}")
        print(f"failures: {report['failures']}")
    return 0 if report["failures"] == 0 else _CHECK_FAILED


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="oneplanar", description=__doc__)
    ap.add_argument("--version", action="version", version=f"oneplanar {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, help="check drawing invariants and the edge bound")
    p.add_argument("input")

    p = add("triangulate", _cmd_triangulate, help="canonical triangulation of a drawing")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--provenance")

    p = add("census", _cmd_census, help="neighbor census of one vertex")
    p.add_argument("input")
    p.add_argument("--vertex", type=int, required=True)

    p = add("find-config", _cmd_find_config, help="find an unavoidable configuration")
    p.add_argument("input")

    p = add("light", _cmd_light, help="find a light 3-path or 3-star")
    p.add_argument("--shape", choices=("p3", "s3"), required=True)
    p.add_argument("input")

    p = add("discharge", _cmd_discharge, help="run the charge rules and audit totals")
    p.add_argument("input")
    p.add_argument("--transcript")

    p = add("color", _cmd_color, help="acyclic edge coloring within the palette bound")
    p.add_argument("input")
    p.add_argument("--lists")
    p.add_argument("-o", "--output")

    p = add("verify", _cmd_verify, help="verify a coloring file against a graph")
    p.add_argument("input")
    p.add_argument("coloring")

    p = add("oracle", _cmd_oracle, help="exact acyclic chromatic index (small graphs)")
    p.add_argument("input")
    p.add_argument("--limit", type=int)

    p = add("gen", _cmd_gen, help="generate a drawing")
    p.add_argument("--kind", required=True,
                   choices=("plane_triangulation", "random_oneplanar", "named"))
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fraction", default="0")
    p.add_argument("--name", choices=NAMED_INSTANCES)
    p.add_argument("-o", "--output", required=True)

    p = add("run-suite", _cmd_run_suite, help="run every check listed in a manifest")
    p.add_argument("manifest")
    p.add_argument("--report")

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OnePlanarError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return _USAGE_ERROR if isinstance(exc, _UNUSABLE_INPUT) else _CHECK_FAILED
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
