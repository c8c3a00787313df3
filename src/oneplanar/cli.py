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
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .coloring import (
    EdgeColoring,
    ListTooSmall,
    color_run,
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
    named_instance,
    parse_graph6,
    read_drawing_json,
    save_drawing,
    write_drawing_json,
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
# the largest generator n accepted from the command line or a manifest
GEN_N_MAX = 100_000


class _InputError(OnePlanarError):
    pass


# errors that mean the input cannot be used at all, as opposed to a failed check
_UNUSABLE_INPUT = (_InputError, DrawingFormatError, Graph6Error, GenerationError, ListTooSmall)


def _field(spec: dict, key: str, want: type):
    """spec[key], which must be of type ``want`` (a bool is not an int)."""
    value = spec.get(key)
    if not isinstance(value, want) or isinstance(value, bool):
        raise _InputError(f"input field {key!r} must be of type {want.__name__}, got {value!r}")
    return value


def _resolve_input(spec) -> tuple[AbstractGraph, OnePlanarDrawing | None, bytes]:
    """Resolve an input spec to (graph, drawing or None, the bytes its digest covers).

    Kinds: ``named`` (name), ``file`` (path of a .g6 or drawing JSON file),
    ``g6`` (graph6 text) and ``gen`` (generator, default random_oneplanar;
    n, at most GEN_N_MAX; seed; fraction, default 0).
    """
    if not isinstance(spec, dict):
        raise _InputError(f"input must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "file":
        path = _field(spec, "path", str)
        if "\0" in path:  # the OS refuses such a path with ValueError, not OSError
            raise _InputError(f"input path {path!r} contains a NUL byte")
        blob = Path(path).read_bytes()
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError:
            raise _InputError(f"{path}: not UTF-8 text") from None
        if Path(path).suffix == ".g6":
            line = next((ln for ln in text.splitlines() if ln.strip()), "")
            return parse_graph6(line), None, blob
        d = read_drawing_json(text)
        return d.base, d, blob
    if kind == "g6":
        text = _field(spec, "text", str)
        return parse_graph6(text), None, text.encode()
    if kind == "named":
        d = named_instance(_field(spec, "name", str))
    elif kind == "gen":
        generator = spec.get("generator", "random_oneplanar")
        n, seed = _field(spec, "n", int), _field(spec, "seed", int)
        if n > GEN_N_MAX:
            raise _InputError(f"generator n must be at most {GEN_N_MAX}, got {n}")
        if generator == "plane_triangulation":
            d = gen_plane_triangulation(n, seed)
        elif generator == "random_oneplanar":
            raw = spec.get("fraction", 0)
            try:
                fraction = Fraction(raw)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                fraction = None
            if fraction is None or isinstance(raw, bool):  # Fraction(True) is 1
                raise _InputError(f"fraction must be a number or a p/q string, got {raw!r}")
            d = gen_random_oneplanar(n, fraction, seed)
        else:
            raise _InputError(f"unknown generator {generator!r}")
    else:
        raise _InputError(f"unknown input kind {kind!r}")
    return d.base, d, write_drawing_json(d).encode()


def _load_input(path: str) -> tuple[AbstractGraph, OnePlanarDrawing | None]:
    """Load a .g6 file (graph only) or a drawing JSON file."""
    if not Path(path).exists():
        raise _InputError(f"input file not found: {path}")
    g, d, _ = _resolve_input({"kind": "file", "path": path})
    return g, d


def _need_drawing(d: OnePlanarDrawing | None) -> OnePlanarDrawing:
    if d is None:
        raise _InputError("check needs a drawing input")
    return d


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise _InputError(f"{path}: not valid JSON: {exc}") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(c) for c in x)


def _edge_records(doc, what: str, value_ok, value_desc: str) -> dict[Edge, object]:
    """The [u, v, value] records of a coloring or list document, keyed by edge;
    a second record of an edge, in either orientation, is unusable input."""
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
        e = normalize_edge(rec[0], rec[1])
        if e in out:
            first = next(j for j, r in enumerate(doc["edges"]) if normalize_edge(r[0], r[1]) == e)
            raise _InputError(f"{what} edges[{i}]: edge {list(e)} already given by edges[{first}]")
        out[e] = rec[2]
    return out


def _emit(doc: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _write_compact(path: str, doc) -> None:
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=None, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def _key(k) -> str:
    return f"v{k}" if isinstance(k, int) else f"f{k[1]}"


# --------------------------------------------------------------------------
# checks: one function per suite check, shared with the subcommands
# --------------------------------------------------------------------------


class _Outcome(NamedTuple):
    """A check's verdict and its suite report ``detail``.  ``doc`` builds the
    subcommand's stdout document and text lines on demand, so the suite never
    pays for them; ``value`` is what a subcommand's side output is written from."""

    passed: bool
    detail: dict
    doc: Callable[[], tuple[dict, list[str]]] | None = None
    value: object = None


# Each check takes (graph, drawing or None) and keyword options; it reads its
# own option (oracle: limit, color: lists) and ignores the others.


def _check_validate(g, d, **_) -> _Outcome:
    rep = validate_drawing(_need_drawing(d))
    return _Outcome(rep.valid, {"violations": rep.codes()}, lambda: (
        {
            "valid": rep.valid,
            "violations": [{"code": v.code, "message": v.message} for v in rep.violations],
            "stats": dict(rep.stats),
        },
        [f"valid: {rep.valid}", *(f"  {v.code}: {v.message}" for v in rep.violations)],
    ))


def _check_edge_bound(g, d, **_) -> _Outcome:
    eb = edge_bound_check(_need_drawing(d))
    detail = {"e": eb.e, "bound": eb.bound}
    return _Outcome(eb.passed, detail, lambda: (
        {**detail, "passed": eb.passed, "vacuous": eb.vacuous},
        [f"edge bound: e={eb.e} <= {eb.bound}: {eb.passed}"],
    ))


def _check_triangulate(g, d, **_) -> _Outcome:
    T = canonical_triangulate(_need_drawing(d))
    ok = is_canonical(T.drawing)
    idem = canonical_triangulate(T.drawing).drawing == T.drawing
    return _Outcome(ok and idem, {"canonical": ok, "idempotent": idem})


def _check_find_config(g, d, **_) -> _Outcome:
    cfg = find_configuration(g)
    detail = {"kind": cfg.kind, "center": cfg.center}
    degrees = list(cfg.neighbor_degrees)
    return _Outcome(True, detail, lambda: (
        {**detail, "neighbors": list(cfg.neighbors), "neighbor_degrees": degrees},
        [f"{cfg.kind} at {cfg.center}, degrees {degrees}"],
    ))


def _check_light_p3(g, d, **_) -> _Outcome:
    path = list(find_light_path3(g))
    degrees = [g.degree(x) for x in path]
    return _Outcome(True, {"path": path}, lambda: (
        {"shape": "p3", "path": path, "degrees": degrees},
        [f"path {'-'.join(map(str, path))}, degrees {degrees}"],
    ))


def _check_light_s3(g, d, **_) -> _Outcome:
    v, leaves = find_light_star3(g)
    detail = {"center": v, "leaves": list(leaves)}
    degrees = [g.degree(x) for x in (v, *leaves)]
    return _Outcome(True, detail, lambda: (
        {"shape": "s3", **detail, "degrees": degrees},
        [f"star {v} -> {list(leaves)}, degrees {degrees}"],
    ))


def _check_discharge(g, d, **_) -> _Outcome:
    T = canonical_triangulate(_need_drawing(d))
    led0 = initial_charges(T)
    led1 = apply_rules(T, led0)
    rep = audit(led1)
    total = str(rep.total)
    detail = {"total": total, "negatives": len(rep.negatives)}
    return _Outcome(rep.total_is_minus8, detail, lambda: (
        {
            "initial_total": str(led0.total()),
            "final_total": total,
            "total_is_minus8": rep.total_is_minus8,
            "special_faces": len(special_faces(T)),
            "transfers": len(led1.transcript),
            "negatives": [_key(k) for k in rep.negatives],
            "vertex_charges": {str(v): str(c) for v, c in sorted(led1.vertex_charges().items())},
        },
        [f"total {total}, {len(rep.negatives)} negative elements"],
    ), led1)


def _check_color(g, d, lists=None, **_) -> _Outcome:
    ec = color_run(g, lists).coloring
    rep = verify_acyclic(g, ec)
    used = ec.num_colors()
    # a list coloring is bounded by its lists, not by the palette size L
    passed = rep.ok and (lists is not None or used <= ec.palette)
    return _Outcome(passed, {"colors_used": used, "L": ec.palette}, lambda: (
        {**_coloring_doc(ec), "colors_used": used, "verified": rep.ok},
        [f"{used} colors of {ec.palette}, verified={rep.ok}"],
    ), ec)


def _check_oracle(g, d, limit=None, **_) -> _Outcome:
    if limit is None:
        limit = palette_size(g.max_degree())
    value = oracle_chi_a(g, limit)
    detail = {"chi_a": value, "limit": limit}
    return _Outcome(value is not None, detail, lambda: (
        {**detail, "exceeded": value is None},
        [f"chi'_a = {value}" if value is not None else f"> {limit}"],
    ))


_CHECKS: dict[str, Callable[..., _Outcome]] = {
    "validate": _check_validate,
    "edge-bound": _check_edge_bound,
    "triangulate": _check_triangulate,
    "find-config": _check_find_config,
    "light-p3": _check_light_p3,
    "light-s3": _check_light_s3,
    "discharge": _check_discharge,
    "color": _check_color,
    "oracle": _check_oracle,
}


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _finish(out: _Outcome, fmt: str) -> int:
    """Print a check's subcommand document; the exit code is its verdict."""
    doc, lines = out.doc()
    _emit(doc, fmt, lines)
    return 0 if out.passed else _CHECK_FAILED


def _cmd_validate(args) -> int:
    g, d = _load_input(args.input)
    valid, bound = _check_validate(g, d), _check_edge_bound(g, d)
    (doc, lines), (bound_doc, bound_lines) = valid.doc(), bound.doc()
    _emit({**doc, "edge_bound": bound_doc}, args.format, lines + bound_lines)
    return 0 if valid.passed and bound.passed else _CHECK_FAILED


def _cmd_triangulate(args) -> int:
    T = canonical_triangulate(_need_drawing(_load_input(args.input)[1]))
    save_drawing(T.drawing, args.output)
    kinds = ("added_kite_edges", "removed_duplicates", "temporarily_removed", "added_fill_edges")
    prov = {k: [list(e) for e in getattr(T, k)] for k in kinds}
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
    d = _need_drawing(_load_input(args.input)[1])
    if not 0 <= args.vertex < d.n:
        raise _InputError(f"vertex {args.vertex} is not a real vertex (n={d.n})")
    T = canonical_triangulate(d)
    c = classify_neighbors(T, args.vertex)
    obs = check_observations(T)
    crossings = len(c.mirror_triangles)
    by_label = Counter(t.label for t in c.mirror_triangles)
    by_degree = Counter(T.base.degree(u) for u in c.cyclic_neighbors)
    doc = {
        "center": c.center,
        "cyclic_neighbors": list(c.cyclic_neighbors),
        "labels": list(c.labels),
        "crossing_count": crossings,
        "mirror_triangles": [
            {"crossing": t.crossing, "mirror": t.mirror, "images": list(t.images), "label": t.label}
            for t in c.mirror_triangles
        ],
        "segments": [
            {"vertices": list(s.vertices), "scope": s.scope, "wraps": s.wraps}
            for s in c.segments
        ],
        "intervals": [list(i) for i in c.intervals],
        "counts": {
            "mirror_triangles": crossings,
            "light": crossings - by_label["heavy"],
            "heavy": by_label["heavy"],
            "class1": by_label["I"],
            "class2": by_label["II"],
            "class3": by_label["III"],
        },
        "degree_counts": {str(k): v for k, v in sorted(by_degree.items())},
        "observations": {"errors": len(obs.errors), "warnings": len(obs.warnings)},
    }
    _emit(doc, args.format, [f"vertex {c.center}: labels {list(c.labels)}"])
    return 0


def _cmd_find_config(args) -> int:
    return _finish(_check_find_config(*_load_input(args.input)), args.format)


def _cmd_light(args) -> int:
    return _finish(_CHECKS[f"light-{args.shape}"](*_load_input(args.input)), args.format)


def _cmd_discharge(args) -> int:
    out = _check_discharge(*_load_input(args.input))
    if args.transcript:
        _write_compact(args.transcript, [
            {"rule": t.rule, "from": _key(t.source), "to": _key(t.target), "amount": str(t.amount)}
            for t in out.value.transcript
        ])
    return _finish(out, args.format)


def _coloring_doc(ec: EdgeColoring) -> dict:
    return {"L": ec.palette, "edges": [[u, v, c] for (u, v), c in sorted(ec.assignment.items())]}


def _coloring_from_doc(doc) -> EdgeColoring:
    if not isinstance(doc, dict) or not _is_int(doc.get("L")):
        raise _InputError("coloring JSON needs an integer field L")
    assignment = _edge_records(doc, "coloring", _is_int, "color")
    return EdgeColoring(assignment, doc["L"])


def _cmd_color(args) -> int:
    g, d = _load_input(args.input)
    lists = None
    if args.lists:
        lists = _edge_records(_read_json(args.lists), "lists", _is_int_list, "colors")
    out = _check_color(g, d, lists=lists)
    if args.output:
        _write_compact(args.output, _coloring_doc(out.value))
    return _finish(out, args.format)


def _cmd_verify(args) -> int:
    g, _ = _load_input(args.input)
    ec = _coloring_from_doc(_read_json(args.coloring))
    rep = verify_acyclic(g, ec)
    doc = {
        "ok": rep.ok,
        "missing_edges": [list(e) for e in rep.missing_edges],
        "unknown_edges": [list(e) for e in rep.unknown_edges],
        "properness_violations": [[list(a), list(b)] for a, b in rep.properness_violations],
        "bichromatic_cycles": [
            {"colors": [a, b], "cycle": list(cyc)} for a, b, cyc in rep.bichromatic_cycles
        ],
    }
    _emit(doc, args.format, [f"ok: {rep.ok}"])
    return 0 if rep.ok else _CHECK_FAILED


def _cmd_oracle(args) -> int:
    return _finish(_check_oracle(*_load_input(args.input), limit=args.limit), args.format)


def _cmd_gen(args) -> int:
    if args.kind == "named":
        if not args.name:
            raise _InputError("--name is required for --kind named")
        spec = {"kind": "named", "name": args.name}
    else:
        spec = {"kind": "gen", "generator": args.kind, "n": args.n, "seed": args.seed,
                "fraction": args.fraction}
    _, d, blob = _resolve_input(spec)
    Path(args.output).write_bytes(blob)  # the drawing JSON, as save_drawing writes it
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


def _run_check(check: str, g: AbstractGraph, d: OnePlanarDrawing | None, limit) -> dict:
    fn = _CHECKS.get(check)
    if fn is None:
        return {"check": check, "status": "error", "detail": {"message": "unknown check"}}
    try:
        out = fn(g, d, limit=limit)
    except OnePlanarError as exc:
        return {"check": check, "status": "fail", "detail": {"error": str(exc)}}
    return {"check": check, "status": "pass" if out.passed else "fail", "detail": out.detail}


def _run_entry(entry) -> dict:
    """Run one manifest entry; a malformed entry is recorded as its input error."""
    t0 = time.perf_counter()
    name = entry.get("name", "?") if isinstance(entry, dict) else "?"
    digest = None
    try:
        if not isinstance(entry, dict):
            raise _InputError(f"manifest entry must be an object, got {entry!r}")
        checks = entry.get("checks", [])
        if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
            raise _InputError(f"checks must be a list of check names, got {checks!r}")
        limit = entry.get("oracle_limit")
        if "oracle_limit" in entry and not _is_int(limit):
            raise _InputError(f"oracle_limit must be an integer, got {limit!r}")
        g, d, blob = _resolve_input(entry.get("input", {}))
    except (OnePlanarError, OSError) as exc:
        results = [{"check": "input", "status": "error", "detail": {"message": str(exc)}}]
    else:
        digest = hashlib.sha256(blob).hexdigest()
        results = [_run_check(c, g, d, limit) for c in checks]
    return {
        "name": name,
        "input_digest": digest,
        "results": results,
        "elapsed_s": round(time.perf_counter() - t0, 6),
    }


def run_suite(manifest: dict) -> dict:
    """Execute a manifest; report order always matches manifest order."""
    t0 = time.perf_counter()
    entries = manifest.get("entries", []) if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise _InputError("a manifest must be an object whose entries field is a list")
    results = [_run_entry(e) for e in entries]
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

    def add(name, fn, help, *positional):
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("json", "text"), default="json")
        for arg in positional:
            p.add_argument(arg)
        p.set_defaults(fn=fn)
        return p

    add("validate", _cmd_validate, "check drawing invariants and the edge bound", "input")
    p = add("triangulate", _cmd_triangulate, "canonical triangulation of a drawing", "input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--provenance")
    p = add("census", _cmd_census, "neighbor census of one vertex", "input")
    p.add_argument("--vertex", type=int, required=True)
    add("find-config", _cmd_find_config, "find an unavoidable configuration", "input")
    p = add("light", _cmd_light, "find a light 3-path or 3-star", "input")
    p.add_argument("--shape", choices=("p3", "s3"), required=True)
    p = add("discharge", _cmd_discharge, "run the charge rules and audit totals", "input")
    p.add_argument("--transcript")
    p = add("color", _cmd_color, "acyclic edge coloring within the palette bound", "input")
    p.add_argument("--lists")
    p.add_argument("-o", "--output")
    add("verify", _cmd_verify, "verify a coloring file against a graph", "input", "coloring")
    p = add("oracle", _cmd_oracle, "exact acyclic chromatic index (small graphs)", "input")
    p.add_argument("--limit", type=int)
    p = add("gen", _cmd_gen, "generate a drawing")
    p.add_argument("--kind", required=True,
                   choices=("plane_triangulation", "random_oneplanar", "named"))
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fraction", default="0")
    p.add_argument("--name", choices=NAMED_INSTANCES)
    p.add_argument("-o", "--output", required=True)
    p = add("run-suite", _cmd_run_suite, "run every check listed in a manifest", "manifest")
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
