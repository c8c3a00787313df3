"""Benchmark of the oneplanar pipeline, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One workload runs per process, single-threaded (ONEPLANAR_THREADS is
removed from the environment).  The set-up imports the package from
``src/`` and builds the workload's inputs from the seed at least five times
and for at least three seconds, so that the median of a cheap build spans
more than a brief change in host speed; the timed phase then cycles through
the inputs, one item at a time (a closed loop with one caller), until
``--seconds`` have passed and every input has completed at least once.
Every item's outputs are checked, and on the default seed the digests of
its mathematical results are compared with ``references.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every call
into the package in a span and prints the per-layer metrics instead, with
the spans written to ``.perfbench_out/``.  ``--workload all`` runs every
workload untraced and traced, each in its own process, and prints the
tracing overhead.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
WORKLOAD_NAMES = ("pipeline-large", "triangulate-thinned", "suite-small", "lists-witness")
END_TO_END = (
    ("edges_per_s", "1/s"),
    ("item_p50_s", "s"),
    ("item_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _import_package():
    """Import oneplanar from this checkout's src/ and the workload modules."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import oneplanar  # noqa: F401  (timed: part of set-up)

    import_s = time.perf_counter() - t0
    if Path(oneplanar.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"oneplanar imported from {oneplanar.__file__}, not from {SRC}")
    import tracing
    import workloads

    return import_s, tracing, workloads


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _p90(values: list[float]) -> float:
    """90th percentile, interpolated inside the data (the default method
    extrapolates past the largest of a few values)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def load_references(name: str, seed: int) -> dict:
    """Reference digests by input id; only the default seed has them."""
    if seed != DEFAULT_SEED or not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text()).get(name, {})


def measure(
    name: str, seed: int, seconds: float, traced: bool, refs: dict, tiny: bool = False
) -> dict:
    """Run one workload in this process; returns the result and what to print.

    ``refs`` maps input ids to expected digests; a differing digest fails
    the item.  ``tiny`` shrinks every input, for the smoke test.
    """
    import_s, tracing, workloads = _import_package()
    tracer = tracing.Tracer(traced)
    api = workloads.make_api(tracer)
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](tiny, workdir)
        build_s = []
        min_setup_s = 0.0 if tiny else SETUP_SECONDS
        while len(build_s) < SETUP_REPEATS or sum(build_s) < min_setup_s:
            tracer.item = f"setup{len(build_s)}"
            items = None  # free the previous build first, so peak memory is one build
            t0 = time.perf_counter()
            items = wl.build(seed, api)
            build_s.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(build_s)

        latencies: dict[int, list[float]] = {it.idx: [] for it in items}
        digests: dict[int, str] = {}
        failures: list[str] = []
        attempted = failed = 0
        start = time.perf_counter()
        deadline = start + seconds
        k = 0
        while k < len(items) or time.perf_counter() < deadline:
            item = items[k % len(items)]
            rep = k // len(items)
            k += 1
            tracer.item = f"i{item.idx}.r{rep}"
            attempted += 1
            try:
                t0 = time.perf_counter()
                result = wl.run(item, api, traced)
                latency = time.perf_counter() - t0
                bad = wl.check(item, result)
                if rep == 0:
                    digests[item.idx] = wl.digest(item, result)
                    want = refs.get(str(item.idx))
                    if refs and want != digests[item.idx]:
                        bad.append("digest differs from the reference")
            except Exception as exc:  # a failing item is counted, the run goes on
                bad = [f"{type(exc).__name__}: {exc}"]
            if bad:
                failed += 1
                failures.append(f"{item.name} (pass {rep}): {'; '.join(bad)}")
            else:
                latencies[item.idx].append(latency)
        timed_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced:
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [it for it in items if latencies[it.idx]]
    per_input = {it.idx: statistics.median(latencies[it.idx]) for it in done}
    lat = sorted(per_input.values()) or [0.0]
    e2e = {
        "edges_per_s": sum(it.edges for it in done) / (sum(lat) or 1.0),
        "item_p50_s": statistics.median(lat),
        "item_p90_s": _p90(lat),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [
        f"# workload {name}  seed {seed}  trace {int(traced)}  "
        f"{len(items)} inputs  {attempted} items in {timed_s:.2f} s "
        f"({attempted / len(items):.2f} passes)",
    ]
    for key, unit in END_TO_END:
        note = ""
        if key.startswith("item_"):
            note = f"  (over {len(per_input)} inputs' median latencies, {attempted} items)"
        elif key == "setup_s":
            note = f"  (import {import_s:.4f} s + median of {len(build_s)} builds)"
        lines.append(f"  {key:<14} {e2e[key]:.6g} {unit}{note}")
    lines.append(f"  failed_frac    {failed}/{attempted} = {failed / attempted:.4g}")
    if refs:
        match = sum(1 for i, dg in digests.items() if refs.get(str(i)) == dg)
        lines.append(f"  digests        {match}/{len(digests)} match references.json")
    else:
        lines.append("  digests        not compared (only the default seed has references)")
    lines += [f"  FAILED {f}" for f in failures[:20]]

    metrics = {key: {"value": e2e[key], "unit": unit} for key, unit in END_TO_END}
    if traced:
        metrics = _per_layer(workloads.PER_LAYER, tracer, items, latencies, len(build_s))
        lines.append("  per-layer (self time per pass over the inputs; counts from pass 0):")
        lines += [f"    {k:<32} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        first = [tracer.counts[f"i{it.idx}.r0"] for it in items]
        wide = sum(c["coloring.wide_palette_calls"] for c in first)
        calls = sum(c["coloring.calls"] for c in first)
        lines.append(f"  palette L = 2*maxdeg-2 on {wide} of {calls} plain or list colorings")
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(),
        "ONEPLANAR_THREADS": os.environ.get("ONEPLANAR_THREADS", "unset"),
        "inputs": len(items),
        "input_edges": sum(it.edges for it in items),
        "largest_input": max(((it.edges, it.name) for it in items))[::-1],
    }
    return {
        "env": env,
        "lines": lines,
        "e2e": e2e,
        "digests": {str(i): d for i, d in sorted(digests.items())},
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _per_layer(spec, tracer, items, latencies, builds: int) -> dict:
    """Self time per layer for one pass over the inputs, plus pass-0 counts.

    Each input contributes the median over its completed passes, so the
    figure does not depend on how many passes the run happened to fit.
    """
    out = {}
    for metric, unit, how in spec:
        if how == "setup":
            value = statistics.median(
                tracer.self_s[f"setup{k}"].get(metric, 0.0) for k in range(builds)
            )
        elif how == "ratio":
            calls = sum(tracer.counts[f"i{it.idx}.r0"]["triangulation.calls"] for it in items)
            fast = sum(tracer.counts[f"i{it.idx}.r0"]["triangulation.fast_calls"] for it in items)
            value = fast / calls if calls else 0.0
        elif unit == "s":
            value = 0.0
            for it in items:
                per_pass = [
                    tracer.self_s[f"i{it.idx}.r{r}"].get(metric, 0.0)
                    for r in range(len(latencies[it.idx]))
                ]
                if per_pass:
                    value += statistics.median(per_pass)
        else:
            first = [tracer.counts[f"i{it.idx}.r0"].get(metric, 0) for it in items]
            value = max(first) if how == "max" else sum(first)
        out[metric] = {"value": value, "unit": unit}
    return out


def _run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        e2e = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"# {name} trace {trace} exited with {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            e2e[trace] = json.loads(next(ln[6:] for ln in lines if ln.startswith("# e2e ")))
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            if trace == 0:
                for key, m in result["metrics"].items():
                    summary["metrics"][f"{name}.{key}"] = m
        for key in ("item_p50_s", "edges_per_s"):
            diff = e2e[1][key] - e2e[0][key]
            print(f"# tracing overhead {name} {key}: {diff:+.6g} "
                  f"({diff / e2e[0][key]:+.2%} of untraced {e2e[0][key]:.6g})")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("ONEPLANAR_THREADS", None)
    if args.workload == "all":
        return _run_all(args.seed, args.seconds)
    try:
        refs = load_references(args.workload, args.seed)
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), refs)
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(out["env"]))
    print("\n".join(out["lines"]))
    print("# e2e " + json.dumps(out["e2e"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
