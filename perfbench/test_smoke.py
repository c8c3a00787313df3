"""Smoke test of the benchmark at tiny sizes; no timing is checked.

Each workload runs traced twice on the same seed for exactly one pass.
Every item must pass its checks, and the digests and every deterministic
counter must repeat exactly.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counters_repeat(name):
    outs = [run.measure(name, 7, 0.0, True, {}, tiny=True) for _ in range(2)]
    counts = []
    for out in outs:
        result = out["result"]
        assert result["correct"] and result["failed"] == 0, out["lines"]
        assert result["attempted"] == out["env"]["inputs"]
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"})
    assert counts[0] == counts[1]
    assert outs[0]["digests"] == outs[1]["digests"]
    c = counts[0]
    if name == "pipeline-large":
        assert c["triangulation.fast_path_ratio"] == 1 and c["coloring.plan_steps"] > 0
    if name == "triangulate-thinned":
        assert c["triangulation.fill_edges"] > 0 and c["triangulation.kite_edges"] > 0
    if name == "suite-small":
        assert c["cli.checks"] > 0 and c["cli.check_failures"] == 0
    if name == "lists-witness":
        assert c["coloring.witness_cycles"] > 0
