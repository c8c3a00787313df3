"""``scripts/scale.py`` records call and full-collection counts that do not
move between runs, and a tracemalloc peak for every layer."""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scale.py"


def _load_scale():
    spec = importlib.util.spec_from_file_location("scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calls_are_identical_between_runs():
    scale = _load_scale()
    first, second = (scale.measure(60, Fraction(1, 2), 1) for _ in range(2))
    calls = {name: layer["calls"] for name, layer in first["layers"].items()}
    assert set(calls) == set(scale.LAYERS) and all(calls.values())
    assert calls == {name: layer["calls"] for name, layer in second["layers"].items()}
    gc_full = {name: layer["gc_full"] for name, layer in first["layers"].items()}
    assert all(isinstance(count, int) and count >= 0 for count in gc_full.values())
    assert gc_full == {name: layer["gc_full"] for name, layer in second["layers"].items()}
    assert all(layer["peak_kib"] > 0 for layer in first["layers"].values())
    assert {k: v["digest"] for k, v in first["layers"].items()} == {
        k: v["digest"] for k, v in second["layers"].items()
    }
