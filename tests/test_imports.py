"""Every name a package module imports is used in that module, and every
private module-level function, class or constant is used where it is defined.

The package re-exports its public API from ``__init__.py``, so that file is
not checked; ``from __future__`` imports bind nothing that code refers to.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oneplanar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_name`` functions, classes and constants never read in the module."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [
        f"{name} (line {line})"
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]


def test_detector_sees_unused_and_used_names():
    src = "from __future__ import annotations\nimport os\nfrom a.b import c, d as e\nx: c = e\n"
    assert unused_imports(src) == ["os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_private_name_detector_sees_unused_and_used_names():
    src = (
        "_A = 1\n_B: int = 2\n_C = _B\n__all__ = []\n"
        "def _f():\n    return _g()\n"
        "def _g():\n    pass\n"
        "class _K:\n    def _m(self):\n        pass\n"
        "def public():\n    _local = 1\n"
    )
    assert unused_private_names(src) == ["_A (line 1)", "_C (line 3)", "_f (line 5)", "_K (line 9)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []
