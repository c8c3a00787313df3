"""Every name a package module imports is used in that module, every
private module-level function, class or constant is used where it is
defined, every public function or method is read somewhere in the
package, its tests or its benchmark, and no module reads a private
attribute that only another module's classes define, and no package
module uses ``assert``, which ``python -O`` strips.

The package re-exports its public API from ``__init__.py``, so that file is
not checked and its re-exports are not reads; ``from __future__`` imports
bind nothing that code refers to.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oneplanar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = sorted(
    p
    for top in ("src", "tests", "perfbench")
    for p in (ROOT / top).rglob("*.py")
    if p != PACKAGE / "__init__.py"
)


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


def public_functions(source: str) -> dict[str, int]:
    """Public module-level functions and methods of module-level classes, by line."""
    tree = ast.parse(source)
    found: dict[str, int] = {}
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.setdefault(item.name, item.lineno)
    return {name: line for name, line in found.items() if not name.startswith("_")}


def names_read(source: str) -> set[str]:
    """Names loaded and attributes read; an import or a definition is not a read."""
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_public_function_detector_sees_definitions_and_reads():
    src = (
        "from m import f\n"
        "def f():\n    pass\n"
        "class K:\n    def m(self):\n        pass\n"
        "    def _p(self):\n        pass\n"
        "    @property\n    def q(self):\n        return g(self.m)\n"
        "def _h():\n    pass\n"
    )
    assert public_functions(src) == {"f": 2, "m": 5, "q": 10}
    read = names_read(src)
    assert {"g", "m", "self"} <= read and not read & {"f", "q"}


def test_every_public_function_is_read():
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in READERS))
    unread = [
        f"{path.name}: {name} (line {line})"
        for path in MODULES
        for name, line in public_functions(path.read_text(encoding="utf-8")).items()
        if name not in read
    ]
    assert unread == []


def self_calls(source: str) -> list[str]:
    """Functions, nested ones and methods included, whose body calls the
    function itself by name (``f(...)``, or ``self.f(...)`` in a method)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if (isinstance(f, ast.Name) and f.id == node.name) or (
                    isinstance(f, ast.Attribute)
                    and f.attr == node.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "self"
                ):
                    found.append(f"{node.name} (line {node.lineno})")
                    break
    return found


def test_self_call_detector_sees_recursion():
    src = (
        "def f(n):\n    return f(n - 1) if n else 0\n"
        "def outer():\n    def rec(i):\n        return i and rec(i - 1)\n    return rec(3)\n"
        "class K:\n    def m(self):\n        return self.m()\n"
        "    def p(self, other):\n        return other.p() + g(self.q)\n"
        "def g(x):\n    return f(x)\n"
    )
    assert self_calls(src) == ["f (line 1)", "rec (line 4)", "m (line 8)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    # recursion depth would grow with the input; every search is iterative
    assert self_calls(path.read_text(encoding="utf-8")) == []


def class_private_attributes(source: str) -> set[str]:
    """Private attributes the module's classes define: methods, class-level
    names, ``__slots__`` entries and ``self._x`` assignments."""
    found: set[str] = set()
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(item.name)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                found.update(names)
                if "__slots__" in names:
                    found.update(
                        c.value for c in ast.walk(item.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)
                    )
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                found.add(node.attr)
    return {name for name in found if name.startswith("_") and not name.endswith("__")}


def private_reads(source: str, names: set[str]) -> list[str]:
    """Attribute reads ``obj._x`` of the given private names, by line."""
    return [
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in names
    ]


def test_private_attribute_detector_sees_foreign_reads():
    a = (
        "class K:\n    __slots__ = ('_s', 'n')\n    _c = 1\n"
        "    def __init__(self):\n        self._x = 0\n"
        "    def _m(self):\n        return self._x\n"
    )
    b = (
        "class L:\n    def __init__(self):\n        self._own = 1\n"
        "def f(k, l):\n    return k._x + k._m() + l._own + k.n\n"
    )
    assert class_private_attributes(a) == {"_s", "_c", "_x", "_m"}
    foreign = class_private_attributes(a) - class_private_attributes(b)
    assert private_reads(b, foreign) == ["_x (line 5)", "_m (line 5)"]


def test_no_module_reads_another_modules_private_attributes():
    # a private attribute is read only where its class is defined; another
    # module goes through a public name
    own = {path: class_private_attributes(path.read_text(encoding="utf-8")) for path in MODULES}
    found = []
    for path in MODULES:
        foreign = set().union(*(names for other, names in own.items() if other != path))
        foreign -= own[path]
        found += [f"{path.name}: {r}" for r in private_reads(path.read_text(encoding="utf-8"), foreign)]
    assert found == []


def asserts(source: str) -> list[str]:
    """``assert`` statements, by line."""
    tree = ast.parse(source)
    return [f"assert (line {node.lineno})" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_assert_detector_sees_asserts():
    src = (
        "def f(x):\n    assert x, 'msg'\n"
        "    if x:\n        assert x > 1\n    return x\n"
        "ok = 'assert'\n"
    )
    assert asserts(src) == ["assert (line 2)", "assert (line 4)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_asserts(path):
    # a check that python -O strips is no check; the package raises instead
    assert asserts(path.read_text(encoding="utf-8")) == []
