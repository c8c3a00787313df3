"""Every name a package module imports is used in that module, every
import names a sibling module or the standard library, every private
module-level function, class or constant is used where it is defined,
every public function or method is read by the pipeline (a package
module, the benchmark or the scripts; a test is not a reader), no module
reads a private attribute that only another module's classes define, and
no package module uses ``assert``, which ``python -O`` strips.

The package re-exports its public API from ``__init__.py``, so that file is
not checked and its re-exports are not reads; ``from __future__`` imports
bind nothing that code refers to.  A read is an AST load: a method is read
only through an attribute (``g.degree``), never through a same-named local
variable, and a word in a docstring is no read at all.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oneplanar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def reader_files(root: Path) -> list[Path]:
    """The files whose reads count: the package's modules but ``__init__.py``,
    the benchmark and the scripts."""
    package = root / "src" / "oneplanar"
    found = [*package.glob("*.py"), *(root / "perfbench").rglob("*.py"), *(root / "scripts").rglob("*.py")]
    return sorted(p for p in found if p != package / "__init__.py")


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


def public_functions(source: str) -> list[tuple[str, int, bool]]:
    """Public module-level functions and methods of module-level classes,
    as (name, line, is a method)."""
    found = []
    for node in ast.parse(source).body:
        method = isinstance(node, ast.ClassDef)
        for item in node.body if method else [node]:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                found.append((item.name, item.lineno, method))
    return found


def names_read(source: str) -> tuple[set[str], set[str]]:
    """(names loaded, attributes loaded); an import, a definition, a store or
    a docstring word is not a read."""
    names: set[str] = set()
    attributes: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return names, attributes


def unread_public_functions(modules: list[Path], readers: list[Path]) -> list[str]:
    """Public functions no reader loads, and public methods no reader reads
    as an attribute, by module and line."""
    names: set[str] = set()
    attributes: set[str] = set()
    for path in readers:
        n, a = names_read(path.read_text(encoding="utf-8"))
        names |= n
        attributes |= a
    return [
        f"{path.name}: {name} (line {line})"
        for path in modules
        for name, line, method in public_functions(path.read_text(encoding="utf-8"))
        if name not in attributes and (method or name not in names)
    ]


def test_public_function_detector_sees_definitions_and_reads(tmp_path):
    package = tmp_path / "src" / "oneplanar"
    (tmp_path / "tests").mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .a import f, only_tested\nf\nonly_tested\n")
    (package / "a.py").write_text(
        '"""f, only_tested, K.m and K.q are public; g.degrees is documented."""\n'
        "def f():\n    return K().m()\n"
        "def only_tested():\n    pass\n"
        "class K:\n    def m(self):\n        pass\n"
        "    def _p(self):\n        pass\n"
        "    @property\n    def q(self):\n        pass\n"
        "    def degrees(self):\n        pass\n"
        "def _h():\n    pass\n"
    )
    (tmp_path / "scripts" / "s.py").write_text("from oneplanar.a import f\ndegrees = [1]\nf(degrees)\n")
    (tmp_path / "tests" / "test_a.py").write_text(
        "from oneplanar.a import K, only_tested\nonly_tested(K().q)\n"
    )
    assert public_functions((package / "a.py").read_text()) == [
        ("f", 2, False),
        ("only_tested", 4, False),
        ("m", 7, True),
        ("q", 12, True),
        ("degrees", 14, True),
    ]
    readers = reader_files(tmp_path)
    assert readers == [tmp_path / "scripts" / "s.py", package / "a.py"]
    # only_tested is read by a test alone, q likewise, and degrees only as a
    # local variable and a docstring word
    assert unread_public_functions([package / "a.py"], readers) == [
        "a.py: only_tested (line 4)", "a.py: q (line 12)", "a.py: degrees (line 14)",
    ]


def test_every_public_function_is_read():
    # every public name is there for the pipeline; one that only tests read
    # is dead code with a test.  No name is exempt.
    assert unread_public_functions(MODULES, reader_files(ROOT)) == []


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of modules outside the standard library, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            tops = [node.module.split(".")[0]]
        else:
            continue
        found += [f"{top} (line {node.lineno})" for top in tops if top not in sys.stdlib_module_names]
    return found


def test_foreign_import_detector_sees_third_party_modules():
    src = (
        "from __future__ import annotations\nimport os, numpy.linalg\n"
        "from . import model\nfrom .model import X\nfrom fractions import Fraction\n"
        "def f():\n    from networkx import Graph\n    import hypothesis as h\n"
    )
    assert foreign_imports(src) == ["numpy (line 2)", "networkx (line 7)", "hypothesis (line 8)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_is_stdlib_only(path):
    # the package runs on a bare Python; only tests may use other packages
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


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
