"""Every imported name in the package, its tests and the benchmark is used,
every function, class, method and property the package defines is used
outside the tests, and every config key is read by the package outside
`config.py`."""
import ast
import pathlib

import pytest

from mmdefense import config

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "mmdefense").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
FILES = sorted([*LIBRARY, *(ROOT / "tests").glob("*.py"), *BENCHMARK])
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nfrom a import b, c as d\nfrom __future__ import x\nd()\n"
    assert unused_imports(source) == ["line 1: os", "line 2: b"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(node: ast.AST) -> set[str]:
    """Names, attributes and imported names that `node` refers to."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def unreferenced_definitions(library: dict[str, str], users: dict[str, str]) -> list[str]:
    """Module-level functions and classes of `library` (name -> source), and
    the non-dunder methods and properties of its classes, that no source in
    `library` or `users` refers to outside their own definition.  A
    reference is a Name, an Attribute or an imported name."""
    defined, used = {}, set()
    for path, source in {**library, **users}.items():
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, DEFINITIONS):
                used |= referenced_names(stmt)
                continue
            if path in library:
                defined[f"{path}: {stmt.name}"] = stmt.name
            members = [m for m in stmt.body if isinstance(stmt, ast.ClassDef)
                       and isinstance(m, FUNCTIONS)
                       and not m.name.startswith("__")]
            for child in ast.iter_child_nodes(stmt):
                if child in members:
                    used |= referenced_names(child) - {stmt.name, child.name}
                    if path in library:
                        defined[f"{path}: {stmt.name}.{child.name}"] = child.name
                else:
                    used |= referenced_names(child) - {stmt.name}
    return [key for key, name in defined.items() if name not in used]


def test_scan_finds_an_unreferenced_definition():
    library = {"a.py": "def f():\n    return f()\nclass C: pass\ndef g(): pass\n"
                       "def h(): pass\nx = C\n"}
    users = {"b.py": "from a import g\nimport a\na.h()\n"}
    assert unreferenced_definitions(library, users) == ["a.py: f"]


def test_scan_finds_an_unreferenced_method():
    library = {"a.py": (
        "class C:\n"
        "    def __init__(self): pass\n"
        "    def m(self):\n        return self.m()\n"
        "    def n(self): return C\n"
        "    @property\n    def p(self): pass\n"
        "    @p.setter\n    def p(self, v): pass\n"
        "    @property\n    def q(self): pass\n"
        "    @q.setter\n    def q(self, v): pass\n"
        "    def used(self): return self.n()\n"
        "def f():\n    def inner(): pass\n"  # not a method: not scanned
        "x = C().used().q, f()\n")}
    assert unreferenced_definitions(library, {}) == ["a.py: C.m", "a.py: C.p"]


def test_every_library_definition_is_used_outside_the_tests():
    def sources(paths):
        return {f"{p.parent.name}/{p.name}": p.read_text() for p in paths}

    assert unreferenced_definitions(sources(LIBRARY), sources(BENCHMARK)) == []


def config_reads(source: str) -> set[str]:
    """Attributes read as `cfg.<name>` in `source`."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}


def test_scan_finds_config_reads():
    source = "cfg.seed = 1\nx = cfg.dataset\nf(other.trials, cfg.alpha)\n"
    assert config_reads(source) == {"dataset", "alpha"}


def test_every_config_key_is_read_outside_config():
    # a key that parses but that no run reads is a setting that does nothing
    read = set()
    for path in LIBRARY:
        if path.name != "config.py":
            read |= config_reads(path.read_text())
    assert sorted(set(config._FIELDS) - read) == []
