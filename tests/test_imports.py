"""Every imported name in the package, its tests, the benchmark and the
tools is used, every function, class, method, property and module-level
constant the package defines is used outside the tests, every defaulted
parameter of its functions and methods is passed somewhere, and every config
key is read by the package outside `config.py`."""
import ast
import pathlib

import pytest

from mmdefense import config

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "mmdefense").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
FILES = sorted([*LIBRARY, *(ROOT / "tests").glob("*.py"), *BENCHMARK,
                *(ROOT / "tools").glob("*.py")])
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


def constant_name(stmt: ast.stmt):
    """The name that a module-level `NAME = ...` or `NAME: type = ...` binds
    when it is in upper case, else None."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return None
    if isinstance(target, ast.Name) and target.id.isupper():
        return target.id
    return None


def unreferenced_definitions(library: dict[str, str], users: dict[str, str]) -> list[str]:
    """Module-level functions, classes and upper-case constants of `library`
    (name -> source), and the non-dunder methods and properties of its
    classes, that no source in `library` or `users` refers to outside their
    own definition.  A reference is a Name, an Attribute or an imported
    name."""
    defined, used = {}, set()
    for path, source in {**library, **users}.items():
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, DEFINITIONS):
                constant = constant_name(stmt)
                if constant is not None and path in library:
                    defined[f"{path}: {constant}"] = constant
                used |= referenced_names(stmt) - {constant}
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


def test_scan_finds_an_unreferenced_constant():
    library = {"a.py": "A = 1\nB = A\nC_D: int = 2\nE = E + 1\nlower = 3\n"
                       "X, Y = 1, 2\n__all__ = []\n"
                       "def f():\n    return C_D\n"}
    users = {"b.py": "from a import f\nF = 1\n"}
    assert unreferenced_definitions(library, users) == ["a.py: B", "a.py: E"]


def sources(paths) -> dict[str, str]:
    return {f"{p.parent.name}/{p.name}": p.read_text() for p in paths}


def test_every_library_definition_is_used_outside_the_tests():
    assert unreferenced_definitions(sources(LIBRARY), sources(BENCHMARK)) == []


def unpassed_defaults(library: dict[str, str], users: dict[str, str]) -> list[str]:
    """Defaulted parameters of the module-level functions and methods of
    `library` (name -> source) that no call in `library` or `users` passes:
    by keyword, by position at the parameter's index, or through `*args` /
    `**kwargs`.  A call matches by the called name, and a call on a class
    counts for its `__init__`.  Dataclass fields are not parameters here."""
    wanted = []  # (label, called name, keyword, position or None)

    def collect(label: str, called: str, args: ast.arguments, skip: int):
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            wanted.append((f"{label}({arg.arg})", called, arg.arg, i - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                wanted.append((f"{label}({arg.arg})", called, arg.arg, None))

    for path, source in library.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, FUNCTIONS):
                collect(f"{path}: {stmt.name}", stmt.name, stmt.args, 0)
            elif isinstance(stmt, ast.ClassDef):
                for m in stmt.body:
                    if isinstance(m, FUNCTIONS):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in m.decorator_list)
                        called = stmt.name if m.name == "__init__" else m.name
                        collect(f"{path}: {stmt.name}.{m.name}", called, m.args,
                                0 if static else 1)
    calls = {}  # called name -> [(keywords, positional count, splatted)]
    for source in {**library, **users}.values():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords = {k.arg for k in node.keywords}
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append((keywords, len(node.args), starred))
    return [label for label, called, keyword, position in wanted
            if not any(keyword in keywords or None in keywords
                       or (position is not None and (starred or count > position))
                       for keywords, count, starred in calls.get(called, []))]


def test_scan_finds_an_unpassed_default():
    library = {"a.py": (
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(x=0): pass\n"
        "def h(y=0): pass\n"
        "def unused(u=0):\n    def inner(z=0): pass\n"  # not a method: not scanned
        "class C:\n"
        "    def __init__(self, p=0, q=0): pass\n"
        "    def m(self, r=0, s=0): pass\n"
        "    @staticmethod\n    def n(t=0): pass\n"
        "f(0, 1, d=3)\nC(1)\n")}
    users = {"b.py": "import a\na.g(*[])\nh(**{})\nobj.m(0)\nC.n(1)\n"}
    assert unpassed_defaults(library, users) == [
        "a.py: f(c)", "a.py: f(e)", "a.py: unused(u)", "a.py: C.__init__(q)",
        "a.py: C.m(s)"]


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call overrides is a code path nothing takes
    assert unpassed_defaults(sources(LIBRARY), sources(FILES)) == []


# Defaults that only the tests pass, each with the reason it is kept; a new
# knob that only a test turns joins this list or fails here
TEST_ONLY_DEFAULTS = {
    "mmdefense/attacks.py: adaptive_pgd_eot(alpha)": "the attack portfolio's alpha sweep",
    "mmdefense/attacks.py: adaptive_pgd_eot(reference)": "attacking against the S_V reference",
    "mmdefense/cli.py: main(argv)": "the CLI's entry point for tests",
}


def test_only_the_listed_defaults_are_passed_by_tests_alone():
    assert (unpassed_defaults(sources(LIBRARY), sources(BENCHMARK))
            == sorted(TEST_ONLY_DEFAULTS))


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
