"""A module that defines a top-level name twice keeps only the second
definition: a shadowed test never runs and a shadowed function is dead
code, with no warning from pytest or Python. An import that nothing reads
is dead code of the same kind, and so is a top-level name of the package
that only tests read."""
import ast
from collections import Counter
from pathlib import Path

import pytest

import lpgst

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "lpgst").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def _duplicate_definitions(source: str) -> list[str]:
    """Top-level function and class names defined more than once."""
    names = Counter(node.name for node in ast.parse(source).body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef)))
    return sorted(name for name, count in names.items() if count > 1)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_top_level_name_defined_twice(path):
    assert _duplicate_definitions(path.read_text(encoding="utf-8")) == []


def test_duplicate_definitions_are_found():
    source = ("def test_a():\n    pass\n\nclass B:\n    pass\n\n"
              "async def test_a():\n    pass\n\ndef c():\n    def c():\n"
              "        pass\n")
    assert _duplicate_definitions(source) == ["test_a"]


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import (other than from __future__) that the
    module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


# a package's __init__ imports names to re-export them
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport numbers\n"
              "import numpy as np\nimport os.path\nfrom math import pi, tau\n"
              "def f(x: np.ndarray):\n    import sys\n    return os.path.join(tau)\n")
    assert _unused_imports(source) == ["numbers", "pi", "sys"]


def _unread_top_level_names(sources: dict[str, str]) -> list[str]:
    """"module.name" for each name that a module's top level defines (def,
    class or assignment) and that no module reads: as a name, an
    attribute or an imported name. Dunder names are exempt."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [t.id for t in ast.walk(node)
                         if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names
                       if name not in read and not name.startswith("__")]
    return sorted(unread)


def test_every_package_name_is_read_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert _unread_top_level_names(sources) == []


def test_unread_top_level_names_are_found():
    sources = {"a": ("__all__ = ['f']\nLIMIT = 2\n_BLOCK, (x, y) = 3, (4, 5)\n"
                     "def f():\n    return LIMIT + y\n"
                     "def _only_tests():\n    pass\nclass C:\n    D = 1\n"),
               "b": "from .a import f\nimport a\nprint(a.C)\n"}
    assert _unread_top_level_names(sources) == ["a._BLOCK", "a._only_tests", "a.x"]


def _one_value_parameters(sources: dict[str, str]) -> list[str]:
    """"module.function(parameter)" for each parameter of a private
    top-level function that every call in the modules passes the same
    literal, by position or by keyword: a constant in disguise. A call
    that passes the parameter through * or ** counts as passing no
    literal."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    functions = {node.name: (module, node) for module, tree in trees.items()
                 for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name.startswith("_") and not node.name.startswith("__")}
    calls = {name: [] for name in functions}
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in calls:
                calls[name].append(node)
    found = []
    for name, (module, func) in functions.items():
        positional = [a.arg for a in func.args.posonlyargs + func.args.args]
        for param in positional + [a.arg for a in func.args.kwonlyargs]:
            values = set()
            for call in calls[name]:
                value = next((k.value for k in call.keywords if k.arg == param),
                             None)
                if param in positional:
                    head = call.args[:positional.index(param) + 1]
                    if (len(head) > positional.index(param)
                            and not any(isinstance(a, ast.Starred) for a in head)):
                        value = head[-1]
                if not isinstance(value, ast.Constant):
                    break
                values.add((type(value.value), value.value))
            else:
                if len(values) == 1:
                    found.append(f"{module}.{name}({param})")
    return sorted(found)


def test_no_private_parameter_takes_one_value():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert _one_value_parameters(sources) == []


def test_one_value_parameters_are_found():
    sources = {"a": ("def _f(x, y, *, z=1):\n    pass\n"
                     "def _g(x, y=2):\n    pass\n"
                     "def _h(x):\n    pass\n"
                     "def public(x):\n    pass\n"
                     "def _unused(x):\n    pass\n"),
               "b": ("import a\nfrom a import _f, _g, _h\nv = [4]\n"
                     "_f(1, 2, z=3)\n_f(1, y=v, z=3)\n"
                     "_g(5)\na._g(5, y=2)\n_g(*v)\n"
                     "_h(1)\n_h(True)\npublic(1)\npublic(1)\n")}
    assert _one_value_parameters(sources) == ["a._f(x)", "a._f(z)"]


def test_package_all_matches_its_imports():
    # a stale __all__ entry breaks `from lpgst import *`
    init = ROOT / "src" / "lpgst" / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for a in node.names}
    assert len(lpgst.__all__) == len(set(lpgst.__all__))
    assert [name for name in lpgst.__all__ if not hasattr(lpgst, name)] == []
    assert set(lpgst.__all__) == imported
