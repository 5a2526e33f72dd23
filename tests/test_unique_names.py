"""A module that defines a top-level name twice keeps only the second
definition: a shadowed test never runs and a shadowed function is dead
code, with no warning from pytest or Python."""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "lpgst").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


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
