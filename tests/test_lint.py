"""Static checks over the package source (no linter is a dependency)."""

import ast
import re
from pathlib import Path

import pytest

import s2fpn

PACKAGE = Path(s2fpn.__file__).parent
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
# where the product reaches package code from: the package itself, the
# benchmark and the documented interface (tests do not count)
PRODUCT = "\n".join(
    p.read_text()
    for p in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), ROOT / "README.md"]
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; `from __future__` is skipped."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    source = "from .errors import ConfigError, ShapeError\nraise ConfigError()\n"
    assert unused_imports(source) == ["line 1: ShapeError"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreached_definitions(source: str, product: str) -> list[str]:
    """Top-level def/class names of `source` that `product` names only once,
    at the definition itself."""
    tree = ast.parse(source)
    names = [n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    return [name for name in names if len(re.findall(rf"\b{name}\b", product)) < 2]


def test_detects_a_definition_named_nowhere_else():
    source = "def used():\n    pass\n\n\ndef orphan():\n    return used()\n"
    assert unreached_definitions(source, source) == ["orphan"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_definition_only_tests_reach(path):
    assert unreached_definitions(path.read_text(), PRODUCT) == []
