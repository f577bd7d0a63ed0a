"""The package source stays inside the Python floor that pyproject.toml
declares, carries the version it declares, and, with the tests, imports
nothing it does not use."""

import ast
import re
from pathlib import Path

import pytest

import hyparr
from hyparr.report import TOOL_VERSION

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hyparr").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def declared_floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_floor_is_3_10_and_its_parse_rejects_3_11_syntax():
    assert declared_floor() == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=declared_floor())


def test_package_and_report_carry_the_declared_version():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (declared,) = re.findall(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert hyparr.__version__ == TOOL_VERSION == declared


def unused_imports(tree):
    """Names bound by an import that nothing in the module reads.

    ``import a.b`` binds ``a``; a name listed in ``__all__`` is read, and
    ``from __future__`` imports bind nothing.
    """
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_imports_are_found():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path\nimport re as regex\n"
        "from x import a, b as c\n__all__ = ['a']\nos.sep\n"
    )
    assert unused_imports(tree) == [(3, "regex"), (4, "c")]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []
