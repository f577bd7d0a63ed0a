"""The package source stays inside the Python floor that pyproject.toml
declares and carries the version it declares."""

import ast
import re
from pathlib import Path

import pytest

import hyparr
from hyparr.report import TOOL_VERSION

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hyparr").glob("*.py"))


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
