"""``[project].dependencies`` declares exactly the third-party packages
that ``src/repro`` imports: nothing undeclared, nothing unused."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules():
    """Top-level module of every absolute ``import``/``from`` under
    ``src/repro``."""
    found = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found


def test_declared_dependencies_are_exactly_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
             for req in declared}
    third_party = imported_top_level_modules() - set(sys.stdlib_module_names) - {"repro"}
    assert third_party == names
