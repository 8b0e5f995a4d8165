import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[1]


def test_third_party_imports_are_declared():
    # an import the package does not declare fails only where it is missing
    with open(ROOT / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9._-]+", dep)[0].lower() for dep in dependencies}
    imported = set()
    for path in (ROOT / "src" / "projnorm").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"projnorm"}
    assert "numpy" in third_party
    assert third_party <= declared, f"undeclared: {sorted(third_party - declared)}"


def test_modules_use_no_private_name_of_a_sibling():
    # a module that needs another's underscore name is sharing a duplicate
    # path; the public function is the one way in
    found = []
    for path in (ROOT / "src" / "projnorm").rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                if node.module is None:  # from . import x as alias
                    siblings.update(alias.asname or alias.name for alias in node.names)
                else:
                    found += [f"{path.name}: from .{node.module} import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in siblings):
                found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert not found, found
