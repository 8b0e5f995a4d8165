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
