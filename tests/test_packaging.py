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


def _sources():
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted((ROOT / "src" / "projnorm").rglob("*.py"))]


def _breaks(loop):
    """Whether a break of the loop's own is in its body."""
    stack = list(loop.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Break):
            return True
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            stack += node.orelse  # a break in a nested loop's else leaves this one
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                   ast.Lambda)):
            stack += ast.iter_child_nodes(node)
    return False


def test_no_statement_follows_an_endless_loop():
    # a `while True:` with no break of its own is left by return or raise
    # only, so a statement after it never runs
    found = []
    for path, tree in _sources():
        for node in ast.walk(tree):
            for field in "body", "orelse", "finalbody":
                body = getattr(node, field, None)
                if not isinstance(body, list):
                    continue
                for loop, after in zip(body, body[1:]):
                    if (isinstance(loop, ast.While) and isinstance(loop.test, ast.Constant)
                            and loop.test.value is True and not _breaks(loop)):
                        found.append(f"{path.name}:{after.lineno}")
    assert not found, found


def test_private_module_names_are_used():
    # a module-level underscore name nothing in src/ reads is dead code
    defined, used = [], set()
    for path, tree in _sources():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(path.name, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{file}:{line}: {name}" for file, line, name in defined if name not in used]
    assert defined and not unused, unused


def test_no_unbuffered_add_at_in_the_package():
    # np.add.at scatters one element at a time; np.bincount adds in the same
    # order and is several times faster.  np.minimum.at has no such stand-in
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _sources() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "at"
             and isinstance(node.value, ast.Attribute) and node.value.attr == "add"
             and isinstance(node.value.value, ast.Name)
             and node.value.value.id in {"np", "numpy"}]
    assert not found, found
