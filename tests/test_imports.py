"""Every module of the package and every test file uses what it
imports, every top-level function and class of the package has a reader,
and the package root exports only names the README uses.

``__init__.py`` only re-exports, so the first two checks skip it;
``from __future__ import annotations`` is never a use.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shiftwatch"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _imported(tree):
    """(bound name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _used(tree):
    """Names read anywhere, including inside quoted annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _used(ast.parse(ann.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: str(p.relative_to(PACKAGE if p.parent == PACKAGE else ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"line {line}: {name}" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _is_click_command(node):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _named(node):
    """Identifiers a statement names: variables, attributes, and string
    constants that are identifiers (``getattr(cli, "predict")``)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names.add(sub.value)
    return names


def test_package_root_is_the_documented_api():
    """``__init__.py`` re-exports only names that README.md uses."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    undocumented = sorted(name for name, _ in _imported(tree) if name not in readme)
    assert not undocumented, f"the package root exports names README.md never uses: {undocumented}"


def test_every_definition_has_a_reader():
    """A top-level function or class that no module of the package (other
    than its own definition and ``__init__.py``), no benchmark script and
    no README line names exists for nobody; tests do not count."""
    readers = [(p, ast.parse(p.read_text())) for p in MODULES]
    readers += [(p, ast.parse(p.read_text())) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    defined = []
    named = set()
    for path, tree in readers:
        for stmt in tree.body:
            if path.parent == PACKAGE and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not _is_click_command(stmt):
                    defined.append((path.name, stmt.name))
            # a definition that names itself (recursion) is not its own reader
            own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else set()
            named |= _named(stmt) - own
    unread = [f"{module}: {name}" for module, name in defined if name not in named | readme]
    assert not unread, f"definitions that nothing reads: {unread}"
