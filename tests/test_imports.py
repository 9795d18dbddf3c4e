"""Every module of the package and every test file uses what it
imports, the package imports no third-party module that pyproject.toml
does not declare and declares none it does not import, every top-level
function and class of the package has a reader, the package root exports
only names the README uses, and the README's library example runs as
written.

``__init__.py`` only re-exports, so the unused-import and reader checks
skip it; ``from __future__ import annotations`` is never a use.
"""

import ast
import pathlib
import re
import sys

import numpy as np
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


def test_dependencies_are_the_third_party_imports():
    """The top-level modules the package imports, less the standard
    library and the package itself, are the ``dependencies`` of
    pyproject.toml, so a runtime dependency is neither dropped from the
    list nor added to the code unnoticed."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    imported = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= set(sys.stdlib_module_names) | {"shiftwatch"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_") for dep in project["dependencies"]}
    assert imported == declared


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
                defined.append((path.name, stmt.name))
            # a definition that names itself (recursion) is not its own reader
            own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else set()
            named |= _named(stmt) - own
    unread = [f"{module}: {name}" for module, name in defined if name not in named | readme]
    assert not unread, f"definitions that nothing reads: {unread}"


def test_readme_library_example_runs():
    """The ``## Library`` block of README.md runs as written, on small
    synthetic ``features``, ``errors`` and ``production_feature_chunks``
    whose error rises with f0 and whose production rows drift to high f0,
    so the alarm latches and the loop breaks."""
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    rng = np.random.default_rng(0)
    features = rng.random((400, 3))
    drifted = rng.random((2000, 3)) * [0.3, 1.0, 1.0] + [0.7, 0.0, 0.0]
    names = {"features": features, "errors": 0.9 * features[:, 0], "production_feature_chunks": np.split(drifted, 20)}
    exec(compile(code, "README.md", "exec"), names)
    state = names["state"]
    assert state.phi_q2 and state.t < 2000 and len(names["rows"]) == 100
