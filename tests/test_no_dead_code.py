"""Every top-level function and class in the package has a caller.

A definition counts as used when its name appears anywhere in src/, tests/
or benchmarks/ other than at its own definition: as a name, an attribute,
an imported name, or a string naming it (the benchmark's tracer rebinds
functions by name).
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entwine"


def _references(tree: ast.AST) -> Counter:
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs[node.value] += 1
    return refs


def test_every_top_level_definition_is_referenced():
    refs: Counter = Counter()
    for folder in ("src", "tests", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            refs += _references(ast.parse(path.read_text(), str(path)))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not refs[node.name]:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"defined but never referenced: {unused}"


def test_every_module_level_import_is_referenced():
    """Each name a package module imports at top level is read somewhere in that module."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in names:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, f"imported but never referenced: {unused}"
