"""The layout of a Matrix stays inside exactlin.

exactlin holds each matrix as one dict of nonzeros per row; `Matrix.data`,
the dense row-major view, is there for tests and benchmarks.  No other
module of the package reads that view, its cache or the row dicts, so the
representation can change in exactlin alone.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "entwine"
LAYOUT = {"data", "_data", "_rows", "_of_rows"}


def test_only_exactlin_reads_the_layout():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "exactlin.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in LAYOUT:
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not reads, f"Matrix layout read outside exactlin: {reads}"
