"""Guards on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import toughgraph

SOURCES = sorted(Path(toughgraph.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips asserts, so a soundness check written as one
    # silently stops checking; checks must raise explicit errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 6
    assert found == []
