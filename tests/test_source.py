"""Guards on the package source and the scripts shipped beside it."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toughgraph

SOURCES = sorted(Path(toughgraph.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_no_function_calls_itself():
    # the searches run on explicit stacks: a function that calls itself
    # by name can pass the interpreter's recursion limit on a large graph
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        )
    ]
    assert found == []


def test_no_module_imports_a_private_name_from_synth():
    # synth owns the regime table and its rules; other modules read them
    # through its public functions only
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in (("synth", 1), ("toughgraph.synth", 0))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_the_cli_imports_no_private_name_from_graphs():
    # graphs owns the graph formats, their reader and their writers; the
    # command line reaches them through its public names only
    cli = Path(toughgraph.__file__).parent / "cli.py"
    found = [
        f"{node.lineno} {alias.name}"
        for node in ast.walk(ast.parse(cli.read_text(), filename=str(cli)))
        if isinstance(node, ast.ImportFrom)
        and (node.module, node.level) in (("graphs", 1), ("toughgraph.graphs", 0))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_the_verifier_names_no_graph6_coder():
    # graphs validates, compares and decodes graph6 input; the verifier
    # only asks it whether its input is the rebuilt graph
    verify = Path(toughgraph.__file__).parent / "verify.py"
    coders = {"iter_graph6", "encode_graph6", "decode_graph6"}
    found = [
        f"{node.lineno} {name}"
        for node in ast.walk(ast.parse(verify.read_text(), filename=str(verify)))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else []
        )
        if name in coders
    ]
    assert found == []


def test_the_package_reexports_each_modules_public_names():
    # __init__ star-imports every module, so a name in two modules'
    # __all__ would silently resolve to the later module's object
    modules = [toughgraph.blocks, toughgraph.graphs, toughgraph.oracles,
               toughgraph.synth, toughgraph.verify]
    names = [name for module in modules for name in module.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(toughgraph, name) is getattr(module, name), (module.__name__, name)
    assert len(names) == len(set(names))
    assert not set(names) & {path.stem for path in SOURCES}
    assert len(toughgraph.__all__) == len(set(toughgraph.__all__))
    assert set(toughgraph.__all__) == {*names, "__version__"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=600
    )
    assert r.returncode == 0, r.stderr
