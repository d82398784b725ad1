"""Source-level checks over every module of the package."""

import ast
import warnings
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "homprod").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def _bare_assertions(tree: ast.AST) -> list[int]:
    """Lines of `assert` statements and of `raise AssertionError`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_internal_checks_survive_optimized_mode(path):
    # `assert` vanishes under `python -O`; internal checks raise InvariantError.
    assert _bare_assertions(ast.parse(path.read_text())) == []


def test_bare_assertion_scan_finds_both_forms():
    tree = ast.parse(
        "assert x\n"
        "raise AssertionError('a')\n"
        "raise AssertionError\n"
        "raise InvariantError('b')\n"
    )
    assert _bare_assertions(tree) == [1, 2, 3]
