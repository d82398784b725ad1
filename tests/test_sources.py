"""Source-level checks over every module of the package."""

import ast
import warnings
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "homprod"
SOURCES = sorted(PACKAGE.glob("*.py"))


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


def _imported_names(tree: ast.AST) -> list[str]:
    """Dotted names of every import; a relative import keeps its leading dots."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            names += [dots + ".".join(filter(None, (node.module, a.name))) for a in node.names]
    return names


def _imports_module(tree: ast.AST, module: str) -> bool:
    """True when an import statement names `module` as one of its dotted components."""
    return any(module in name.split(".") for name in _imported_names(tree))


def _private_package_imports(tree: ast.AST) -> list[str]:
    """Underscore-prefixed names imported from a module of the package."""
    return [
        name
        for name in _imported_names(tree)
        if name.startswith((".", "homprod.")) and name.rsplit(".", 1)[-1].startswith("_")
    ]


def test_gf4_layer_imports_nothing_from_gf2():
    # GF(4) keeps its own arithmetic on code arrays; it must not lean on the GF(2) kit.
    assert not _imports_module(ast.parse((PACKAGE / "gf4.py").read_text()), "gf2")


def test_import_scan_finds_every_form():
    for source in (
        "from .gf2 import BitMatrix",
        "from . import gf2",
        "import homprod.gf2",
        "from homprod.gf2 import x",
    ):
        assert _imports_module(ast.parse(source), "gf2")
    assert not _imports_module(ast.parse("from .gf4 import SYMBOLS\nimport numpy"), "gf2")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_private_names_of_another(path):
    # helpers shared across modules (gf4's null_basis and residue) stay public
    assert _private_package_imports(ast.parse(path.read_text())) == []


def test_private_import_scan_finds_package_names_only():
    tree = ast.parse(
        "from .gf4 import _rref_codes, residue\n"
        "from . import _helpers\n"
        "from homprod.gf2 import _word_count\n"
        "from __future__ import annotations\n"
        "from numpy import _globals\n"
    )
    assert _private_package_imports(tree) == [
        ".gf4._rref_codes",
        "._helpers",
        "homprod.gf2._word_count",
    ]
