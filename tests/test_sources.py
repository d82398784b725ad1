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


@pytest.mark.parametrize(
    "module, forbidden",
    [
        # the shared kernels and the search serve both fields and depend on neither
        ("linalg", "gf2"),
        ("linalg", "gf4"),
        ("linalg", "search"),
        ("search", "gf2"),
        ("search", "gf4"),
        # each field's kit stands on the shared core, not on the other field
        ("gf4", "gf2"),
        ("gf2", "gf4"),
    ],
)
def test_gf4_layer_imports_nothing_from_gf2(module, forbidden):
    assert not _imports_module(ast.parse((PACKAGE / f"{module}.py").read_text()), forbidden)


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
    # helpers shared across modules (linalg's null_basis and residue) stay public
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


# The matrix methods both fields share live once, in linalg's CodeMatrix.
SHARED_MATRIX_METHODS = {
    "__eq__", "__hash__", "__add__", "__xor__", "__matmul__", "transpose", "kron", "is_zero",
    "row_weight", "max_row_weight", "max_column_weight", "zeros", "identity", "copy",
}


def _class_body_names(tree: ast.AST, name: str) -> set[str]:
    """Names that the body of class `name` defines: its functions and assigned names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            names = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, ast.Assign):
                    names |= {n.id for t in item.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            return names
    raise LookupError(f"no class {name}")


@pytest.mark.parametrize("module, cls", [("gf2", "BitMatrix"), ("gf4", "Gf4Matrix")])
def test_field_matrices_define_none_of_the_shared_methods(module, cls):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert _class_body_names(tree, cls) & SHARED_MATRIX_METHODS == set()


def test_class_body_scan_finds_methods_and_assignments():
    tree = ast.parse(
        "class A:\n"
        "    def kron(self): ...\n"
        "    __xor__ = kron\n"
        "    field, top = 'x', 1\n"
        "    @classmethod\n"
        "    def zeros(cls): ...\n"
        "class B:\n"
        "    def copy(self): ...\n"
    )
    assert _class_body_names(tree, "A") == {"kron", "__xor__", "field", "top", "zeros"}
    assert _class_body_names(tree, "B") == {"copy"}


def _attribute_names(tree: ast.AST) -> set[str]:
    """Every attribute name the source reads, such as `packbits` in `np.packbits`."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("module", ["gf2", "search"])
def test_word_layout_stays_in_linalg(module):
    # linalg's pack_codes and unpack_codes are the one bit packing of both fields
    names = _attribute_names(ast.parse((PACKAGE / f"{module}.py").read_text()))
    assert names & {"packbits", "unpackbits"} == set()


def test_attribute_scan_finds_calls_and_references():
    tree = ast.parse("np.packbits(x, axis=1)\ny = np.unpackbits\nz.view(np.uint8)\n")
    assert _attribute_names(tree) == {"packbits", "unpackbits", "view", "uint8"}
