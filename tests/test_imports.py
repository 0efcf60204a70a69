"""Every name a module of the package imports is read somewhere in that
module, and the package namespace holds only its modules."""

import ast
import os
import types

import pytest

import edgestat

SRC = os.path.dirname(edgestat.__file__)
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded, skipping
    ``__future__`` imports and lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # string annotations such as -> "ValueDist" name a class without loading it
    read |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom fractions import Fraction\nos.sep\n") == ["Fraction (line 2)"]
    assert unused_imports("from x import y  # noqa: F401\n") == []


def test_package_binds_only_its_modules():
    # Each library name has one import path: the module that defines it.
    stray = [
        name for name, value in vars(edgestat).items()
        if not name.startswith("_")
        and not (isinstance(value, types.ModuleType) and value.__name__.startswith("edgestat."))
    ]
    assert stray == []
