"""Every name a module of the package imports is read somewhere in that
module, every module-level constant is read somewhere in the package, and
the package namespace holds only its modules."""

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


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Module-level ALL-CAPS names that no module of ``sources`` reads, as a
    bare name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper() and target.id not in read:
                    unread.append(f"{target.id} ({module})")
    return sorted(unread)


def test_every_constant_is_read():
    # A cap left behind after the loop it guarded fails here.
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert unread_constants(sources) == []


def test_scan_finds_an_unread_constant():
    sources = {"a.py": "CAP = 1\nLIMIT: int = 2\nx = LIMIT\n", "b.py": "import a\nSEEN = a.CAP\nprint(SEEN)\n"}
    assert unread_constants(sources) == []
    assert unread_constants({"a.py": "CAP = 1\nLIMIT: int = 2\n_OPS = ()\nlower = 3\n"}) == [
        "CAP (a.py)", "LIMIT (a.py)", "_OPS (a.py)",
    ]


def test_package_binds_only_its_modules():
    # Each library name has one import path: the module that defines it.
    stray = [
        name for name, value in vars(edgestat).items()
        if not name.startswith("_")
        and not (isinstance(value, types.ModuleType) and value.__name__.startswith("edgestat."))
    ]
    assert stray == []
