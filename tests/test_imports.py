"""No module of the package holds an ``assert``, every name a module of the
package or of the test suite imports is read somewhere in that module, every
module-level constant, private function or class and type alias is read
somewhere in the package, every function of ``tests/helpers.py`` is read
somewhere in the test suite, every top-level function and class of the
package is named outside the tests, the package namespace holds only its
modules, and importing the command line leaves the process pool unimported."""

import ast
import glob
import os
import re
import subprocess
import sys
import types

import pytest

import edgestat

SRC = os.path.dirname(edgestat.__file__)
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
TESTS = os.path.dirname(os.path.abspath(__file__))
TEST_MODULES = sorted(name for name in os.listdir(TESTS) if name.endswith(".py"))
ROOT = os.path.dirname(TESTS)


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


@pytest.mark.parametrize("module", TEST_MODULES)
def test_no_unused_imports_in_tests(module):
    with open(os.path.join(TESTS, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom fractions import Fraction\nos.sep\n") == ["Fraction (line 2)"]
    assert unused_imports("from x import y  # noqa: F401\n") == []


def assert_lines(source: str) -> list[int]:
    """Lines of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_in_the_package(module):
    # python -O strips asserts, so no verdict or guard may rest on one.
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert assert_lines(fh.read()) == []


def test_scan_finds_an_assert():
    assert assert_lines("x = 1\nif x:\n    assert x > 0, 'positive'\n") == [3]
    assert assert_lines("assertion = 'assert x'\n") == []


def read_names(trees) -> set[str]:
    """Names the trees read, as a bare name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def package_sources(directory=SRC, modules=MODULES) -> dict[str, str]:
    sources = {}
    for module in modules:
        with open(os.path.join(directory, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    return sources


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Module-level ALL-CAPS names that no module of ``sources`` reads, as a
    bare name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = read_names(trees.values())
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
    assert unread_constants(package_sources()) == []


def test_scan_finds_an_unread_constant():
    sources = {"a.py": "CAP = 1\nLIMIT: int = 2\nx = LIMIT\n", "b.py": "import a\nSEEN = a.CAP\nprint(SEEN)\n"}
    assert unread_constants(sources) == []
    assert unread_constants({"a.py": "CAP = 1\nLIMIT: int = 2\n_OPS = ()\nlower = 3\n"}) == [
        "CAP (a.py)", "LIMIT (a.py)", "_OPS (a.py)",
    ]


def module_helpers(tree):
    """Module-level ``_``-prefixed functions and classes, and module-level type
    aliases: ``X = tuple[...]``, ``X = A | B`` and ``X: TypeAlias = ...``
    (the package supports Python 3.10, which has no ``type`` statement)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                yield node.name
        elif isinstance(node, ast.AnnAssign) and ast.unparse(node.annotation).endswith("TypeAlias"):
            yield node.target.id
        elif isinstance(node, ast.Assign) and (
            isinstance(node.value, ast.Subscript)
            or isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.BitOr)
        ):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def unread_helpers(sources: dict[str, str]) -> list[str]:
    """The ``module_helpers`` that no module of ``sources`` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = read_names(trees.values())
    return sorted(f"{name} ({module})" for module, tree in trees.items()
                  for name in module_helpers(tree) if name not in read)


def test_every_private_helper_and_type_alias_is_read():
    # A row type or a private helper left behind after its last caller went fails here.
    assert unread_helpers(package_sources()) == []


def test_scan_finds_an_unread_private_helper_and_type_alias():
    sources = {
        "a.py": "def _used():\n    pass\n\n\nclass _Seen:\n    pass\n\n\nRow = tuple[int, str]\n",
        "b.py": "import a\na._used()\nx: a.Row = a._Seen()\n",
    }
    assert unread_helpers(sources) == []
    dead = (
        "def _dead():\n    pass\n\n\nclass _Gone:\n    pass\n\n\ndef public():\n    pass\n\n\n"
        "Row = tuple[int, str]\nPair = int | str\nMaybe: TypeAlias = int\nlimit = 3\n"
    )
    assert unread_helpers({"a.py": dead}) == [
        "Maybe (a.py)", "Pair (a.py)", "Row (a.py)", "_Gone (a.py)", "_dead (a.py)",
    ]


def unread_functions(sources: dict[str, str], module: str) -> list[str]:
    """Module-level functions of ``module`` that no module of ``sources`` reads."""
    read = read_names(ast.parse(source) for source in sources.values())
    return sorted(node.name for node in ast.parse(sources[module]).body
                  if isinstance(node, ast.FunctionDef) and node.name not in read)


def test_every_test_helper_is_read():
    # An oracle left behind after the last test that compared against it fails here.
    assert unread_functions(package_sources(TESTS, TEST_MODULES), "helpers.py") == []


def test_scan_finds_an_unread_function():
    sources = {"helpers.py": "def oracle():\n    pass\n\n\ndef _part():\n    pass\n\n\nx = _part()\n",
               "test_a.py": "from helpers import oracle\n\noracle()\n"}
    assert unread_functions(sources, "helpers.py") == []
    assert unread_functions({"helpers.py": sources["helpers.py"]}, "helpers.py") == ["oracle"]


def names_only_tests_read(package: dict[str, str], others: list[str]) -> list[str]:
    """Top-level functions and classes of ``package`` (module -> source) that
    no text names as a whole word: neither a line of the package other than
    their own definition line, nor any of the texts ``others``."""
    texts, defined = list(others), []
    for module, source in package.items():
        lines = {node.lineno: node.name for node in ast.parse(source).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        defined += [(name, module) for name in lines.values()]
        texts += [line for number, line in enumerate(source.splitlines(), 1) if number not in lines]
    text = "\n".join(texts)
    return sorted(f"{name} ({module})" for name, module in defined if not re.search(rf"\b{name}\b", text))


def test_every_package_name_is_read_outside_the_tests():
    # A function the package keeps only for the tests to call fails here: it belongs in tests/helpers.py.
    others = []
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))) + [os.path.join(ROOT, "README.md")]:
        with open(path, encoding="utf-8") as fh:
            others.append(fh.read())
    assert names_only_tests_read(package_sources(), others) == []


def test_scan_finds_a_name_only_tests_read():
    package = {
        "a.py": "def used():\n    pass\n\n\ndef oracle():\n    pass\n\n\nclass Shown:\n    pass\n\n\n"
                "class Hidden:\n    pass\n",
        "b.py": "from a import used\n\nused()\noracles = []\n",
    }
    assert names_only_tests_read(package, ["`Shown` is documented"]) == ["Hidden (a.py)", "oracle (a.py)"]
    assert names_only_tests_read(package, ["Shown", "oracle() and Hidden()"]) == []


def test_package_binds_only_its_modules():
    # Each library name has one import path: the module that defines it.
    stray = [
        name for name, value in vars(edgestat).items()
        if not name.startswith("_")
        and not (isinstance(value, types.ModuleType) and value.__name__.startswith("edgestat."))
    ]
    assert stray == []


def test_command_line_import_leaves_out_the_process_pool():
    # Only enumerate_gm with workers > 1 makes a pool, so only it imports one.
    probe = "import sys, edgestat.cli; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
