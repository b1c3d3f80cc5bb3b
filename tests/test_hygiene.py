"""Source hygiene of src/selcert, read with ast: no unused import, no unreferenced private helper,
no read of the environment, no import beyond the standard library and numpy, numpy sorts in
two places only, and the tail test in one. Every source under src/ and tests/ compiles with
warnings as errors.

Helpers move between modules as rules are shared; a leftover import or a
private function nothing calls any more fails here. Sizes such as the
solver's block, simulate's chunk and the bootstrap's chunk
(`metrics._CHUNK_RECORDS`) are module constants, never settings read from
the environment, so a result never depends on where it is run.
numpy is the one runtime dependency pyproject.toml declares: scipy,
hypothesis and mpmath serve the tests alone. Every retained-set count reads
one sort, `calibrate._grid`'s; the ranking metrics' tie blocks
(`metrics._tie_blocks`) are the only other sort of data. Every threshold is
decided by one function, `calibrate._decide`, the one caller of the tail
test `binom.tail_at_most`. A compile warning, such as an invalid escape like
"\\d" in a docstring (a SyntaxWarning since Python 3.12, meant to become an
error), fails on every Python version. A message quotes a bad value through
`errors._shown`, which cuts it and spells a huge integer by its size, or, for
a number cell, through `errors._as_text`; a quote made by hand (`!r`, `%r` or
`'{}'`) fails.
"""

import ast
import re
import sys
import warnings
from pathlib import Path

import pytest

import selcert

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "selcert"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}


def _annotation_names(node: ast.AST) -> set[str]:
    """The names read inside the string annotations of `node`, if it carries annotations."""
    if isinstance(node, ast.arg):
        annotations = [node.annotation]
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        annotations = [node.returns]
    elif isinstance(node, ast.AnnAssign):
        annotations = [node.annotation]
    else:
        return set()
    strings = [part.value for annotation in filter(None, annotations) for part in ast.walk(annotation)
               if isinstance(part, ast.Constant) and isinstance(part.value, str)]
    return set().union(*(_names_read(ast.parse(text, mode="eval")) for text in strings))


def _names_read(tree: ast.AST) -> set[str]:
    """Every name `tree` reads, as a name or an attribute, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        names |= _annotation_names(node)
    return names


def _imported(tree: ast.Module) -> list[str]:
    """The names a module binds by its imports, `from __future__` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = _names_read(tree)
    if module == "__init__.py":  # the package re-exports what it imports
        used |= set(selcert.__all__)
    assert [name for name in _imported(tree) if name not in used] == []


def test_every_private_helper_is_referenced():
    read = set().union(*map(_names_read, TREES.values()))
    unreferenced = [f"{module}:{node.name}" for module, tree in TREES.items() for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and node.name not in read]
    assert unreferenced == []


def _environment_reads(tree: ast.Module) -> set[str]:
    """The environment readers `tree` names, read as a name or an attribute or imported under any name."""
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    return (_names_read(tree) | imported) & {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("module", sorted(TREES))
def test_nothing_reads_the_environment(module):
    assert _environment_reads(TREES[module]) == set()


# pyproject.toml's [project] dependencies
_RUNTIME = {"numpy"}


def _foreign_imports(tree: ast.Module) -> set[str]:
    """The top-level modules `tree` imports from outside the standard library, _RUNTIME and the package."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots - set(sys.stdlib_module_names) - _RUNTIME - {"selcert"}


@pytest.mark.parametrize("module", sorted(TREES))
def test_imports_only_the_standard_library_and_numpy(module):
    assert _foreign_imports(TREES[module]) == set()


# numpy's sorts of data, read as a name or an attribute; `np.sort` is matched by its module
_SORTS = {"argsort", "lexsort", "unique"}


def _numpy_sorts(tree: ast.Module) -> set[str]:
    """The top-level functions and classes of `tree` that sort with numpy, and "<module>" for other statements."""
    def sorts(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in _SORTS or (node.attr == "sort" and isinstance(node.value, ast.Name)
                                           and node.value.id == "np")
        return isinstance(node, ast.Name) and node.id in _SORTS

    return {getattr(node, "name", "<module>") for node in tree.body if any(map(sorts, ast.walk(node)))}


def test_numpy_sorts_only_in_the_grid_and_the_tie_blocks():
    sorting = {f"{module}:{name}" for module, tree in TREES.items() for name in _numpy_sorts(tree)}
    assert sorting == {"calibrate.py:_grid", "metrics.py:_tie_blocks"}


def _tail_testers(tree: ast.Module) -> set[str]:
    """The top-level functions and classes of `tree` that name `tail_at_most`, and "<module>" for other statements."""
    return {getattr(node, "name", "<module>") for node in tree.body if "tail_at_most" in _names_read(node)}


def test_the_tail_test_runs_in_the_decision_only():
    testing = {f"{module}:{name}" for module, tree in TREES.items() for name in _tail_testers(tree)}
    assert testing == {"calibrate.py:_decide"}


def _compile_warnings(text: str, name: str) -> list[str]:
    """What compiling `text` warns of, as the error the warning turns into; [] when it compiles cleanly."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            compile(text, name, "exec")
        except SyntaxError as error:
            return [f"{name}:{error.lineno}: {error.msg}"]
    return []


def test_sources_compile_with_warnings_as_errors():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > len(TREES)
    assert [fault for path in paths
            for fault in _compile_warnings(path.read_text(encoding="utf-8"), str(path.relative_to(ROOT)))] == []


# a value quoted in place: by repr (`!r`, `%r`) or by hand between single quotes
_HAND_QUOTE = re.compile(r"!r[}:]|%r|'\{[^{}]*\}'")


def test_every_quote_goes_through_the_quoting_helpers():
    found = [f"{path.name}:{number}: {line.strip()}" for path in sorted(SOURCE.glob("*.py"))
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if _HAND_QUOTE.search(line)]
    assert found == []


def test_the_checks_see_what_they_look_for():
    tree = ast.parse("import os\nfrom typing import Iterable, Sequence\n"
                     "def f(x: 'Iterable[int]') -> None: pass\ndef _g(): pass\n")
    assert [name for name in _imported(tree) if name not in _names_read(tree)] == ["os", "Sequence"]
    assert "_g" not in _names_read(tree)
    assert _environment_reads(ast.parse("import os\nsize = os.environ.get('N')\n")) == {"environ"}
    assert _environment_reads(ast.parse("from os import getenv as g\nsize = g('N')\n")) == {"getenv"}
    assert _environment_reads(tree) == set()
    imports = ast.parse("import scipy.stats\nfrom hypothesis import given\nimport numpy as np\n"
                        "from . import binom\nfrom selcert.errors import DomainError\nimport os.path\n")
    assert _foreign_imports(imports) == {"scipy", "hypothesis"}
    sorting = ast.parse("import numpy as np\nfrom numpy import lexsort\ndef f(x): return np.unique(x)\n"
                        "def g(p): p.sort()\nclass C:\n    def h(self, x): return x.argsort()\n"
                        "def k(x): return np.sort(x)\norder = lexsort([])\n")
    assert _numpy_sorts(sorting) == {"f", "C", "k", "<module>"}
    callers = ast.parse("from .binom import tail_at_most\nfrom . import binom\n"
                        "def _decide(k, n): return tail_at_most(k, n, 0.1, 0.1)\n"
                        "def second(k, n): return binom.tail_at_most(k, n, 0.1, 0.1)\n")
    assert _tail_testers(callers) == {"_decide", "second"}
    quotes = ['f"got {x!r}"', 'f"got {x!r:>9}"', '"got %r" % x', '"got \'{}\'".format(x)', 'f"got \'{x}\'"']
    assert [text for text in quotes if not _HAND_QUOTE.search(text)] == []
    assert not _HAND_QUOTE.search('f"got {_shown(x)}, {_as_text(y)} at {i!s}: {{\'a\': 1}}"')
    assert _compile_warnings('"""A date like \\d{4}."""\n', "bad.py") != []
    assert _compile_warnings('"""A date like \\\\d{4}."""\n', "good.py") == []
