"""src/selcert calls nothing numpy added after the oldest release pyproject.toml admits.

The suite runs on whatever numpy is installed, so a call that first appeared
in numpy 2 passes it and raises AttributeError on an older install the
declared range allows. This reads the package with ast for the numpy 2
additions a kernel is most likely to reach for.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "selcert"

# numpy 2.0-2.2 additions to the top-level namespace, read as `np.<name>`
_NUMPY_2 = {
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype", "bitwise_count",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "concat", "cumulative_prod",
    "cumulative_sum", "isdtype", "matrix_transpose", "matvec", "permute_dims", "pow", "trapezoid",
    "unique_all", "unique_counts", "unique_inverse", "unique_values", "unstack", "vecdot", "vecmat",
}
# numpy 2.0 additions to ndarray, read as `<array>.<name>`
_NDARRAY_2 = {"mT", "device", "to_device"}


def _numpy_2_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            on_numpy = isinstance(node.value, ast.Name) and node.value.id == "np"
            if (on_numpy and node.attr in _NUMPY_2) or node.attr in _NDARRAY_2:
                names.add(node.attr)
    return names


def test_the_declared_floor_is_numpy_1_24():
    # the names above are those missing from 1.24; a new floor needs a new list
    assert re.search(r'"numpy>=1\.24"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", sorted(path.name for path in SOURCE.glob("*.py")))
def test_no_numpy_2_only_call(module):
    assert _numpy_2_names(ast.parse((SOURCE / module).read_text(encoding="utf-8"))) == set()


def test_the_check_sees_what_it_looks_for():
    tree = ast.parse("import numpy as np\nx = np.vecdot(a, b)\ny = a.mT\nz = np.dot(a, b) + np.cumsum(a)\n")
    assert _numpy_2_names(tree) == {"vecdot", "mT"}
