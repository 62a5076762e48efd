"""The modules of the library use one another's public names only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sgpde"


def private_imports(source: str, filename: str = "<source>") -> list[str]:
    """Every `from .x import _name` or `from sgpde.x import _name` in the
    source; dunder names such as `__version__` are public."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "sgpde" and not module.startswith("sgpde."):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{filename}:{node.lineno}: from {'.' * node.level}{module} import {name}")
    return found


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("from .spatial import FeSpace, _scatter\n", 1),
        ("from sgpde.spatial import _scatter\n", 1),
        ("from . import __version__\nfrom .pce import tensor_quad\n", 0),
        ("from numpy.linalg import _umath_linalg\n", 0),
    ],
)
def test_private_import_check_flags_private_names_of_the_package(source, flagged):
    assert len(private_imports(source)) == flagged


def test_modules_import_no_private_name_of_another_module():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in private_imports(path.read_text(), path.name)]
    assert found == []
