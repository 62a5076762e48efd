"""The modules of the library use one another's public names only, and no
object's private attributes but their own."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sgpde"


def is_private(name: str) -> bool:
    """A leading underscore marks a private name; dunder names are public."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


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
            if is_private(alias.name):
                found.append(
                    f"{filename}:{node.lineno}: from {'.' * node.level}{module} import {alias.name}"
                )
    return found


def private_attributes(source: str, filename: str = "<source>") -> list[str]:
    """Every `obj._name` in the source whose `obj` is not `self` or `cls`:
    code reaches another object's state through its public names."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Attribute) or not is_private(node.attr):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append(f"{filename}:{node.lineno}: {ast.unparse(node)}")
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


@pytest.mark.parametrize(
    "source,flagged",
    [
        ("state = cache._finals[point]\n", 1),
        ("self.cache._finals.clear()\n", 1),
        ("self._ops[key] = op\nn = cls._count\n", 0),
        ("name = obj.__class__.__name__\n", 0),
        ("lu = splu(a).L\n", 0),
    ],
)
def test_private_attribute_check_flags_other_objects_private_names(source, flagged):
    assert len(private_attributes(source)) == flagged


def test_modules_read_no_private_attribute_of_another_object():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in private_attributes(path.read_text(), path.name)]
    assert found == []
