"""The modules of the library use one another's public names only, and no
object's private attributes but their own; `__all__` lists what a module
offers, and every public function and class is reached by a command."""

import ast
import importlib
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


def sibling_imports(source: str, filename: str = "<source>") -> list[tuple[str, str, str]]:
    """(module, name, where) of every `from .module import name` in the source."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found.extend((node.module, alias.name, f"{filename}:{node.lineno}") for alias in node.names)
    return found


def library_modules() -> dict:
    return {path.stem: importlib.import_module(f"sgpde.{path.stem}")
            for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}


def test_every_all_entry_is_defined_in_its_module():
    modules = library_modules()
    assert modules
    missing = [f"{stem}.{name}" for stem, module in modules.items()
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_names_imported_from_a_sibling_are_in_its_all():
    modules = library_modules()
    outside = [
        f"{where}: {module}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for module, name, where in sibling_imports(path.read_text(), path.name)
        if name not in getattr(modules[module], "__all__", ())
    ]
    assert outside == []


# Public names that no command reaches, kept on purpose, each with its reason.
# Both are counted as reached, and so is what they call.
UNREACHED_ALLOWED = {
    "weighted_sobolev_norm": "the norm of the paper's chaos truncation bound (acceptance 3); "
                             "the report of separate errors is to read it (ROADMAP D9)",
    "pce_error_constant": "the constant of the same bound, read with weighted_sobolev_norm",
}


def _named(node) -> set[str]:
    """Every identifier that an ast.Name or ast.Attribute under `node` names."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def unreached(sources: dict, allowed=()) -> list[str]:
    """The public module-level functions and classes of `sources` (module
    name -> source text) that nothing reaches, as `module.name`.

    A definition is reached when an ast.Name or ast.Attribute names it
    outside its own definition, in module-level code (a dispatch table, the
    `__main__` call of `cli.main`) or in a reached definition, or when
    `__init__` re-exports it; the names in `allowed` count as reached.
    Reached names are collected until none is added, so a name that only
    unreached definitions name stays unreached. Names are matched by
    identifier across modules, so an attribute that shares a definition's
    name reaches it too: the check may miss a dead name but never flags a
    live one.
    """
    definitions, reached = [], set(allowed)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, node.name, _named(node) - {node.name}))
            elif module == "__init__" and isinstance(node, ast.ImportFrom):
                reached.update(alias.asname or alias.name for alias in node.names)
            else:
                reached |= _named(node)
    grew = True
    while grew:
        grew = False
        for _, name, names in definitions:
            if name in reached and not names <= reached:
                reached |= names
                grew = True
    return sorted(
        f"{module}.{name}" for module, name, _ in definitions
        if name not in reached and not is_private(name)
    )


@pytest.mark.parametrize(
    "sources,allowed,flagged",
    [
        ({"m": "def used():\n    pass\n\ndef dead():\n    used()\n\nused()\n"}, (), ["m.dead"]),
        ({"m": "def helper():\n    pass\n\ndef dead():\n    return helper()\n"}, (),
         ["m.dead", "m.helper"]),
        ({"m": "def _hidden():\n    return inner()\n\ndef inner():\n    pass\n"}, (), ["m.inner"]),
        ({"m": "def loop(k):\n    return loop(k - 1)\n"}, (), ["m.loop"]),
        ({"m": "from .n import inner\n", "n": "def inner():\n    pass\n"}, (), ["n.inner"]),
        ({"m": "def a():\n    pass\n\nTABLE = {'a': a}\n"}, (), []),
        ({"__init__": "from .m import f\n", "m": "def f():\n    pass\n"}, (), []),
        ({"m": "class C:\n    def run(self):\n        return go()\n\ndef go():\n    pass\n\n"
               "if __name__ == '__main__':\n    C().run()\n"}, (), []),
        ({"m": "def helper():\n    pass\n\ndef kept():\n    return helper()\n"}, ("kept",), []),
    ],
    ids=["dead", "dead_via_dead", "via_private_dead", "self_only", "imported_only",
         "table", "reexport", "method_body", "allowed"],
)
def test_reach_check_flags_names_that_nothing_reaches(sources, allowed, flagged):
    assert unreached(sources, allowed) == flagged


def library_sources() -> dict:
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return {path.stem: path.read_text() for path in paths}


def test_every_public_name_is_reached_by_a_command():
    assert unreached(library_sources(), UNREACHED_ALLOWED) == []


def test_the_allowed_names_are_unreached_without_their_allowance():
    # an allowance for a name that a command reaches is stale
    found = {qualified.rpartition(".")[2] for qualified in unreached(library_sources())}
    assert set(UNREACHED_ALLOWED) <= found


def call_sites(source: str, name: str, filename: str = "<source>") -> list[str]:
    """Every call of `name(...)` or `obj.name(...)` in the source."""
    return [
        f"{filename}:{node.lineno}"
        for node in ast.walk(ast.parse(source, filename=filename))
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        == name
    ]


@pytest.mark.parametrize(
    "source,found",
    [
        ("u = evolve(s, 1.0, 4, m, k, u0)\n", 1),
        ("u = timestep.evolve(s, 1.0, 4, m, k, u0)\nv = evolve(*args)\n", 2),
        ("from .timestep import evolve\nstep = evolve\n", 0),
    ],
    ids=["plain", "attribute_and_plain", "no_call"],
)
def test_call_site_check_counts_plain_and_attribute_calls(source, found):
    assert len(call_sites(source, "evolve")) == found


def test_evolve_has_one_call_site():
    # every evolution in the library runs through one stepping loop, so a
    # second loop beside it cannot come back unnoticed
    sites = [
        site for path in sorted(SRC.glob("*.py"))
        for site in call_sites(path.read_text(), "evolve", path.name)
    ]
    assert len(sites) == 1, sites
