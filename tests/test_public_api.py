"""The modules of the library use one another's public names only, and no
object's private attributes but their own; `__all__` lists what a module
offers, every public function and class is reached by a command, and every
public method, property and field is read by the library."""

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


def _named(node) -> set[str]:
    """Every identifier that an ast.Name or ast.Attribute under `node` names."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def unreached(sources: dict) -> list[str]:
    """The public module-level functions and classes of `sources` (module
    name -> source text) that nothing reaches, as `module.name`.

    A definition is reached when an ast.Name or ast.Attribute names it
    outside its own definition, in module-level code (a dispatch table, the
    `__main__` call of `cli.main`) or in a reached definition, or when
    `__init__` re-exports it. Reached names are collected until none is
    added, so a name that only unreached definitions name stays unreached.
    Names are matched by identifier across modules, so an attribute that
    shares a definition's name reaches it too: the check may miss a dead
    name but never flags a live one.
    """
    definitions, reached = [], set()
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
    "sources,flagged",
    [
        ({"m": "def used():\n    pass\n\ndef dead():\n    used()\n\nused()\n"}, ["m.dead"]),
        ({"m": "def helper():\n    pass\n\ndef dead():\n    return helper()\n"},
         ["m.dead", "m.helper"]),
        ({"m": "def _hidden():\n    return inner()\n\ndef inner():\n    pass\n"}, ["m.inner"]),
        ({"m": "def loop(k):\n    return loop(k - 1)\n"}, ["m.loop"]),
        ({"m": "from .n import inner\n", "n": "def inner():\n    pass\n"}, ["n.inner"]),
        ({"m": "def a():\n    pass\n\nTABLE = {'a': a}\n"}, []),
        ({"__init__": "from .m import f\n", "m": "def f():\n    pass\n"}, []),
        ({"m": "class C:\n    def run(self):\n        return go()\n\ndef go():\n    pass\n\n"
               "if __name__ == '__main__':\n    C().run()\n"}, []),
    ],
    ids=["dead", "dead_via_dead", "via_private_dead", "self_only", "imported_only",
         "table", "reexport", "method_body"],
)
def test_reach_check_flags_names_that_nothing_reaches(sources, flagged):
    assert unreached(sources) == flagged


def library_sources() -> dict:
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return {path.stem: path.read_text() for path in paths}


def test_every_public_name_is_reached_by_a_command():
    assert unreached(library_sources()) == []


# Public methods and properties that no library file reads, kept on purpose.
UNREAD_METHODS_ALLOWED = {
    "SgOperator.matrix": "read by the traced benchmark (perfbench/spans.py) to size the "
                         "operator, until ROADMAP D1 sizes it from its factors",
}


def unread_methods(sources: dict, allowed=()) -> list[str]:
    """The public methods and properties of the classes of `sources`
    (module name -> source text) that no source reads as an attribute
    outside the method's own definition, as `Class.name`; dunder methods are
    exempt, and so are the `Class.name` entries of `allowed`. Like
    `unreached`, it matches by identifier, so any attribute of that name
    counts as a read."""
    trees = [ast.parse(source) for source in sources.values()]
    reads = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads[node.attr] = reads.get(node.attr, 0) + 1
    found = []
    for tree in trees:
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = method.name
                own = sum(isinstance(sub, ast.Attribute) and sub.attr == name
                          for sub in ast.walk(method))
                qualified = f"{cls.name}.{name}"
                if (not is_private(name) and not name.startswith("__")
                        and reads.get(name, 0) <= own and qualified not in allowed):
                    found.append(qualified)
    return sorted(found)


@pytest.mark.parametrize(
    "sources,allowed,flagged",
    [
        ({"m": "class C:\n    def dead(self):\n        pass\n"}, (), ["C.dead"]),
        ({"m": "class C:\n    @property\n    def size(self):\n        return 1\n",
          "n": "def f(c):\n    return c.size\n"}, (), []),
        ({"m": "class C:\n    def loop(self):\n        return self.loop()\n"}, (), ["C.loop"]),
        ({"m": "class C:\n    def run(self):\n        return self.go()\n\n"
               "    def go(self):\n        pass\n"}, (), ["C.run"]),
        ({"m": "class C:\n    def __len__(self):\n        return 0\n\n"
               "    def _hidden(self):\n        pass\n"}, (), []),
        ({"m": "class C:\n    def kept(self):\n        pass\n"}, ("C.kept",), []),
    ],
    ids=["dead", "property_read", "self_only", "read_by_a_sibling", "dunder_and_private",
         "allowed"],
)
def test_method_check_flags_methods_that_no_source_reads(sources, allowed, flagged):
    assert unread_methods(sources, allowed) == flagged


def test_every_public_method_is_read_by_the_library():
    assert unread_methods(library_sources(), UNREAD_METHODS_ALLOWED) == []


def test_the_allowed_methods_are_unread_without_their_allowance():
    assert set(UNREAD_METHODS_ALLOWED) <= set(unread_methods(library_sources()))


def unread_fields(sources: dict) -> list[str]:
    """The public fields of the classes of `sources` (module name -> source
    text), the names that a class body annotates, that no source loads as an
    attribute, as `Class.name`. A field only given to the constructor or
    only assigned is unread. Like `unread_methods`, it matches by
    identifier, so a load of any attribute of that name counts as a read."""
    trees = [ast.parse(source) for source in sources.values()]
    reads = {
        node.attr for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{cls.name}.{item.target.id}"
        for tree in trees
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and not is_private(item.target.id) and item.target.id not in reads
    )


@pytest.mark.parametrize(
    "sources,flagged",
    [
        ({"m": "class C:\n    x: int\n    y: float = 0.0\n"}, ["C.x", "C.y"]),
        ({"m": "class C:\n    x: int\n", "n": "def f(c):\n    return c.x\n"}, []),
        ({"m": "class C:\n    x: int\n\n    def size(self):\n        return self.x\n"}, []),
        ({"m": "class C:\n    x: int\n\nc = C(x=1)\n"}, ["C.x"]),
        ({"m": "class C:\n    x: int\n\ndef f(c):\n    c.x = 1\n"}, ["C.x"]),
        ({"m": "class C:\n    _cache: dict\n    __slots__ = ()\n\nLIMIT: int = 3\n"}, []),
    ],
    ids=["dead", "read_by_a_sibling", "read_by_a_method", "constructed_only", "assigned_only",
         "private_and_module_level"],
)
def test_field_check_flags_fields_that_no_source_reads(sources, flagged):
    assert unread_fields(sources) == flagged


def test_every_public_field_is_read_by_the_library():
    assert unread_fields(library_sources()) == []


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
