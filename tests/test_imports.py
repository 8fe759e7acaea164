"""Every module of the package uses each name it imports, and each name it defines is read or exported.

The package's __init__ imports names to re-export them, so it is exempt.
The checks read the source with ast only: a top-level import counts as used
when the module loads its name where no local of the same name hides it,
annotations included, and a module-level name counts as read when some
package module imports it by name or loads it so.
"""

import ast
from pathlib import Path

import pytest

import trisys

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trisys"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(nodes) -> set[str]:
    """The names that the import statements among nodes bind, __future__ imports aside."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in nodes
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }


def unused_imports(source: str) -> list[str]:
    """The names the module's import statements bind and the module never reads, sorted.

    A top-level import is read only by a load that reaches the module-level
    name: a store, or a load hidden by a parameter or local of the same name,
    reads no import.  An import inside a function is read by any name.
    """
    tree = ast.parse(source)
    top = imported_names(tree.body)
    nested = imported_names(ast.walk(tree)) - top
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((top - module_loads(tree)) | (nested - names))


def test_the_check_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from collections import deque, defaultdict\n"
        "from .errors import TriSysError\n"
        "def f(x: deque) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["TriSysError", "defaultdict", "js"]
    # a store, or a parameter of the same name, does not use the import
    assert unused_imports("from x import foo\nfoo = 1\n") == ["foo"]
    assert unused_imports("from x import foo\ndef f(foo): return foo\n") == ["foo"]
    assert unused_imports("from x import foo\ndef f(bar): return foo(bar)\n") == []
    assert unused_imports("def f():\n    import json, re\n    return json\n") == ["re"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def module_level_names(source: str) -> set[str]:
    """The names the module's top-level definitions and assignments bind."""
    bound = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return bound


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def local_names(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds for itself: parameters, stores, definitions, imports."""
    if isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        bound, stack = set(), list(scope.generators)
    else:
        a = scope.args
        bound = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg}
        stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    declared = set()
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)  # its body is its own scope
        elif not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return bound - declared


def names_read(source: str) -> set[str]:
    """The module-level names the module reads.

    That is each name it imports by name, each name it loads where no
    enclosing function, lambda or comprehension binds it (a parameter or
    local of the same name hides the module-level one), and each attribute
    it loads from a module imported with `from . import`.  A field read such
    as `m.barred` reads no module-level name.
    """
    tree = ast.parse(source)
    modules = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and not n.module for a in n.names}
    read = module_loads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def module_loads(tree: ast.AST) -> set[str]:
    """The names the tree loads where no enclosing function, lambda or comprehension binds them."""
    read = set()
    stack = [(tree, frozenset())]
    while stack:
        node, local = stack.pop()
        if isinstance(node, _SCOPES):
            local = local | local_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            read.add(node.id)
        stack.extend((child, local) for child in ast.iter_child_nodes(node))
    return read


def test_the_check_sees_through_locals_and_fields_of_the_same_name():
    source = (
        "def barred(i): return i\n"
        "def components(S): return S\n"
        "class Error(Exception):\n"
        "    def __init__(self, components=None):\n"
        "        self.components = components\n"
        "def f(m1, rows):\n"
        "    try:\n"
        "        return m1.barred, [barred for barred in rows], lambda components: components\n"
        "    except ValueError as barred:\n"
        "        return barred\n"
    )
    assert names_read(source) & {"barred", "components"} == set()
    assert names_read(source + "def g(): return barred(1), [components for _ in ()]\n") >= {"barred", "components"}


def unread_names(sources: dict[str, str], exported: set[str]) -> list[str]:
    """module.name for each top-level name of a module other than __init__ that no module reads or exports."""
    read = set().union(*map(names_read, sources.values()))
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        if module != "__init__"
        for name in module_level_names(source) - read - exported
    )


def test_the_check_sees_unread_and_read_names():
    sources = {
        "__init__": "from .a import public\n__all__ = ['public']\n",
        "a": (
            "import re\n"
            "PATTERN = re.compile('x')\n"
            "DEAD, (ALSO_DEAD, USED_BY_B) = 1, (2, 3)\n"
            "LIMIT: int = 4\n"
            "def public(): return PATTERN\n"
            "def _helper(): pass\n"
            "class Unused: pass\n"
        ),
        "b": "from . import a\nfrom .a import USED_BY_B\ndef f(): return a._helper(), a.LIMIT\n",
    }
    assert unread_names(sources, {"public"}) == ["a.ALSO_DEAD", "a.DEAD", "a.Unused", "b.f"]


def test_every_module_level_name_is_read_or_exported():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_names(sources, set(trisys.__all__)) == []


# The exported names that no package module reads, by group, with the reason each group stays public.
UNREAD_EXPORTS = {
    "witness API: callers build and replay connection witnesses; the CLI writes only the classes": {
        "barred",
        "reachable",
        "reverse_connection",
    },
    "value types: the scalar type that callers annotate with": {"Rational"},
    "references for callers: the deviation ideal's generators and the bracket identity": {
        "generator_vectors",
        "check_leibniz",
    },
    "the product's definition: the table's trilinear extension to coordinate vectors": {"evaluate_product"},
    "dense-vector entry points: callers build subspaces from coordinate vectors; the package inserts sparse rows": {
        "basis_vector",
        "rowspace_from",
    },
    "the tracer-pinned enumerator: perfbench/tracer.py spans it by name": {"enumerate_inherited_ideals"},
}


def test_every_exported_name_is_read_or_recorded():
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in MODULES))
    recorded = set().union(*UNREAD_EXPORTS.values())
    assert sorted(set(trisys.__all__) - read - recorded) == []
    # the record lists exported names that are still unread, and nothing else
    assert sorted((recorded - set(trisys.__all__)) | (recorded & read)) == []
