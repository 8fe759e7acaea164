"""Every module of the package uses each name it imports, and each name it defines is read or exported.

The package's __init__ imports names to re-export them, so it is exempt.
The checks read the source with ast only: a name counts as used when it
appears as a name anywhere in the module, annotations included, and a
module-level name counts as read when some package module loads it as a
name or attribute or imports it by name.
"""

import ast
from pathlib import Path

import pytest

import trisys

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trisys"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the module's import statements bind and the module never reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


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


def names_read(source: str) -> set[str]:
    """The names the module loads as a name or an attribute, or imports by name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


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
        "reachable",
        "reverse_connection",
    },
    "value types: the scalar type that callers annotate with": {"Rational"},
    "references for callers: the deviation ideal's generators and the bracket identity": {
        "generator_vectors",
        "check_leibniz",
    },
    "the product's definition: the table's trilinear extension to coordinate vectors": {"evaluate_product"},
    "the tracer-pinned enumerator: perfbench/tracer.py spans it by name": {"enumerate_inherited_ideals"},
}


def test_every_exported_name_is_read_or_recorded():
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in MODULES))
    recorded = set().union(*UNREAD_EXPORTS.values())
    assert sorted(set(trisys.__all__) - read - recorded) == []
    # the record lists exported names that are still unread, and nothing else
    assert sorted((recorded - set(trisys.__all__)) | (recorded & read)) == []
