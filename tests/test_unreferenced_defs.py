"""Every function, method and class defined in ``src/`` has a reference.

A definition that nothing calls still has to be read, documented and
kept working by its tests. This lint parses every Python file of the
repository's code, tests, benchmarks, benchmark harness and examples,
collects every name they reference, and fails on any definition under
``src/`` whose name never appears. Names are matched textually, so a
reference anywhere (even to another object of the same name) keeps a
definition alive: the lint finds code that is certainly dead, not all
of it. Dunder names are exempt; there is no allowlist.
"""

from __future__ import annotations

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SCANNED = ("src", "tests", "benchmarks", "perfbench", "examples")


def referenced_names(tree: ast.AST) -> set[str]:
    """Names ``tree`` reads, imports or spells as a one-word string.

    Strings catch ``__all__`` entries and the method names the
    benchmark harness wraps with ``getattr``.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            names.add(node.value)
    return names


def definitions(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of every function, method and class in ``tree``."""
    return [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def unreferenced(
    defining: dict[str, str], referencing: dict[str, str]
) -> list[str]:
    """``path:line name`` of each definition in ``defining`` (path ->
    source) that no file of ``defining`` or ``referencing`` names."""
    trees = {path: ast.parse(source) for path, source in defining.items()}
    names: set[str] = set()
    for tree in trees.values():
        names |= referenced_names(tree)
    for source in referencing.values():
        names |= referenced_names(ast.parse(source))
    return [
        f"{path}:{line} {name}"
        for path, tree in sorted(trees.items())
        for line, name in sorted(definitions(tree))
        if name not in names and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_src_definition_is_referenced():
    sources = {
        path.relative_to(_ROOT).as_posix(): path.read_text()
        for folder in _SCANNED
        for path in sorted((_ROOT / folder).rglob("*.py"))
    }
    defining = {p: s for p, s in sources.items() if p.startswith("src/")}
    referencing = {p: s for p, s in sources.items() if p not in defining}
    dead = unreferenced(defining, referencing)
    assert not dead, (
        "nothing references these definitions; call them, test them, or "
        "delete them: " + ", ".join(dead)
    )


def test_lint_flags_an_unreferenced_method():
    source = (
        "__all__ = ['exported']\n"
        "class Cluster:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def place(self):\n"
        "        return self.nested()\n"
        "    def nested(self):\n"
        "        def inner():\n"
        "            return 1\n"
        "        return inner()\n"
        "    def orphan(self):\n"
        "        return 2\n"
        "def exported():\n"
        "    pass\n"
        "def wrapped():\n"
        "    pass\n"
        "def unused():\n"
        "    pass\n"
    )
    callers = {
        "tests/test_cluster.py": (
            "from repro.cluster import Cluster\n"
            "Cluster().place()\n"
            "getattr(Cluster, 'wrapped')\n"
        )
    }
    assert unreferenced({"src/repro/cluster.py": source}, callers) == [
        "src/repro/cluster.py:11 orphan",
        "src/repro/cluster.py:17 unused",
    ]
    assert unreferenced({"src/repro/cluster.py": source}, {}) == [
        "src/repro/cluster.py:2 Cluster",
        "src/repro/cluster.py:5 place",
        "src/repro/cluster.py:11 orphan",
        "src/repro/cluster.py:15 wrapped",
        "src/repro/cluster.py:17 unused",
    ]
