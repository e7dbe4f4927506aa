"""Source hygiene checks that need no tool beyond the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# __init__.py imports names to export them, not to use them
CHECKED = sorted(p for p in (ROOT / "src" / "sfcbackup").glob("*.py") if p.name != "__init__.py")
CHECKED += sorted((ROOT / "tests").glob("*.py"))
# every Python file that may use a definition of the package
READERS = sorted(p for folder in ("src", "tests", "perfbench")
                 for p in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, in import order.

    A name counts as read where it appears as a bare name anywhere in the
    module, annotations included, or as a whole string annotation such as
    "GroundTruth". `from __future__` imports are skipped.
    """
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {note.value for note in _annotations(tree)
             if isinstance(note, ast.Constant) and isinstance(note.value, str)}
    return [name for name in imported if name not in read]


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def test_unused_imports_are_found() -> None:
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nimport numpy.random\n"
              "from typing import Sequence\nfrom x import a as b, c\n"
              "from y import Late, Quoted\n"
              "def f(v: c) -> 'Late':\n    return os.sep + 'Quoted'\n")
    assert unused_imports(source) == ["osp", "numpy", "Sequence", "b", "Quoted"]


def test_no_unused_imports() -> None:
    found = {str(path.relative_to(ROOT)): names for path in CHECKED
             if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert not found, f"imported but never used: {found}"


def top_level_names(tree: ast.Module) -> dict[str, ast.stmt]:
    """The functions, classes and constants a module defines at top level, dunders aside."""
    defined: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node
    return {name: node for name, node in defined.items() if not name.startswith("__")}


def references(nodes) -> set[str]:
    """Names by which nodes can reach another module's definition.

    These are attributes, imported names and strings. A string counts because
    getattr or a monkeypatch target may name a definition.
    """
    found: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def orphans(module: ast.Module, others: list[ast.Module]) -> list[str]:
    """Top-level definitions of module that nothing reads outside their own definition.

    Inside module a definition is also read by a bare name.
    """
    used = set().union(*(references(ast.walk(tree)) for tree in others))
    unread = []
    for name, node in top_level_names(module).items():
        inside = {id(n) for n in ast.walk(node)}
        outside = [n for n in ast.walk(module) if id(n) not in inside]
        bare = {n.id for n in outside if isinstance(n, ast.Name)}
        if name not in used | bare | references(outside):
            unread.append(name)
    return unread


def test_orphans_are_found() -> None:
    module = ast.parse("LIMIT = 3\nUNUSED = 4\n"
                       "def helper(n):\n    return helper(n - 1) if n else LIMIT\n"
                       "def caller():\n    return 'named'\n"
                       "class Kept: pass\nclass Lost: pass\ndef named(): pass\n")
    other = ast.parse("from pkg.mod import caller\nimport pkg\npkg.mod.Kept()\nLost = 1\n")
    assert orphans(module, [other]) == ["UNUSED", "helper", "Lost"]


def test_no_orphaned_definitions() -> None:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    found = {str(path.relative_to(ROOT)): names
             for path in sorted((ROOT / "src" / "sfcbackup").glob("*.py"))
             if (names := orphans(trees[path], [t for p, t in trees.items() if p != path]))}
    assert not found, f"defined but never used: {found}"
