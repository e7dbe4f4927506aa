"""Source hygiene checks that need no tool beyond the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# __init__.py imports names to export them, not to use them
CHECKED = sorted(p for p in (ROOT / "src" / "sfcbackup").glob("*.py") if p.name != "__init__.py")
CHECKED += sorted((ROOT / "tests").glob("*.py"))


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
