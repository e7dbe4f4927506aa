"""Source hygiene checks that need no tool beyond the standard library."""

from __future__ import annotations

import ast
import importlib
import io
import re
import tokenize
from collections import Counter
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# __init__.py imports names to export them, not to use them
CHECKED = sorted(p for p in (ROOT / "src" / "sfcbackup").glob("*.py") if p.name != "__init__.py")
CHECKED += sorted((ROOT / "tests").glob("*.py"))
# every Python file that may use a definition of the package
READERS = sorted(p for folder in ("src", "tests", "perfbench")
                 for p in (ROOT / folder).rglob("*.py"))
# the package's modules, which a docstring or comment cites as <module>.<name>
MODULES = sorted(p.stem for p in (ROOT / "src" / "sfcbackup").glob("*.py")
                 if not p.stem.startswith("_"))


@cache
def parsed(path: Path) -> ast.Module:
    """The file's syntax tree, parsed once per test run and shared by the checks below."""
    return ast.parse(path.read_text(encoding="utf-8"))


def unused_imports(source: str | ast.Module) -> list[str]:
    """Names a module imports but never reads, in import order.

    source is the module's text or its parsed tree. A name counts as read
    where it appears as a bare name anywhere in the module, annotations
    included, or as a whole string annotation such as "GroundTruth".
    `from __future__` imports are skipped.
    """
    tree = ast.parse(source) if isinstance(source, str) else source
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
             if (names := unused_imports(parsed(path)))}
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


def orphans(module: ast.Module, used: set[str]) -> list[str]:
    """Top-level definitions of module that nothing reads outside their own definition.

    used holds the references of every other file. Inside module a definition
    is also read by a bare name, in any top-level statement but its own; each
    statement's reads are collected in one walk.
    """
    reads = []
    for stmt in module.body:
        nodes = list(ast.walk(stmt))
        reads.append({n.id for n in nodes if isinstance(n, ast.Name)} | references(nodes))
    count = Counter(name for names in reads for name in names)
    own = {id(stmt): names for stmt, names in zip(module.body, reads)}
    return [name for name, node in top_level_names(module).items()
            if name not in used and count[name] == (name in own[id(node)])]


def test_orphans_are_found() -> None:
    module = ast.parse("LIMIT = 3\nUNUSED = 4\n"
                       "def helper(n):\n    return helper(n - 1) if n else LIMIT\n"
                       "def caller():\n    return 'named'\n"
                       "class Kept: pass\nclass Lost: pass\ndef named(): pass\n")
    other = ast.parse("from pkg.mod import caller\nimport pkg\npkg.mod.Kept()\nLost = 1\n")
    assert orphans(module, references(ast.walk(other))) == ["UNUSED", "helper", "Lost"]


def test_no_orphaned_definitions() -> None:
    # every top-level definition of src/sfcbackup and of tests/ but a test
    # function; pytest hands a fixture in by parameter name, so a parameter
    # reads a definition only where that definition is a pytest fixture
    trees = {path: parsed(path) for path in READERS}
    nodes = {path: list(ast.walk(tree)) for path, tree in trees.items()}
    refs = {path: references(walked) for path, walked in nodes.items()}
    tests = sorted((ROOT / "tests").glob("*.py"))
    fixtures = {node.name for path in tests for node in trees[path].body
                if isinstance(node, ast.FunctionDef)
                and any(ast.unparse(d).startswith("pytest.fixture") for d in node.decorator_list)}
    fixtures &= {node.arg for path in tests for node in nodes[path] if isinstance(node, ast.arg)}
    found = {}
    for path in sorted((ROOT / "src" / "sfcbackup").glob("*.py")) + tests:
        used = set().union(*(names for p, names in refs.items() if p != path))
        if path in tests:
            used |= fixtures
        names = [name for name in orphans(trees[path], used) if not name.startswith("test_")]
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert not found, f"defined but never used: {found}"


def prose(path: Path) -> str:
    """A module's comments and docstrings, one after another."""
    source = path.read_text(encoding="utf-8")
    parts = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.COMMENT]
    parts += [doc for node in ast.walk(parsed(path))
              if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                   ast.AsyncFunctionDef))
              and (doc := ast.get_docstring(node))]
    return "\n".join(parts)


def citations(text: str) -> list[tuple[str, str]]:
    """Every (module, name) text cites as <module>.<name>; a file name such as model.py is none."""
    pattern = re.compile(rf"\b({'|'.join(MODULES)})\.([A-Za-z_]\w*)")
    return [(module, name) for module, name in pattern.findall(text) if name != "py"]


# a path ending in .py, or a module cited as sfcbackup.<module>
FILE_CITATION = re.compile(r"(?<![\w/.-])((?:[\w.-]+/)*\w+\.py)\b|\bsfcbackup\.(\w+)")


def missing_files(text: str) -> list[str]:
    """Every file text cites that does not exist, in order.

    A path such as tests/reference.py is read from the root of the
    repository, and a bare file name such as model.py, or sfcbackup.model,
    names a module of the package.
    """
    package = ROOT / "src" / "sfcbackup"
    missing = []
    for path, module in FILE_CITATION.findall(text):
        if path:
            file = ROOT / path if "/" in path else package / path
        else:
            path, file = f"sfcbackup.{module}", package / f"{module}.py"
        if not file.is_file():
            missing.append(path)
    return missing


def test_citations_are_found() -> None:
    text = ("# lockstep.check, sfcbackup.policy.learned_slot and kernels.PlanGraph.commit\n"
            "model.py, mylockstep.y and `harness.run`")
    assert citations(text) == [("lockstep", "check"), ("policy", "learned_slot"),
                               ("kernels", "PlanGraph"), ("harness", "run")]
    # a file that is gone, by file name or by module, is cited but not found
    text += ("\nlearning.py, sfcbackup.learning.init_learners, tests/reference.py, "
             "sfcbackup.lockstep and perfbench/gone.py")
    assert missing_files(text) == ["learning.py", "sfcbackup.learning", "perfbench/gone.py"]


def test_cited_names_resolve() -> None:
    # a name the docs still cite after its definition is gone reads as live,
    # and so does a file or module cited after it is deleted, which MODULES,
    # built from the files that exist, no longer lists; a test's comments and
    # docstrings are held to this as the package's are
    texts = {str(path.relative_to(ROOT)): prose(path) for folder in ("src/sfcbackup", "tests")
             for path in sorted((ROOT / folder).glob("*.py"))}
    texts["README.md"] = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = {place: names for place, text in texts.items()
               if (names := [f"{module}.{name}" for module, name in citations(text)
                             if not hasattr(importlib.import_module(f"sfcbackup.{module}"),
                                            name)] + missing_files(text))}
    assert not missing, f"cited but not defined: {missing}"
