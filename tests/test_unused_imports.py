"""Static check: every name imported in src/ and tests/ is used.

No linter is a project dependency, so this is a small stdlib ``ast`` scan.
``from __future__`` imports are skipped, and so are the package
``__init__.py`` files, whose imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside a string annotation such as ``"Residue"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) for each imported name that the module never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
    return sorted((name, line) for name, line in imported.items()
                  if name not in used)


def test_scanner_sees_each_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import numpy.linalg\n"
        "from typing import Optional, Sequence\n"
        "from .core import Forest, Residue\n"
        "def f(x: 'Optional[int]') -> 'Residue':\n"
        "    return numpy.linalg.norm(Forest)\n")
    assert unused_imports(source) == [("Sequence", 5), ("os", 2),
                                      ("osp", 3)]


def test_no_unused_imports():
    problems = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for name, line in unused_imports(path.read_text()):
                problems.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not problems, "unused imports:\n" + "\n".join(problems)
