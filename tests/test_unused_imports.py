"""Every module-level import in ``src/``, ``jobs/`` and ``tests/`` is used.

The project runs no linter, so this is its unused-import check: a name that
a module imports at top level must appear somewhere in that module as a
name. Package ``__init__.py`` files (whose imports are re-exports) and
``from __future__`` imports are exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each top-level import binding that the module
    never references."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name)
                      for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_checker_flags_only_unreferenced_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from typing import Any, Sequence as Seq\n"
              "x: Seq = os.path.join\n")
    assert _unused_imports(source) == [(3, "np"), (4, "Any")]


def test_no_unused_module_level_imports():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for top in ("src", "jobs", "tests")
              for path in sorted((ROOT / top).rglob("*.py"))
              if path.name != "__init__.py"
              for line, name in _unused_imports(path.read_text())]
    assert not unused, "unused imports:\n" + "\n".join(unused)
