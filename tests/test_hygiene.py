"""Every name a module of the package imports is used in that module, and every
function and class it defines is used somewhere.

No linter runs on the package, so these scans keep a deletion from leaving a
dead import or a dead helper behind.  ``__init__.py`` is left out of the
import scan: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sdedensity"


def _imported(tree: ast.Module):
    """The names the module's import statements bind (``from __future__`` aside)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported(tree)) - used)
    assert unused == [], f"{path.name} imports {unused} and never uses them"


def _references(tree: ast.Module):
    """The names a module uses: names, attributes and imported names.  A
    definition's own name is none of these."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_module_level_definition_is_referenced():
    used = set()
    for where in ("src", "tests", "tools", "perfbench"):
        for path in (ROOT / where).rglob("*.py"):
            used.update(_references(ast.parse(path.read_text())))
    dead = sorted(f"{path.name}:{node.name}"
                  for path in SRC.glob("*.py") for node in ast.parse(path.read_text()).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used)
    assert dead == [], f"defined and never referenced: {dead}"
