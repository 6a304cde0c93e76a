"""Source hygiene checks over the package modules."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "genecbs"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) of each name a module imports but never references.
    `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Names inside string annotations, such as -> "Scenario", count too.
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for leaf in ast.walk(ann) if ann is not None else ():
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    expr = ast.parse(leaf.value, mode="eval")
                    used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def nested_imports(source: str):
    """(line, module) of each import statement below module level."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    return sorted(
        (node.lineno, node.module if isinstance(node, ast.ImportFrom) else node.names[0].name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    )


def test_modules_are_found():
    assert {"bench.py", "cli.py", "core.py", "domain.py", "lowlevel.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def test_unused_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Dict, List, Set\n"
        "x: List[int] = []\n"
        "def f() -> 'Set[int]': ...\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "Dict")]


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_module_level(module):
    assert nested_imports(module.read_text()) == []


def test_nested_import_is_reported():
    source = (
        "import os\n"
        "def f():\n"
        "    import json\n"
        "    from . import lowlevel\n"
        "class C:\n"
        "    from typing import List\n"
    )
    assert nested_imports(source) == [(3, "json"), (4, None), (6, "typing")]
