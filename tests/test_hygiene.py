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


def unreferenced_private_names(sources):
    """(module, line, name) of each private module-level function, class or
    constant of `sources` (module name -> source) that no code references
    outside its own definition: neither its own module nor a module that
    imports it by name. Dunder names are exempt."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imports = {
        module: {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        for module, tree in trees.items()
    }
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            inside = set(map(id, ast.walk(node)))
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                readers = [t for m, t in trees.items() if m == module or name in imports[m]]
                if not any(
                    isinstance(n, ast.Name) and n.id == name and id(n) not in inside
                    for t in readers
                    for n in ast.walk(t)
                ):
                    out.append((module, node.lineno, name))
    return sorted(out)


def ctype_comparisons(source: str):
    """Line of each comparison with a constraint's kind on either side: an
    attribute named `ctype`, or a name assigned one (`ctype = c.ctype`,
    `ctype, t = c.ctype, c.time`), such as `c.ctype == "vertex"` or
    `ctype in kinds`."""
    tree = ast.parse(source)

    def is_ctype(node):
        return isinstance(node, ast.Attribute) and node.attr == "ctype"

    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                else:
                    pairs = [(target, node.value)]
                aliases |= {t.id for t, v in pairs if isinstance(t, ast.Name) and is_ctype(v)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(is_ctype(x) or (isinstance(x, ast.Name) and x.id in aliases) for x in [node.left, *node.comparators])
    )


def unasked_interface_methods(sources):
    """(module, line, name) of each public method that a class named
    `Domain` declares in `sources` (module name -> source) and that no code
    of `sources` reads as an attribute (`x.name`) outside the definitions
    of a method of that name: an interface method that nothing asks for."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    declared = [
        (module, item.lineno, item.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Domain"
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]
    out = []
    for module, line, name in declared:
        inside = {
            id(n)
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
            for n in ast.walk(node)
        }
        if not any(
            isinstance(n, ast.Attribute) and n.attr == name and id(n) not in inside
            for tree in trees.values()
            for n in ast.walk(tree)
        ):
            out.append((module, line, name))
    return sorted(out)


def subclass_definitions(sources, base: str, name: str):
    """(module, line, class) of each class of `sources` (module name ->
    source) that derives from the class named `base`, directly or through
    other classes of `sources`, and defines a method named `name`."""
    classes = [
        (module, node)
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    ]
    derived = {base}
    grown = True
    while grown:
        grown = False
        for _, node in classes:
            if node.name not in derived and any(isinstance(b, ast.Name) and b.id in derived for b in node.bases):
                derived.add(node.name)
                grown = True
    return sorted(
        (module, item.lineno, node.name)
        for module, node in classes
        if node.name != base and node.name in derived
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == name
    )


def module_uses(source: str, module: str, names):
    """(scope, line) of each use of `<module>.<name>` in `source` for a name
    in `names`: an attribute of the module (`json.dumps`) or a name imported
    from it (`from json import dumps as d`, `from .lowlevel import plan`).
    The scope is the dotted name of the innermost enclosing class or
    function, "" at module level."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module
        for alias in node.names
        if alias.name in names
    }
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr in names
                and isinstance(child.value, ast.Name)
                and child.value.id == module
            ) or (isinstance(child, ast.Name) and child.id in aliases):
                out.append((scope, child.lineno))
            visit(child, scope)

    visit(tree, "")
    return sorted(out)


def uses_in_package(module: str, names):
    """(file name, scope) of each use of `<module>.<name>` in the package."""
    return {
        (p.name, scope) for p in sorted(SRC.glob("*.py")) for scope, _ in module_uses(p.read_text(), module, names)
    }


def test_modules_are_found():
    assert {"bench.py", "cli.py", "core.py", "domain.py", "lowlevel.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_unreferenced_private_name_is_reported():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_LEFT = 2\n"
            "def _helper():\n"
            "    return _USED\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Shared: ...\n"
            "__all__ = []\n"
            "x = _helper()\n"
        ),
        "b.py": "from .a import _Shared\ny = _Shared()\n_LEFT = 3\nz = _LEFT\n",
    }
    assert unreferenced_private_names(sources) == [("a.py", 2, "_LEFT"), ("a.py", 5, "_recursive")]


def test_every_domain_method_is_asked_for():
    """Each public method of the `Domain` interface is read somewhere in the
    package, outside its own definitions."""
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unasked_interface_methods(sources) == []


def test_unasked_interface_method_is_reported():
    sources = {
        "a.py": (
            "class Domain:\n"
            "    def asked(self): ...\n"
            "    def unasked(self): ...\n"
            "    def recursive(self):\n"
            "        return self.recursive()\n"
            "    def overridden(self): ...\n"
            "    def _private(self): ...\n"
            "    def helper(self):\n"
            "        return self.asked()\n"
        ),
        "b.py": (
            "class Grid(Domain):\n"
            "    def overridden(self):\n"
            "        return self.overridden\n"
            "def f(d):\n"
            "    return d.helper(), unasked, overridden()\n"
        ),
    }
    assert unasked_interface_methods(sources) == [
        ("a.py", 3, "unasked"), ("a.py", 4, "recursive"), ("a.py", 6, "overridden"),
    ]


def test_one_move_rule():
    """Whether a -> b is a move is decided once, by `Domain.transition_valid`;
    no domain restates it."""
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert subclass_definitions(sources, "Domain", "transition_valid") == []


def test_move_rule_override_is_reported():
    sources = {
        "a.py": (
            "class Domain:\n"
            "    def transition_valid(self): ...\n"
            "class Grid(Domain):\n"
            "    def transition_valid(self): ...\n"
            "class Arm(Domain):\n"
            "    def successors(self): ...\n"
        ),
        "b.py": (
            "class Wide(Arm):\n"
            "    def other(self): ...\n"
            "    def transition_valid(self): ...\n"
            "class Unrelated:\n"
            "    def transition_valid(self): ...\n"
        ),
    }
    assert subclass_definitions(sources, "Domain", "transition_valid") == [("a.py", 4, "Grid"), ("b.py", 3, "Wide")]


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


@pytest.mark.parametrize("module", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_only_the_kind_table_compares_constraint_kinds(module):
    """What a constraint kind means is read from its row of `core.KINDS`;
    no other module tells kinds apart by comparing their names."""
    assert ctype_comparisons(module.read_text()) == []


def test_ctype_comparison_is_reported():
    source = (
        "if c.ctype == 'vertex':\n"
        "    pass\n"
        "kind = KINDS[c.ctype]\n"
        "y = c.ctype in ('sphere', 'avoidance')\n"
        "z = 'edge' != other.ctype\n"
        "w = entry.kind == 'sphere'\n"
        "ctype, t = c.ctype, c.time\n"
        "u = ctype == 'edge' or t == 3\n"
        "name = c.ctype\n"
        "v = name != 'priority'\n"
    )
    assert ctype_comparisons(source) == [1, 4, 5, 8, 10]


def test_only_the_requester_and_the_suite_probe_ask_the_planner():
    """Solvers ask `lowlevel.plan` through their requester, which scopes,
    counts and tables every request; instance generation plans its
    coordination probe with its own heuristic."""
    assert uses_in_package("lowlevel", {"plan"}) == {
        ("highlevel.py", "_Requester.ask"), ("bench.py", "_root_conflicts"),
    }


def test_only_canonical_json_writes_json():
    """Every file the package writes goes through one strict encoder."""
    assert uses_in_package("json", {"dump", "dumps"}) == {("core.py", "canonical_json")}


def test_module_use_is_reported():
    source = (
        "import json\n"
        "from json import dumps as to_text\n"
        "from .lowlevel import plan\n"
        "x = json.dumps({})\n"
        "def write(obj, fh):\n"
        "    return json.dump(obj, fh)\n"
        "class Store:\n"
        "    def save(self):\n"
        "        return to_text(self), json.loads('1')\n"
        "    def ask(self, lowlevel):\n"
        "        return lowlevel.plan(), plan, lowlevel.other()\n"
    )
    assert module_uses(source, "json", {"dump", "dumps"}) == [("", 4), ("Store.save", 9), ("write", 6)]
    assert module_uses(source, "lowlevel", {"plan"}) == [("Store.ask", 11), ("Store.ask", 11)]
