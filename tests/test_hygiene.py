"""Source hygiene that a linter would check: no module imports a name it
never uses, and no public name in the package goes uncalled by the package
itself.  The import check leaves out the package's `__init__.py`, because
its imports are the public API.  One module owns the number format: only
`intervals.py` imports mpmath."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ramseykit").glob("*.py"))
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_unused_names():
    source = ("import json\nimport os.path\nfrom a import b, c as d\n"
              "from __future__ import annotations\nprint(os.path, d)\n")
    assert unused_imports(source) == [(1, "json"), (3, "b")]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in MODULES
             for line, name in unused_imports(path.read_text("utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)


def imported_modules(source: str) -> set[str]:
    """The top-level packages a module imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_scan_finds_imported_modules():
    source = ("import os.path\nfrom mpmath import iv\nfrom . import io\n"
              "def f():\n    import json\n")
    assert imported_modules(source) == {"os", "mpmath", "json"}


def test_only_the_numerics_module_imports_mpmath():
    found = [path.name for path in PACKAGE
             if "mpmath" in imported_modules(path.read_text("utf-8"))]
    assert found == ["intervals.py"]


def names_read(tree: ast.AST) -> Counter:
    """How often each name is read in `tree`: as a variable, an attribute
    or an imported name."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.asname or node.name] += 1
    return found


def unused_names(sources: list[str]) -> list[str]:
    """Public top-level functions and classes, and public methods and
    properties, that no code in `sources` names outside their own def.

    An `__init__.py` among the sources counts its imports as uses, so an
    exported name is used.  Dunders and `_private` names are exempt.  Names
    match by spelling alone: a dead name that shares its spelling with a
    live one goes unreported."""
    trees = [ast.parse(source) for source in sources]
    total = sum((names_read(tree) for tree in trees), Counter())
    found = []
    for tree in trees:
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and not d.name.startswith("_")
                        and total[d.name] == names_read(d)[d.name]):
                    found.append(d.name)
    return found


def test_scan_finds_names_without_a_caller():
    module = ("def helper():\n    return 1\n"
              "def lonely():\n    return lonely()\n"
              "class Box:\n"
              "    def __len__(self):\n        return 0\n"
              "    def _private(self):\n        return 0\n"
              "    def size(self):\n        return helper()\n"
              "    @property\n    def dead(self):\n        return self.dead\n")
    user = "from m import Box\nBox().size()\n"
    assert unused_names([module, user]) == ["lonely", "dead"]


def test_every_public_name_has_a_caller_in_the_package():
    found = unused_names([path.read_text("utf-8") for path in PACKAGE])
    assert not found, "public names nothing in src/ uses: " + ", ".join(found)
