"""Source hygiene that a linter would check: no module imports a name it
never uses.  The package's `__init__.py` is left out, because its imports
are the public API."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "ramseykit").glob("*.py")
     if p.name != "__init__.py"]
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
