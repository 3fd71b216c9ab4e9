"""The library runs on the standard library alone, and every name in it is used."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import heffter

CHILD = """
import json, pkgutil, sys
sys.path.insert(0, {src!r})
import heffter
for info in pkgutil.iter_modules(heffter.__path__):
    __import__("heffter." + info.name)
print(json.dumps({{
    "loaded": sorted(m for m in sys.modules if m.startswith("heffter.")),
    "numpy": "numpy" in sys.modules,
}}))
"""


def test_import_loads_no_numpy():
    src = str(Path(heffter.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", CHILD.format(src=src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert {"heffter.cli", "heffter.embedding", "heffter.iso",
            "heffter.kernels"} <= set(child["loaded"])
    assert not child["numpy"]


def _referenced_names(node) -> set[str]:
    """Every name a piece of code uses: bare names, attributes, and imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_module_level_name_has_a_caller():
    # a module-level function or class must be used somewhere in the package
    # outside its own definition, or be exported by heffter/__init__.py;
    # methods are left out, since a name alone does not say whose method it is
    package = Path(heffter.__file__).resolve().parent
    statements = []  # (module, top-level statement)
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        statements.extend((path.stem, stmt) for stmt in tree.body)
    used = [(module, stmt, _referenced_names(stmt)) for module, stmt in statements]
    dead = []
    for module, stmt in statements:
        if module == "__init__" or not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in names for m, other, names in used if other is not stmt):
            dead.append(f"{module}.{stmt.name}")
    assert dead == []
