"""The library runs on the standard library alone, starts up without loading
what a command does not use, and every name in it is used."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import heffter
from heffter import (
    BiembeddingReport,
    BoundQuery,
    BoundResult,
    CombinatorialEmbedding,
    DiagonalProfile,
    EmbeddingMap,
    FamilySpec,
    OrientationPair,
    PartiallyFilledArray,
    Skeleton,
    StabilizerGroup,
    TourResult,
    ValidationReport,
    biembedding_report,
    build_embedding,
    classify,
    classify_diagonality,
    evaluate_bound,
    stabilizer,
    three_diagonal_family,
    tour,
    validate_heffter,
)
from heffter.embedding import EmbeddingSource
from heffter.iso import ClassificationResult, IsomorphismClass
from heffter.pipeline import PipelineResult, run_pipeline

# every public record type but SolutionFamily, a plain mutable class
RECORD_TYPES = {
    BiembeddingReport, BoundQuery, BoundResult, ClassificationResult, CombinatorialEmbedding,
    DiagonalProfile, EmbeddingMap, EmbeddingSource, FamilySpec, IsomorphismClass,
    OrientationPair, PartiallyFilledArray, PipelineResult, Skeleton, StabilizerGroup,
    TourResult, ValidationReport,
}

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


STARTUP = """
import json, subprocess, sys
sys.path.insert(0, {src!r})
# heffter.cli by the lookup that ``from heffter import cli`` makes first
from heffter import cli, embedding, iso, kernels, knight, pfarray, validation
loaded = sorted(m for m in ("dataclasses", "hashlib", "heffter.bounds") if m in sys.modules)
import heffter
from heffter import BoundQuery
result = heffter.evaluate_bound(BoundQuery("CDY", 13, 11))
names = ("BoundQuery", "BoundResult", "binary_entropy", "binom", "derangements",
         "evaluate_bound")
exported = all(getattr(heffter, name) is getattr(heffter.bounds, name) for name in names)
help_ = subprocess.run([sys.executable, "-m", "heffter", "bounds", "--help"],
                       capture_output=True, text=True, cwd={src!r})
print(json.dumps({{"loaded": loaded, "exact": result.exact, "exported": exported,
                  "help": help_.stdout, "help_rc": help_.returncode}}))
"""


def test_cli_starts_without_dataclasses_or_bounds():
    # only the bounds command needs heffter.bounds, which the package's
    # __getattr__ and the command import on first use; hashlib is imported
    # by the two functions that hash
    src = str(Path(heffter.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", STARTUP.format(src=src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["loaded"] == []
    assert child["exact"] == evaluate_bound(BoundQuery("CDY", 13, 11)).exact
    assert child["exported"]
    assert child["help_rc"] == 0 and "CDY, CDY2" in child["help"] and "PropPrime" in child["help"]


def test_no_module_imports_dataclasses():
    package = Path(heffter.__file__).resolve().parent
    importers = [
        path.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
    ]
    assert importers == []


def package_imports(module: str) -> set[str]:
    """The modules of the package that ``module`` imports; it must import
    them relatively (``from .x import ...`` or ``from . import x``)."""
    tree = ast.parse((Path(heffter.__file__).resolve().parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else [a.name for a in node.names])
        assert not (isinstance(node, ast.Import)
                    and any(a.name.startswith("heffter") for a in node.names))
    return names


def test_iso_imports_only_embedding_and_validation():
    # iso works on built embeddings: it reads no array, skeleton or solution
    assert package_imports("iso") <= {"embedding", "validation"}


def test_pipeline_core_imports_only_embedding_and_iso():
    # the core reaches the layers through their modules, and the CLI runs
    # pipeline and classify on a run directory through it
    assert package_imports("pipeline") == {"embedding", "iso"}
    assert "pipeline" in package_imports("cli")


def test_records_are_immutable(ex_array, ex_pair):
    # one instance of each public record type, made by the library itself
    skel = ex_array.skeleton()
    emb = build_embedding(ex_array, *ex_pair)
    group = stabilizer(emb)
    result = classify([emb])
    records = [
        skel, ex_array, classify_diagonality(skel), validate_heffter(ex_array),
        OrientationPair(*ex_pair),
        tour(skel, *ex_pair), three_diagonal_family(9).spec, emb.source, emb,
        biembedding_report(emb), group, group.elements[0],
        result, result.classes[0], run_pipeline(ex_array, [ex_pair]),
        BoundQuery("CDY", 13, 11), evaluate_bound(BoundQuery("CDY", 13, 11)),
    ]
    assert {type(r) for r in records} == RECORD_TYPES
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_replace_runs_the_constructor_checks(ex_array, ex_pair):
    emb = build_embedding(ex_array, *ex_pair)
    rho0 = list(emb.rho0)
    rho0[1], rho0[2] = rho0[2], rho0[1]  # two cycles: not a tour solution
    cases = [(ex_array.skeleton(), {"m": 0}, "skeleton dimensions must be positive"),
             (ex_array, {"t": 2}, "t=2 does not divide v=207"),
             (emb, {"rho0": tuple(rho0)}, "single cycle")]
    for record, change, message in cases:
        with pytest.raises(ValueError, match=message):
            record._replace(**change)
    assert emb._replace(source=None) == CombinatorialEmbedding(*emb[:4])


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
