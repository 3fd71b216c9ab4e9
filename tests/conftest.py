"""Shared fixtures: bundled arrays, golden files, and searched test arrays,
and the paper's orderings-and-compatibility route, the oracle that
``build_embeddings`` is checked against."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import pytest

from heffter.embedding import CombinatorialEmbedding, EmbeddingSource
from heffter.pfarray import (
    PartiallyFilledArray,
    Skeleton,
    diagonal_skeleton,
    parse_array,
    parse_skeleton_json,
)
from heffter.validation import compose, is_single_cycle, search_heffter

GOLDEN_DIR = Path(__file__).parent / "golden"


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / name) as f:
        return json.load(f)


def cycles_table(size: int, cycles) -> tuple[int, ...]:
    """The permutation table, -1 off the listed elements, of disjoint cycles."""
    table = [-1] * size
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            table[a] = b
    return tuple(table)


def alternating_embedding(v, t, entries, negated):
    """The rotation alternating ``entries`` with ``negated``, a reordering of
    their negatives: every difference cycle stays in one class, while its
    sum, and so the face length and simplicity, is arbitrary."""
    cycle = [d for pair in zip(entries, negated) for d in pair]
    # m = n = 1, k = 3 keeps the closed-form genus defined (it is 1)
    source = EmbeddingSource(1, 1, 3, 3, "random", (1,), (1,))
    return CombinatorialEmbedding(v, t, cycles_table(v, [cycle]),
                                  frozenset(entries), source)


def directed_lines(array, rows_dir, cols_dir) -> tuple[list, list]:
    """The rows left to right and the columns top to bottom, each reversed
    where its direction is -1: the line orderings, built line by line."""
    rows = [array.row_values(i) for i in range(1, array.m + 1)]
    cols = [array.column_values(j) for j in range(1, array.n + 1)]
    return ([line if d == 1 else line[::-1] for line, d in zip(rows, rows_dir)],
            [line if d == 1 else line[::-1] for line, d in zip(cols, cols_dir)])


def reference_orderings(array, rows_dir, cols_dir) -> tuple[tuple[int, ...], ...]:
    """(row_perm, col_perm) the reference way: reverse lines, then cycles_table."""
    rows, cols = directed_lines(array, rows_dir, cols_dir)
    return cycles_table(array.v, rows), cycles_table(array.v, cols)


def compatible(row_perm, col_perm) -> bool:
    """The paper's compatibility test: col_perm ∘ row_perm is one cycle on the entries."""
    entries = [a for a, image in enumerate(row_perm) if image >= 0]
    return is_single_cycle(compose(col_perm, row_perm), entries)


def rotation_from_orderings(v, row_perm, col_perm) -> tuple[int, ...]:
    """The paper's rotation: rho0[a] = -row_perm[a] and rho0[-a] = col_perm[a]
    for each entry a, -1 elsewhere."""
    rho0 = [-1] * v
    for a, image in enumerate(row_perm):
        if image >= 0:
            rho0[a] = (-image) % v
            rho0[(-a) % v] = col_perm[a]
    return tuple(rho0)


def inverse(table) -> tuple[int, ...]:
    """The inverse of a permutation table, -1 where the table is -1."""
    out = [-1] * len(table)
    for d, image in enumerate(table):
        if image >= 0:
            out[image] = d
    return tuple(out)


def transpose(obj):
    """The transpose of a skeleton or of an array: position (i, j) goes to (j, i)."""
    if isinstance(obj, Skeleton):
        return Skeleton(obj.n, obj.m, frozenset((j, i) for (i, j) in obj.filled))
    return PartiallyFilledArray(obj.n, obj.m, obj.v, obj.t, obj.fold,
                                tuple(zip(*obj.cells)))


def fixture_path(name: str) -> Path:
    return Path(str(resources.files("heffter") / "data" / name))


@pytest.fixture(scope="session")
def ex_array() -> PartiallyFilledArray:
    """The bundled 11x11 array over Z_207 relative to the order-9 subgroup."""
    return parse_array(fixture_path("h9_11_9.arr").read_text())


@pytest.fixture(scope="session")
def ex_pair() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The orientation pair (all +1 rows; first column reversed) of the goldens."""
    return (1,) * 11, (-1,) + (1,) * 10


@pytest.fixture(scope="session")
def lambda2_array() -> PartiallyFilledArray:
    return parse_array(fixture_path("lambda2_2x5.arr").read_text())


@pytest.fixture(scope="session")
def cr_skeleton() -> Skeleton:
    return parse_skeleton_json(fixture_path("cr_6x6.skel.json").read_text())


@pytest.fixture(scope="session")
def h33() -> PartiallyFilledArray:
    """A searched 3x3 fully filled array over Z_19."""
    found = search_heffter(3, 3, 3, 3, 1, limit=1)
    assert found
    return found[0]


@pytest.fixture(scope="session")
def h53_cyclic() -> PartiallyFilledArray:
    """A searched 5x5 cyclically 3-diagonal array over Z_31."""
    found = search_heffter(5, 5, 3, 3, 1, limit=1, skeleton="cyclic")
    assert found
    return found[0]


@pytest.fixture(scope="session")
def h53_centered() -> PartiallyFilledArray:
    """A 5x5 cyclic array on diagonals {5, 1, 2}, whose skeleton equals its transpose."""
    skel = diagonal_skeleton(5, (5, 1, 2))
    found = search_heffter(5, 5, 3, 3, 1, limit=1, skeleton=skel)
    assert found
    return found[0]
