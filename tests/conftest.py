"""Shared fixtures: bundled arrays, golden files, and searched test arrays;
the paper's orderings-and-compatibility route, the oracle that
``build_embeddings`` is checked against; and the line-by-line validator and
array writer that ``validate_heffter`` and ``to_text`` are checked against."""

from __future__ import annotations

import json
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import strategies as st

from heffter.embedding import CombinatorialEmbedding, EmbeddingSource
from heffter.pfarray import (
    ArrayFormatError,
    PartiallyFilledArray,
    Skeleton,
    diagonal_skeleton,
    parse_array,
    parse_skeleton_json,
    signed,
)
from heffter.validation import (
    ValidationReport,
    compose,
    is_single_cycle,
    search_heffter,
    subgroup_members,
)

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


def row_values(array, i: int) -> tuple[int, ...]:
    """Entries of row i (1-based), left to right."""
    return tuple(x for x in array.cells[i - 1] if x is not None)


def column_values(array, j: int) -> tuple[int, ...]:
    """Entries of column j (1-based), top to bottom."""
    return tuple(row[j - 1] for row in array.cells if row[j - 1] is not None)


def entries(array) -> tuple[int, ...]:
    """All filled entries, row-major."""
    return tuple(x for row in array.cells for x in row if x is not None)


def directed_lines(array, rows_dir, cols_dir) -> tuple[list, list]:
    """The rows left to right and the columns top to bottom, each reversed
    where its direction is -1: the line orderings, built line by line."""
    rows = [row_values(array, i) for i in range(1, array.m + 1)]
    cols = [column_values(array, j) for j in range(1, array.n + 1)]
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


def reference_validate_heffter(array) -> ValidationReport:
    """The Heffter conditions read line by line, with the signed support
    counted in a Counter: the validator ``validate_heffter`` must agree with,
    field by field and message by message."""
    v, t, lam = array.v, array.t, array.fold

    row_w = [len(row_values(array, i)) for i in range(1, array.m + 1)]
    col_w = [len(column_values(array, j)) for j in range(1, array.n + 1)]
    uniform = len(set(row_w)) == 1 and len(set(col_w)) == 1
    if not uniform:
        return ValidationReport(v, t, lam, None, None, False, None, None, None)
    h, k = row_w[0], col_w[0]

    if lam * (v - t) != 2 * array.n * k:
        raise ArrayFormatError(
            f"v={v} inconsistent with 2nk/lambda + t = "
            f"{2 * array.n * k // lam + t} (n={array.n}, k={k}, lambda={lam})"
        )

    J = subgroup_members(v, t)
    support_errors: list[str] = []
    signed_count: Counter[int] = Counter()
    for x in entries(array):
        signed_count[x] += 1
        signed_count[(-x) % v] += 1
    for x in sorted(J):
        if signed_count[x]:
            support_errors.append(f"element {x} of the subgroup J appears")
    if lam == 1:
        for x in range(1, v):
            if x in J or x > (-x) % v:
                continue
            if signed_count[x] != 1:  # the number of entries in the class ±x
                support_errors.append(
                    f"class ±{x}: appears {signed_count[x]} times, expected 1"
                )
    else:
        for x in range(v):
            if x in J:
                continue
            if signed_count[x] != lam:
                support_errors.append(
                    f"element {x}: signed support hits it {signed_count[x]} "
                    f"times, expected {lam}"
                )

    bad_rows = tuple(
        i for i in range(1, array.m + 1) if sum(row_values(array, i)) % v != 0
    )
    bad_cols = tuple(
        j for j in range(1, array.n + 1) if sum(column_values(array, j)) % v != 0
    )
    return ValidationReport(
        v, t, lam, h, k, True, not support_errors, not bad_rows, not bad_cols,
        bad_rows, bad_cols, tuple(support_errors),
    )


def reference_to_text(array) -> str:
    """The array's text format, written row by row through ``signed``."""
    lines = [f"v={array.v} t={array.t} lambda={array.fold} m={array.m} n={array.n}"]
    for i in range(1, array.m + 1):
        lines.append(",".join("" if x is None else str(signed(x, array.v))
                              for x in array.cells[i - 1]))
    return "\n".join(lines) + "\n"


@st.composite
def drawn_arrays(draw) -> PartiallyFilledArray:
    """Arrays of at most 5x5 over Z_v, fold 1 or 2, for the validator's and
    the writer's oracles.

    Most are square with k cyclic diagonals, so every line holds k cells
    (k = 0 is the all-empty array), where one cell may be emptied to make the
    weights uneven; the rest have a drawn pattern.  v mostly fits the first
    column's weight k, v = 2nk/fold + t, and is drawn otherwise.  Where v
    fits, the entries may be one representative of each ± class of
    Z_v \\ J, fold times (a class {x} with x = -x once per two folds), with
    drawn signs and order, so that the support condition can hold; else they
    are drawn from Z_v, J and v/2.  Then the last cell of each row, or of
    each column, may be set so that its line sums to 0.
    """
    fold = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(1, 5))
    if draw(st.integers(0, 3)):
        m, k = n, draw(st.sampled_from((*range(1, n + 1), n, 0)))
        filled = [[(j - i) % n < k for j in range(n)] for i in range(n)]
        if k and draw(st.integers(0, 3)) == 0:
            filled[0][0] = False
    else:
        m = draw(st.integers(1, 5))
        filled = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                               min_size=m, max_size=m))
    k = sum(row[0] for row in filled)
    base, rem = divmod(2 * n * k, fold)
    if not rem and draw(st.integers(0, 3)):
        t = draw(st.sampled_from([d for d in range(1, base + 1) if base % d == 0]
                                 or [1, 2, 3, 4]))
        v = base + t
    else:
        v = draw(st.integers(1, 40))
        t = draw(st.sampled_from([d for d in range(1, v + 1) if v % d == 0]))
    step = v // t
    at = [(i, j) for i in range(m) for j in range(n) if filled[i][j]]
    reps = [x for x in range(1, v // 2 + 1) if x % step
            for _ in range(fold // 2 if 2 * x == v else fold)]
    if len(reps) == len(at) and draw(st.booleans()):
        values = [x if keep else v - x
                  for x, keep in zip(draw(st.permutations(reps)),
                                     draw(st.lists(st.booleans(), min_size=len(at),
                                                   max_size=len(at))))]
    else:
        special = sorted({*range(0, v, step), v // 2})
        values = draw(st.lists(st.integers(0, v - 1) | st.sampled_from(special),
                               min_size=len(at), max_size=len(at)))
    cells: list[list[int | None]] = [[None] * n for _ in range(m)]
    for (i, j), x in zip(at, values):
        cells[i][j] = x
    lines = draw(st.sampled_from(("none", "rows", "columns")))
    if lines != "none":
        grid = cells if lines == "rows" else [list(col) for col in zip(*cells)]
        for line in grid:
            last = max((j for j, x in enumerate(line) if x is not None), default=None)
            if last is not None:
                line[last] = -sum(x for j, x in enumerate(line)
                                  if x is not None and j != last) % v
        if lines == "columns":
            cells = [list(row) for row in zip(*grid)]
    return PartiallyFilledArray(m, n, v, t, fold, tuple(map(tuple, cells)))


def count_line_reads(monkeypatch) -> Counter:
    """Count the calls of the one read of an array's lines
    (``validation._natural_lines``) and of the one check of them
    (``validation._validate_lines``), at every module that looks them up.
    ``PartiallyFilledArray`` has no per-line reader of its own to go round
    them."""
    from heffter import embedding, validation

    calls: Counter = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in ("_natural_lines", "_validate_lines"):
        wrapper = counted(name, getattr(validation, name))
        for module in (validation, embedding):
            monkeypatch.setattr(module, name, wrapper)
    return calls


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
