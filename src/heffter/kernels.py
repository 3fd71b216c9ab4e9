"""Hot integer loops: tour stepping and orientation scans.

The loops are plain Python over tuples of ints and serial, so output order
never depends on scheduling.  The kernels take an orientation pair as its two
±1 direction vectors, rows then columns, the form the whole library uses.
Cell ids and line indices are 0-based; the public modules translate to and
from 1-based grid positions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence


# -- scan tables -----------------------------------------------------------------


@dataclass(frozen=True)
class ScanTables:
    """Per-cell successor lookup tables for a fixed skeleton.

    ``row_next[c]``/``row_prev[c]`` give the cell id of the next filled cell in
    c's row scanning right/left (cyclically; a single-cell line wraps to
    itself), ``col_next``/``col_prev`` the same along columns.  ``rows`` and
    ``cols`` are 0-based coordinates per cell id; ids are row-major.
    """

    m: int
    n: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    row_next: tuple[int, ...]
    row_prev: tuple[int, ...]
    col_next: tuple[int, ...]
    col_prev: tuple[int, ...]
    index: dict  # (row, col) 0-based -> cell id

    @property
    def ncells(self) -> int:
        return len(self.rows)


def build_scan_tables(m: int, n: int, filled: list[tuple[int, int]]) -> ScanTables:
    """Build :class:`ScanTables` from 0-based filled positions (row-major sorted)."""
    cells = sorted(filled)
    if not cells:
        raise ValueError("empty skeleton")
    idx = {pos: c for c, pos in enumerate(cells)}
    rows, cols = zip(*cells)
    row_next, row_prev, col_next, col_prev = ([0] * len(cells) for _ in range(4))

    by_row: dict[int, list[int]] = {}
    by_col: dict[int, list[int]] = {}
    for (i, j) in cells:
        by_row.setdefault(i, []).append(j)
        by_col.setdefault(j, []).append(i)
    for i, js in by_row.items():
        L = len(js)
        for a, j in enumerate(js):
            row_next[idx[(i, j)]] = idx[(i, js[(a + 1) % L])]
            row_prev[idx[(i, j)]] = idx[(i, js[(a - 1) % L])]
    for j, is_ in by_col.items():
        L = len(is_)
        for a, i in enumerate(is_):
            col_next[idx[(i, j)]] = idx[(is_[(a + 1) % L], j)]
            col_prev[idx[(i, j)]] = idx[(is_[(a - 1) % L], j)]
    return ScanTables(m, n, rows, cols, tuple(row_next), tuple(row_prev),
                      tuple(col_next), tuple(col_prev), idx)


# -- kernels ----------------------------------------------------------------------


def tour_orbit(
    t: ScanTables, rows_dir: Sequence[int], cols_dir: Sequence[int], start: int
) -> list[int]:
    """Cell ids of the successor orbit from ``start``, in visiting order.

    ``rows_dir[i]`` is +1 when row i scans left-to-right and -1 when it scans
    right-to-left; ``cols_dir[j]`` is +1 top-to-bottom and -1 bottom-to-top.
    """
    rows, cols = t.rows, t.cols
    row_next, row_prev, col_next, col_prev = t.row_next, t.row_prev, t.col_next, t.col_prev
    orbit = []
    cur = start
    while True:
        orbit.append(cur)
        mid = row_prev[cur] if rows_dir[rows[cur]] < 0 else row_next[cur]
        cur = col_prev[mid] if cols_dir[cols[mid]] < 0 else col_next[mid]
        if cur == start:
            return orbit


def scan_orientations(
    t: ScanTables, trivial_rows: bool
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The direction-vector pairs (R, C) whose tour covers every cell.

    Pairs come in lexicographic order over (R, C) with +1 before -1; with
    ``trivial_rows`` R is all +1.
    """
    signs = (1, -1)
    row_vectors = [(1,) * t.m] if trivial_rows else itertools.product(signs, repeat=t.m)
    col_vectors = list(itertools.product(signs, repeat=t.n))
    return [
        (rows_dir, cols_dir)
        for rows_dir in row_vectors
        for cols_dir in col_vectors
        if len(tour_orbit(t, rows_dir, cols_dir, 0)) == t.ncells
    ]
