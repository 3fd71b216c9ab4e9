"""Hot integer loops: tour stepping and orientation scans.

The loops are plain Python over tuples of ints and serial, so output order
never depends on scheduling.  All kernel inputs are 0-based; the public
modules translate to and from 1-based grid positions.
"""

from __future__ import annotations

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
    t: ScanTables, row_rev: Sequence[int], col_rev: Sequence[int], start: int
) -> list[int]:
    """Cell ids of the successor orbit from ``start``, in visiting order.

    ``row_rev[i]`` is true when row i scans right-to-left, ``col_rev[j]`` when
    column j scans bottom-to-top.
    """
    rows, cols = t.rows, t.cols
    row_next, row_prev, col_next, col_prev = t.row_next, t.row_prev, t.col_next, t.col_prev
    orbit = []
    cur = start
    while True:
        orbit.append(cur)
        mid = row_prev[cur] if row_rev[rows[cur]] else row_next[cur]
        cur = col_prev[mid] if col_rev[cols[mid]] else col_next[mid]
        if cur == start:
            return orbit


def scan_orientations(t: ScanTables, trivial_rows: bool) -> list[int]:
    """Masks of the orientation pairs whose tour covers every cell.

    Masks ascend, which is lexicographic order over the direction vectors
    with +1 before -1 (first position = most significant bit, row vector above
    column vector).  A mask bit 1 means direction -1; a pair is recorded as
    (row_mask << n) | col_mask.
    """
    m, n = t.m, t.n
    masks = []
    for rmask in range(1 if trivial_rows else 1 << m):
        row_rev = [(rmask >> (m - 1 - i)) & 1 for i in range(m)]
        for cmask in range(1 << n):
            col_rev = [(cmask >> (n - 1 - j)) & 1 for j in range(n)]
            if len(tour_orbit(t, row_rev, col_rev, 0)) == t.ncells:
                masks.append((rmask << n) | cmask)
    return masks

