"""Scan tables; tours are tested through ``knight``."""

import pytest

from heffter import kernels
from heffter.pfarray import cyclic_diagonal_skeleton


def tables(n, k):
    skel = cyclic_diagonal_skeleton(n, k)
    return kernels.build_scan_tables(
        n, n, [(i - 1, j - 1) for (i, j) in skel.filled]
    )


def test_scan_tables_shape():
    t = tables(5, 3)
    assert t.ncells == 15
    tabs = (t.rows, t.cols, t.row_next, t.row_prev, t.col_next, t.col_prev)
    assert all(type(a) is tuple and len(a) == 15 for a in tabs)
    assert all(type(x) is int for a in tabs for x in a)
    cells = range(t.ncells)
    # every cell's row-next stays in its row, its column-next in its column
    assert all(t.rows[t.row_next[c]] == t.rows[c] for c in cells)
    assert all(t.cols[t.col_next[c]] == t.cols[c] for c in cells)
    # prev undoes next
    assert all(t.row_prev[t.row_next[c]] == c for c in cells)
    assert all(t.col_prev[t.col_next[c]] == c for c in cells)


def test_empty_skeleton_rejected():
    with pytest.raises(ValueError):
        kernels.build_scan_tables(2, 2, [])

