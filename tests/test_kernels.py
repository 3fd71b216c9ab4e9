"""Scan tables; tours are tested through ``knight``."""

import numpy as np
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
    assert t.rows.dtype == np.int64
    # every cell's row-next stays in its row
    assert (t.rows[t.row_next] == t.rows).all()
    assert (t.cols[t.col_next] == t.cols).all()


def test_empty_skeleton_rejected():
    with pytest.raises(ValueError):
        kernels.build_scan_tables(2, 2, [])

