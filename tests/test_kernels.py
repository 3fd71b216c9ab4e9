"""Scan tables and the orbit-tracing kernel; tours are tested through ``knight``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 300).flatmap(lambda n: st.permutations(range(n))))
def test_trace_orbits_partitions_a_permutation(perm):
    succ = np.array(perm, dtype=np.int64)
    order, lengths = kernels.trace_orbits(succ)
    assert int(lengths.sum()) == len(perm)
    assert sorted(order.tolist()) == list(range(len(perm)))
    firsts = []
    pos = 0
    for ln in lengths.tolist():
        orbit = order[pos:pos + ln].tolist()
        pos += ln
        # each orbit starts at its least element and closes under succ
        assert orbit[0] == min(orbit)
        assert [perm[e] for e in orbit] == orbit[1:] + orbit[:1]
        firsts.append(orbit[0])
    assert firsts == sorted(firsts)
