"""The jitted kernels and the fallback path must agree exactly."""

import os
import subprocess
import sys

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


def test_tour_orbit_backends_agree():
    t = tables(9, 3)
    row_rev = np.zeros(9, dtype=np.uint8)
    col_rev = np.zeros(9, dtype=np.uint8)
    col_rev[0] = 1
    out_a = np.empty(t.ncells, dtype=np.int64)
    out_b = np.empty(t.ncells, dtype=np.int64)
    args = (t.rows, t.cols, t.row_next, t.row_prev, t.col_next, t.col_prev,
            row_rev, col_rev, 0)
    na = kernels.tour_orbit(*args, out_a)
    nb = kernels.tour_orbit_py(*args, out_b)
    assert na == nb
    assert (out_a[:na] == out_b[:nb]).all()
    assert kernels.orbit_length(*args) == kernels.orbit_length_py(*args) == na


def test_scan_orientations_backends_agree():
    t = tables(7, 3)
    masks_a = np.empty(1 << 14, dtype=np.int64)
    masks_b = np.empty(1 << 14, dtype=np.int64)
    args = (t.rows, t.cols, t.row_next, t.row_prev, t.col_next, t.col_prev,
            7, 7, False)
    na = kernels.scan_orientations(*args, masks_a)
    nb = kernels.scan_orientations_py(*args, masks_b)
    assert na == nb > 0
    assert (masks_a[:na] == masks_b[:nb]).all()
    assert (np.diff(masks_a[:na]) > 0).all()  # ascending = lexicographic


def test_trace_orbits_backends_agree():
    rng = np.random.default_rng(3)  # arbitrary permutation as a test workload
    succ = rng.permutation(4096).astype(np.int64)
    res = []
    for fn in (kernels.trace_orbits, kernels.trace_orbits_py):
        order = np.empty(4096, dtype=np.int64)
        ids = np.full(4096, -1, dtype=np.int64)
        lens = np.empty(4096, dtype=np.int64)
        nf = fn(succ, order, ids, lens)
        res.append((nf, order.copy(), ids.copy(), lens[:nf].copy()))
    (na, oa, ia, la), (nb, ob, ib, lb) = res
    assert na == nb
    assert (oa == ob).all() and (ia == ib).all() and (la == lb).all()


def child_env(**extra: str) -> dict[str, str]:
    """A minimal subprocess environment that imports heffter like this process."""
    path = os.pathsep.join(p for p in sys.path if p)
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": path, **extra}


def test_pure_numpy_env_flag_selects_fallback():
    code = (
        "import heffter.kernels as k; "
        "assert not k.HAVE_NUMBA; "
        "assert k.active_backend() == 'numpy'; "
        "assert k.tour_orbit is k.tour_orbit_py"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(HEFFTER_PURE_NUMPY="1"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_threads_cap_accepted():
    code = "import heffter.kernels as k; k.warm_up()"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(HEFFTER_THREADS="1"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
