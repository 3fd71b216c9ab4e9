"""Tours against the successor map's definition, and the orientation scan
against a naive pair-by-pair oracle."""

import hashlib
import itertools
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heffter
from heffter.cli import main
from heffter.kernels import _vectors
from heffter.knight import OrientationPair, enumerate_solutions, is_solution, tour
from heffter.pfarray import Skeleton, cyclic_diagonal_skeleton, diagonal_skeleton
from heffter.validation import BudgetExceededError

from conftest import fixture_path
from test_knight import successor


def oracle_orbit(skel, rows_dir, cols_dir, start):
    """The orbit of ``start`` under the successor map's definition."""
    orbit = [start]
    while (cell := successor(skel, rows_dir, cols_dir, orbit[-1])) != start:
        orbit.append(cell)
    return orbit


@st.composite
def skeletons_with_pairs(draw):
    """A nonempty m x n skeleton of any shape, so some lines hold one cell
    and most skeletons are not unions of diagonals, and a random pair."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.tuples(st.integers(1, m), st.integers(1, n))
    skel = Skeleton(m, n, frozenset(draw(st.sets(cells, min_size=1))))
    signs = st.sampled_from((1, -1))
    rows = draw(st.lists(signs, min_size=m, max_size=m))
    cols = draw(st.lists(signs, min_size=n, max_size=n))
    return skel, tuple(rows), tuple(cols)


@settings(max_examples=200, deadline=None)
@given(skeletons_with_pairs())
def test_tour_matches_the_successor_map(case):
    skel, rows, cols = case
    covers_all = len(oracle_orbit(skel, rows, cols, min(skel.filled))) == len(skel.filled)
    assert is_solution(skel, rows, cols) == covers_all
    for start in skel.filled:
        result = tour(skel, rows, cols, start)
        assert list(result.cells) == oracle_orbit(skel, rows, cols, start)
        assert result.covers_all == covers_all


def test_empty_skeleton_rejected():
    empty = Skeleton(2, 2, frozenset())
    calls = [lambda: tour(empty, (1, 1), (1, 1)), lambda: is_solution(empty, (1, 1), (1, 1)),
             lambda: enumerate_solutions(empty), lambda: enumerate_solutions(empty, trivial_rows=True)]
    for call in calls:
        with pytest.raises(ValueError, match="^empty skeleton$"):
            call()


# -- the orientation scan ------------------------------------------------------------


def naive_scan(skel, trivial_rows):
    """Every pair in lexicographic order, +1 first, each traced on its own."""
    signs = (1, -1)
    row_vectors = [(1,) * skel.m] if trivial_rows else itertools.product(signs, repeat=skel.m)
    col_vectors = list(itertools.product(signs, repeat=skel.n))
    return [OrientationPair(rows, cols) for rows in row_vectors for cols in col_vectors
            if is_solution(skel, rows, cols)]


def assert_scan_matches_oracle(skel, trivial_rows):
    expected = naive_scan(skel, trivial_rows)
    assert enumerate_solutions(skel, trivial_rows=trivial_rows) == expected, skel
    return expected


@pytest.mark.parametrize("trivial_rows", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_diagonal_subset_matches_oracle(n, trivial_rows):
    solved = 0
    for size in range(1, n + 1):
        for diagonals in itertools.combinations(range(1, n + 1), size):
            skel = diagonal_skeleton(n, diagonals)
            solved += bool(assert_scan_matches_oracle(skel, trivial_rows))
    # at odd n some subsets have solutions, so the mapping is exercised;
    # at even n no diagonal skeleton has any
    assert bool(solved) == (n % 2 == 1)


@pytest.mark.parametrize("n,k,trivial_rows,count", [
    (7, 3, True, 56),
    (7, 3, False, 3584),
    (9, 3, True, 144),
    (3, 3, False, 24),  # the full grid: every rotation fixes the trivial R
    (3, 3, True, 6),
    (1, 1, False, 4),
    (1, 1, True, 2),
    (4, 3, False, 0),  # even n: R = (1, -1, 1, -1) is fixed by negation and one shift
    (6, 3, False, 0),
    (6, 5, True, 0),
])
def test_cyclic_scan_matches_oracle(n, k, trivial_rows, count):
    skel = cyclic_diagonal_skeleton(n, k)
    assert len(assert_scan_matches_oracle(skel, trivial_rows)) == count


def test_vectors_join_half_tables():
    # widths 0 and 1 leave an empty bottom half, odd widths unequal halves
    for length in range(8):
        expected = list(itertools.product((1, -1), repeat=length))
        assert _vectors(range(1 << length), length) == expected
        assert _vectors([], length) == []


@pytest.mark.parametrize("trivial_rows", [True, False])
def test_plain_scan_matches_oracle(cr_skeleton, lambda2_array, trivial_rows):
    # not closed under the diagonal shift (cr_6x6), or not square (2 x 5)
    assert assert_scan_matches_oracle(cr_skeleton, trivial_rows) == []
    found = assert_scan_matches_oracle(lambda2_array.skeleton(), trivial_rows)
    assert len(found) == (32 if trivial_rows else 64)


def test_bundled_full_scan_at_default_budget(capsys):
    # the 2^22-pair scan traces 190,652 orbit representatives, below 2^20;
    # the digest is of the pair-by-pair scan's output (tour-enum --budget 5000000)
    assert main(["tour-enum", str(fixture_path("h9_11_9.arr"))]) == 0
    out = capsys.readouterr().out
    assert out.count('"R"') == 4708
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4cf819a218309155f74fdcd950e0ea988e1ab26462ebd4cd85de4646b90e35c4")


def test_traced_pairs_count_against_the_budget(ex_array):
    # the 2^11 sieve fits in 4096, the traced representatives do not
    with pytest.raises(BudgetExceededError, match="budget 4096"):
        enumerate_solutions(ex_array.skeleton(), budget=4096)


def test_sieve_above_budget_is_refused_before_allocating():
    src = str(Path(heffter.__file__).resolve().parent.parent)
    child = (
        "import sys; sys.path.insert(0, %r)\n"
        "from heffter import BudgetExceededError, enumerate_solutions\n"
        "from heffter.pfarray import cyclic_diagonal_skeleton\n"
        "try:\n"
        "    enumerate_solutions(cyclic_diagonal_skeleton(40, 3), trivial_rows=True)\n"
        "except BudgetExceededError as exc:\n"
        "    print(exc)\n" % src
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "budget" in proc.stdout and str(1 << 40) in proc.stdout

