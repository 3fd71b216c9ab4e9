"""Array parsing, skeletons, diagonal profiles, and grid transformations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heffter.pfarray import (
    ArrayFormatError,
    NotDiagonalError,
    PartiallyFilledArray,
    Skeleton,
    classify_diagonality,
    cyclic_diagonal_skeleton,
    diagonal_cells,
    diagonal_skeleton,
    parse_array,
    parse_skeleton_json,
    signed,
)
from heffter.validation import validate_heffter

from conftest import drawn_arrays, entries, reference_to_text, row_values, transpose


def row_translated(skel, shift):
    """Row i of the result is row i - shift of the square skeleton ``skel``."""
    n = skel.n
    return Skeleton(n, n, frozenset(((i - 1 + shift) % n + 1, j) for (i, j) in skel.filled))


def scanned_diagonals(skel):
    """The filled-cell count of each diagonal, from a scan of its n cells."""
    return [sum(c in skel.filled for c in diagonal_cells(skel.n, d))
            for d in range(1, skel.n + 1)]


class TestParsing:
    def test_bundled_11x11(self, ex_array):
        assert (ex_array.m, ex_array.n) == (11, 11)
        assert (ex_array.v, ex_array.t, ex_array.fold) == (207, 9, 1)
        assert len(entries(ex_array)) == 99
        assert ex_array.cells[0][0] == 10
        assert signed(ex_array.cells[0][3], ex_array.v) == -90
        assert ex_array.cells[0][4] is None

    def test_lambda_header_spelling(self):
        a = parse_array("v=11 t=1 λ=2\n1,-2,3,4,5\n-1,2,-3,-4,-5\n")
        b = parse_array("v=11 t=1 lambda=2\n1,-2,3,4,5\n-1,2,-3,-4,-5\n")
        assert a == b
        assert a.fold == 2
        assert a.cells[1][0] == 10  # -1 reduced mod 11

    def test_single_cell(self):
        a = parse_array("v=7 t=1\n0\n")
        assert (a.m, a.n) == (1, 1)
        assert a.cells[0][0] == 0

    def test_json_mirror_roundtrip(self, ex_array):
        import json

        text = json.dumps(ex_array.to_json_dict())
        assert parse_array(text) == ex_array

    def test_text_roundtrip(self, ex_array):
        assert parse_array(ex_array.to_text()) == ex_array

    def test_text_matches_reference_writer(self):
        # negative cells, cells above v/2 (written negative), v/2 itself and
        # empty cells, in every position of a row
        array = PartiallyFilledArray(
            3, 4, 12, 1, 1, ((11, None, 6, 0), (None, 7, 5, None), (1, 2, None, 10)))
        text = array.to_text()
        assert text == reference_to_text(array) == (
            "v=12 t=1 lambda=1 m=3 n=4\n-1,,6,0\n,-5,5,\n1,2,,-2\n")
        assert parse_array(text) == array

    @settings(max_examples=300, deadline=None)
    @given(drawn_arrays())
    def test_drawn_text_matches_reference_writer(self, array):
        text = array.to_text()
        assert text == reference_to_text(array)
        if array.n == 1 and (None,) in array.cells:
            # a one-column row with an empty cell is a blank line, which the
            # parser skips, so the rows no longer match the header
            with pytest.raises(ArrayFormatError, match="header m=|no data rows"):
                parse_array(text)
        else:
            assert parse_array(text) == array

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "v=10\n1,2\n",  # missing t
            "v=10 t=3\n1,2\n",  # t does not divide v
            "v=11 t=1\n1,2\n3\n",  # ragged
            "v=11 t=1\n1,x\n",  # non-integer
            "v=11 t=1 m=3\n1,2\n",  # header m mismatch
            "v=11 t=1 q=2\n1\n",  # unknown key
            "v=11 t=1 lambda=0\n1\n",  # fold below 1
            pytest.param("v=1" + "0" * 5000 + " t=1\n1\n", id="v-past-digit-limit"),
            '{"v": "x", "t": 1, "cells": [[1]]}',
            '{"v": 1e400, "t": 1, "cells": [[1]]}',
            '{"v": 11, "t": 1, "cells": [[1, "x"]]}',
            '{"v": 11, "t": 1, "cells": 5}',
            '{"v": 11, "t": 1, "m": "x", "cells": [[1]]}',
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(ArrayFormatError):
            parse_array(bad)

    @pytest.mark.parametrize("bad", [
        '{"m": 1e400, "n": 1, "filled": [[1, 1]]}',
        '{"m": 2, "n": 1, "filled": [[1, 1]]}',  # row 2 is empty
        '{"m": 9223372036854775808, "n": 1, "filled": [[1, 1]]}',
    ])
    def test_malformed_skeleton(self, bad):
        with pytest.raises(ArrayFormatError):
            parse_skeleton_json(bad)

    def test_signed_display(self):
        assert signed(197, 207) == -10
        assert signed(10, 207) == 10
        assert signed(0, 7) == 0

    def test_crlf_input(self):
        a = parse_array("v=11 t=1\r\n1,-2,3,4,5\r\n-1,2,-3,-4,-5\r\n")
        assert (a.m, a.n, a.v) == (2, 5, 11)
        assert a.cells[0][1] == 9


class TestSkeleton:
    def test_bundled_skeleton_weights(self, ex_array):
        skel = ex_array.skeleton()
        assert len(skel.filled) == 99
        assert all(len(skel.row_columns(i)) == 9 for i in range(1, 12))
        assert all(len(skel.column_rows(j)) == 9 for j in range(1, 12))

    def test_empty_grid(self):
        a = PartiallyFilledArray(3, 3, 19, 1, 1, ((None,) * 3,) * 3)
        assert a.skeleton().filled == frozenset()

    def test_positions_sorted_row_major(self, ex_array):
        pos = ex_array.skeleton().positions()
        assert list(pos) == sorted(pos)


class TestDiagonality:
    def test_bundled_profile(self, ex_array):
        prof = classify_diagonality(ex_array)
        assert prof.k == 9
        assert prof.filled_diagonals == (1, 2, 3, 4, 6, 7, 9, 10, 11)
        assert prof.strip_widths == (1, 1)
        assert not prof.cyclic
        assert prof.strip_gcds == (1, 1)

    def test_cr_skeleton_profile(self, cr_skeleton):
        prof = classify_diagonality(cr_skeleton)
        assert prof.k == 4
        assert prof.cyclic
        assert prof.strip_widths == (2,)

    def test_fully_filled(self):
        skel = Skeleton(4, 4, frozenset((i, j) for i in range(1, 5)
                                        for j in range(1, 5)))
        prof = classify_diagonality(skel)
        assert prof.k == 4 and prof.cyclic and prof.strip_widths == ()

    def test_partial_diagonal_rejected(self, cr_skeleton):
        broken = Skeleton(6, 6, cr_skeleton.filled - {(1, 1)})
        with pytest.raises(NotDiagonalError):
            classify_diagonality(broken)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            classify_diagonality(Skeleton(2, 3, frozenset({(1, 1)})))

    def test_filled_count_is_n_times_k(self):
        for n, diags in [(7, (1, 3, 6)), (9, (1, 2, 3, 4, 5)), (5, (2,))]:
            skel = diagonal_skeleton(n, diags)
            prof = classify_diagonality(skel)
            assert len(skel.filled) == n * prof.k
            assert sum(prof.strip_widths) + prof.k == n

    def test_diagonal_cells_wrap(self):
        assert set(diagonal_cells(3, 3)) == {(3, 1), (1, 2), (2, 3)}


class TestTransforms:
    def test_transpose_matches_drawing(self, cr_skeleton):
        mid = {1: (1, 2, 3, 4), 2: (2, 3, 4, 5), 3: (3, 4, 5, 6),
               4: (1, 4, 5, 6), 5: (1, 2, 5, 6), 6: (1, 2, 3, 6)}
        t = transpose(cr_skeleton)
        assert all(t.row_columns(i) == mid[i] for i in range(1, 7))

    def test_translated_transpose_recovers_skeleton(self, cr_skeleton):
        # cyclically k-diagonal: shifting the transposed rows by k-1 restores it
        assert row_translated(transpose(cr_skeleton), 3) == cr_skeleton

    def test_translated_transpose_on_other_sizes(self):
        for n, k in [(5, 3), (7, 5), (9, 3)]:
            skel = cyclic_diagonal_skeleton(n, k)
            assert row_translated(transpose(skel), k - 1) == skel

    def test_transpose_involution_array(self, ex_array):
        # the transpose of an H(m, n; h, k) is an H(n, m; k, h) on the same entries
        t = transpose(ex_array)
        assert transpose(t) == ex_array
        assert sorted(entries(t)) == sorted(entries(ex_array))
        assert validate_heffter(t).passed

    def test_row_translate_preserves_row_content(self, ex_array):
        # a cyclic shift of the rows keeps every row and column sum and the support
        a = ex_array
        shifted = PartiallyFilledArray(a.m, a.n, a.v, a.t, a.fold,
                                       a.cells[-4:] + a.cells[:-4])
        rows_a = sorted(row_values(a, i) for i in range(1, 12))
        rows_b = sorted(row_values(shifted, i) for i in range(1, 12))
        assert rows_a == rows_b
        assert validate_heffter(shifted).passed


@st.composite
def square_skeletons(draw):
    """Unions of full diagonals, sometimes with one cell added or removed."""
    n = draw(st.integers(1, 9))
    diagonals = draw(st.sets(st.integers(1, n), min_size=1))
    filled = set(diagonal_skeleton(n, diagonals).filled)
    cell = (draw(st.integers(1, n)), draw(st.integers(1, n)))
    filled ^= draw(st.sampled_from([set(), {cell}]))
    return Skeleton(n, n, frozenset(filled))


@settings(max_examples=200, deadline=None)
@given(square_skeletons())
def test_diagonal_counts_match_a_scan_of_each_diagonal(skel):
    hits = scanned_diagonals(skel)
    partial = [d for d, h in enumerate(hits, 1) if 0 < h < skel.n]
    if partial:
        with pytest.raises(NotDiagonalError, match=f"diagonal {partial[0]} is partially"):
            classify_diagonality(skel)
    elif not any(hits):
        with pytest.raises(NotDiagonalError, match="empty"):
            classify_diagonality(skel)
    else:
        prof = classify_diagonality(skel)
        assert prof.filled_diagonals == tuple(
            d for d, h in enumerate(hits, 1) if h == skel.n)
