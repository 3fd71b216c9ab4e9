"""Heffter conditions, simple orderings, compatibility, and the array search."""

import hashlib
import itertools
from math import gcd
from typing import Iterable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heffter
from heffter import knight, validation
from heffter.embedding import build_embedding
from heffter.pfarray import (
    ArrayFormatError,
    PartiallyFilledArray,
    Skeleton,
    cyclic_diagonal_skeleton,
    diagonal_skeleton,
    signed,
)
from heffter.validation import (
    BudgetExceededError,
    ValidationReport,
    compose,
    cycle_from,
    is_globally_simple,
    is_simple_ordering,
    search_heffter,
    subgroup_members,
    validate_heffter,
)

from conftest import (
    column_values,
    compatible,
    cycles_table,
    drawn_arrays,
    entries,
    inverse,
    load_golden,
    reference_orderings,
    reference_validate_heffter,
    rotation_from_orderings,
    row_values,
    transpose,
)


def first_simple_orderings(array):
    """Per line, rows then columns, its first simple ordering in the
    lexicographic order of the permutations of its natural order, or None."""
    lines = ([row_values(array, i) for i in range(1, array.m + 1)]
             + [column_values(array, j) for j in range(1, array.n + 1)])
    return [next((p for p in itertools.permutations(line)
                  if is_simple_ordering(p, array.v)), None) for line in lines]


class TestValidate:
    def test_bundled_11x11_passes(self, ex_array):
        rep = validate_heffter(ex_array)
        assert rep.passed
        assert (rep.h, rep.k) == (9, 9)
        assert rep.support_ok and rep.rows_sum_zero and rep.cols_sum_zero

    def test_lambda2_passes(self, lambda2_array):
        rep = validate_heffter(lambda2_array)
        assert rep.passed
        assert (rep.h, rep.k) == (5, 2)
        assert rep.fold == 2

    def test_swapped_cells_break_row_sums(self, ex_array):
        cells = [list(r) for r in ex_array.cells]
        cells[0][0], cells[1][1] = cells[1][1], cells[0][0]
        broken = PartiallyFilledArray(11, 11, 207, 9, 1,
                                      tuple(tuple(r) for r in cells))
        rep = validate_heffter(broken)
        assert not rep.passed
        assert not rep.rows_sum_zero
        assert set(rep.bad_rows) >= {1, 2}
        assert rep.support_ok  # the multiset of entries is unchanged

    def test_subgroup_entry_rejected(self, ex_array):
        # 23 generates the order-9 subgroup of Z_207; planting it breaks support
        cells = [list(r) for r in ex_array.cells]
        cells[0][0] = 23
        a = PartiallyFilledArray(11, 11, 207, 9, 1, tuple(tuple(r) for r in cells))
        rep = validate_heffter(a)
        assert rep.support_ok is False
        assert any("subgroup" in e for e in rep.support_errors)

    def test_inconsistent_v_raises(self):
        a = PartiallyFilledArray(1, 1, 7, 1, 1, ((1,),))
        with pytest.raises(ArrayFormatError, match="inconsistent") as info:
            validate_heffter(a)
        assert isinstance(info.value, ValueError)

    def test_nonuniform_weights_stop_early(self):
        a = PartiallyFilledArray(2, 2, 9, 1, 1, ((1, 2), (3, None)))
        rep = validate_heffter(a)
        assert not rep.uniform_weights
        assert rep.support_ok is None and rep.rows_sum_zero is None

    def test_report_json_shape(self, ex_array):
        data = validate_heffter(ex_array).to_json_dict()
        assert data["passed"] is True
        assert data["h"] == 9 and data["lambda"] == 1

    def test_subgroup_members(self):
        assert subgroup_members(207, 9) == frozenset(range(0, 207, 23))
        assert subgroup_members(19, 1) == frozenset({0})


def validation_outcome(validate, array):
    """The report, or the type and text of the ArrayFormatError raised."""
    try:
        return validate(array)
    except ArrayFormatError as exc:
        return type(exc), str(exc)


def assert_same_outcome(array):
    """validate_heffter and the reference give reports equal field by field,
    the messages in order, or raise the same text."""
    got = validation_outcome(validate_heffter, array)
    want = validation_outcome(reference_validate_heffter, array)
    assert type(got) is type(want)
    if isinstance(want, ValidationReport):
        assert got._asdict() == want._asdict()
    else:
        assert got == want


def edited(array, *cells):
    """``array`` with each (i, j, x) of ``cells`` put at (i, j), 1-based;
    x is None or a signed entry."""
    grid = [list(row) for row in array.cells]
    for i, j, x in cells:
        grid[i - 1][j - 1] = None if x is None else x % array.v
    return array._replace(cells=tuple(map(tuple, grid)))


Z12_FOLD2 = PartiallyFilledArray(3, 3, 12, 3, 2, ((6, 5, 1), (9, 5, 10), (9, 2, 1)))

# (name, array from the fixtures, what its report shows); every field of the
# report, and the messages in order, must equal the reference's
NAMED_ARRAYS = [
    ("fold 1", lambda ex, l2: ex, lambda r: r.passed and r.fold == 1),
    ("fold 2", lambda ex, l2: l2, lambda r: r.passed and r.fold == 2),
    # Z_12 relative to J = {0, 4, 8}, fold 2: the class {6} is its own
    # negative, so one 6 hits it twice
    ("even v, x = v/2 once", lambda ex, l2: Z12_FOLD2, lambda r: r.passed),
    ("even v, x = v/2 twice", lambda ex, l2: edited(Z12_FOLD2, (1, 3, 6)),
     lambda r: r.support_errors == (
         "element 1: signed support hits it 1 times, expected 2",
         "element 6: signed support hits it 4 times, expected 2",
         "element 11: signed support hits it 1 times, expected 2")),
    # 23 generates the order-9 subgroup J of Z_207
    ("entry in J", lambda ex, l2: edited(ex, (1, 1, 23)),
     lambda r: r.support_errors == ("element 23 of the subgroup J appears",
                                    "element 184 of the subgroup J appears",
                                    "class ±10: appears 0 times, expected 1")),
    ("uneven weights", lambda ex, l2: edited(ex, (1, 1, None)),
     lambda r: not r.uniform_weights and r.h is None and r.support_ok is None),
    # 10 and -37 swap inside column 1, 10 and 55 inside row 1
    ("bad row sums", lambda ex, l2: edited(ex, (1, 1, -37), (2, 1, 10)),
     lambda r: r.bad_rows == (1, 2) and not r.bad_cols and r.support_ok),
    ("bad column sums", lambda ex, l2: edited(ex, (1, 1, 55), (1, 2, 10)),
     lambda r: r.bad_cols == (1, 2) and not r.bad_rows and r.support_ok),
    ("one class twice, one never", lambda ex, l2: edited(ex, (1, 1, 12)),
     lambda r: r.support_errors == ("class ±10: appears 0 times, expected 1",
                                    "class ±12: appears 2 times, expected 1")
     and r.bad_rows == (1,) and r.bad_cols == (1,)),
    ("all empty", lambda ex, l2: PartiallyFilledArray(2, 3, 4, 4, 1, ((None,) * 3,) * 2),
     lambda r: r.passed and (r.h, r.k) == (0, 0)),
    ("all empty, v does not fit", lambda ex, l2: PartiallyFilledArray(
        2, 3, 4, 2, 1, ((None,) * 3,) * 2),
     lambda r: r == (ArrayFormatError,
                     "v=4 inconsistent with 2nk/lambda + t = 2 (n=3, k=0, lambda=1)")),
    ("v does not fit", lambda ex, l2: PartiallyFilledArray(1, 1, 7, 1, 1, ((1,),)),
     lambda r: r == (ArrayFormatError,
                     "v=7 inconsistent with 2nk/lambda + t = 3 (n=1, k=1, lambda=1)")),
]


class TestValidateOracle:
    """validate_heffter against the line-by-line, Counter-based reference."""

    @pytest.mark.parametrize("make, shows", [case[1:] for case in NAMED_ARRAYS],
                             ids=[case[0] for case in NAMED_ARRAYS])
    def test_named_arrays(self, ex_array, lambda2_array, make, shows):
        array = make(ex_array, lambda2_array)
        assert_same_outcome(array)
        assert shows(validation_outcome(validate_heffter, array))

    @settings(max_examples=300, deadline=None)
    @given(drawn_arrays())
    def test_drawn_arrays(self, array):
        assert_same_outcome(array)


class TestSimpleOrderings:
    def test_natural_row_of_bundled_array(self, ex_array):
        assert is_simple_ordering(row_values(ex_array, 1), 207)

    def test_singleton(self):
        assert is_simple_ordering((5,), 11)

    def test_zero_prefix_collision(self):
        # partial sums hit 0 twice: 1, 3, 0, 5, 0
        assert not is_simple_ordering((1, 2, -3, 5, -5), 21)

    def test_bundled_array_globally_simple(self, ex_array):
        assert is_globally_simple(ex_array)

    def test_weight_three_always_globally_simple(self, h33, h53_cyclic):
        assert is_globally_simple(h33)
        assert is_globally_simple(h53_cyclic)

    def test_finder_returns_simple_witness(self, h53_cyclic):
        for line in first_simple_orderings(h53_cyclic):
            assert line is not None and is_simple_ordering(line, h53_cyclic.v)

    def test_simple_ordering_example(self):
        # partial sums 1, 3, 0 mod 7; reversed 4, 6, 0; appending 1 repeats 1
        assert [s % 7 for s in itertools.accumulate((1, 2, 4))] == [1, 3, 0]
        assert is_simple_ordering((1, 2, 4), 7)
        assert is_simple_ordering((4, 2, 1), 7)
        assert not is_simple_ordering((1, 2, 4, 1), 7)
        assert is_simple_ordering((8, -5, 11), 7)  # the same sums, unreduced


@settings(max_examples=100, deadline=None)
@given(st.integers(5, 60).flatmap(
    lambda v: st.lists(st.integers(1, v - 1), min_size=1, max_size=8).map(
        lambda xs: (v, xs))))
def test_reversal_preserves_simplicity_for_zero_sum(params):
    v, xs = params
    xs.append((-sum(xs)) % v)  # force a zero-sum line
    fwd = is_simple_ordering(xs, v)
    rev = is_simple_ordering(list(reversed(xs)), v)
    assert fwd == rev


class TestOrientationsAndCompatibility:
    def test_all_plus_is_natural(self, ex_array, ex_pair):
        # no all-+1 pair solves this array; ex_pair's rows and its columns
        # but the first are +1, read left to right and top to bottom
        v = ex_array.v
        rows = [row_values(ex_array, i) for i in range(1, 12)]
        cols = [column_values(ex_array, j) for j in range(1, 12)]
        cols[0] = cols[0][::-1]
        assert build_embedding(ex_array, *ex_pair).rho0 == rotation_from_orderings(
            v, cycles_table(v, rows), cycles_table(v, cols))

    def test_all_minus_inverts_row_perm(self, ex_array, ex_pair):
        # negating every direction inverts both orderings
        row_perm, col_perm = reference_orderings(ex_array, *ex_pair)
        neg = knight.OrientationPair(*ex_pair).negated()
        assert build_embedding(ex_array, neg.rows, neg.cols).rho0 == \
            rotation_from_orderings(ex_array.v, inverse(row_perm), inverse(col_perm))

    def test_golden_orderings(self, ex_array, ex_pair):
        g = load_golden("orderings_11x11.json")
        row_perm, col_perm = reference_orderings(ex_array, *ex_pair)
        v = ex_array.v
        want_rows = cycles_table(v, [tuple(x % v for x in c) for c in g["row_cycles"]])
        want_cols = cycles_table(v, [tuple(x % v for x in c) for c in g["column_cycles"]])
        assert row_perm == want_rows
        assert col_perm == want_cols
        assert build_embedding(ex_array, *ex_pair).rho0 == \
            rotation_from_orderings(v, want_rows, want_cols)

    def test_golden_composition_cycle(self, ex_array, ex_pair):
        g = load_golden("orderings_11x11.json")
        row_perm, col_perm = reference_orderings(ex_array, *ex_pair)
        comp = compose(col_perm, row_perm)
        assert compatible(row_perm, col_perm)
        want = [x % ex_array.v for x in g["composition_cycle"]]
        assert cycle_from(comp, want[0]) == want

    def test_inverse_composition_is_identity(self, ex_array):
        _, nat_cols = reference_orderings(ex_array, (1,) * 11, (1,) * 11)
        assert compose(nat_cols, inverse(nat_cols)) == cycles_table(
            ex_array.v, [(x,) for x in entries(ex_array)])
        assert not compatible(inverse(nat_cols), nat_cols)

    def test_lambda_fold_orderings_coincide(self, lambda2_array):
        # two different column direction vectors induce identical orderings:
        # every column has two entries, and reversing a 2-cycle changes nothing
        r = (1, 1)
        o1 = reference_orderings(lambda2_array, r, (1,) * 5)
        o2 = reference_orderings(lambda2_array, r, (1, -1, -1, 1, -1))
        assert o1[0] == o2[0]
        assert o1[1] == o2[1]
        assert compatible(*o1)

    def test_repeated_entry_refused(self):
        # an array with a repeated residue has no line permutation; the
        # embedding constructor refuses it at validation
        array = PartiallyFilledArray(1, 3, 7, 1, 1, ((2, 2, 3),))
        with pytest.raises(ValueError, match="fails validation"):
            build_embedding(array, (1,), (1, 1, 1))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_reversed_lines_reference(self, ex_array, h53_cyclic, data):
        # build_embedding gives the rotation of the reference orderings, built
        # by reversing lines, exactly when those orderings are compatible
        for array in (ex_array, h53_cyclic):
            dirs = st.sampled_from((1, -1))
            rows = data.draw(st.tuples(*[dirs] * array.m))
            cols = data.draw(st.tuples(*[dirs] * array.n))
            ords = reference_orderings(array, rows, cols)
            if compatible(*ords):
                assert build_embedding(array, rows, cols).rho0 == \
                    rotation_from_orderings(array.v, *ords)
            else:
                with pytest.raises(ValueError, match="single cycle"):
                    build_embedding(array, rows, cols)


def _grid_skeleton(*rows: str) -> Skeleton:
    return Skeleton(len(rows), len(rows[0]), frozenset(
        (i, j) for i, row in enumerate(rows, 1) for j, x in enumerate(row, 1) if x == "1"))


# cell 0's orbit has 3 cells, no more than the non-unit classes of Z_32 and
# Z_35 outside J, so the trees below first cells a > 1 dividing v run
_ORBIT_3 = _grid_skeleton("11100", "10011", "10011", "01110", "01101")


class TestSearch:
    def test_full_3x3(self, h33):
        rep = validate_heffter(h33)
        assert rep.passed and (rep.h, rep.k) == (3, 3)
        assert h33.v == 19

    def test_search_is_deterministic(self):
        a = search_heffter(3, 3, 3, 3, 1, limit=3)
        b = search_heffter(3, 3, 3, 3, 1, limit=3)
        assert a == b
        assert len({arr.cells for arr in a}) == 3

    def test_first_3x3_is_canonical(self):
        first = search_heffter(3, 3, 3, 3, 1, limit=1)[0]
        # frozen from the deterministic cell order: first cell is the least
        # usable residue, and the whole grid is the DFS-minimal completion
        assert [signed(x, first.v) for x in first.cells[0]] == [1, 3, -4]
        assert first.cells[0][0] == 1

    def test_cyclic_5x5(self, h53_cyclic):
        from heffter.pfarray import classify_diagonality

        rep = validate_heffter(h53_cyclic)
        assert rep.passed and rep.k == 3 and h53_cyclic.v == 31
        prof = classify_diagonality(h53_cyclic)
        assert prof.cyclic and prof.filled_diagonals == (1, 2, 3)

    def test_explicit_skeleton(self, h53_centered):
        assert validate_heffter(h53_centered).passed
        skel = h53_centered.skeleton()
        assert transpose(skel) == skel

    def test_parameter_sanity(self):
        with pytest.raises(ValueError, match="infeasible"):
            search_heffter(3, 4, 3, 3, 1)
        with pytest.raises(ValueError):
            search_heffter(3, 3, 2, 2, 1)  # weights below 3
        with pytest.raises(ValueError):
            search_heffter(4, 4, 3, 3, 1)  # needs an explicit skeleton

    def test_search_respects_skeleton_weights(self):
        bad = diagonal_skeleton(5, (1, 2))  # column weight 2, not 3
        with pytest.raises(ValueError):
            search_heffter(5, 5, 3, 3, 1, skeleton=bad)

    def test_line_permutation_invariance(self, h33):
        # permuting rows and columns consistently preserves validity
        perm_rows = (2, 0, 1)
        cells = tuple(h33.cells[i] for i in perm_rows)
        shuffled = PartiallyFilledArray(3, 3, 19, 1, 1, cells)
        assert validate_heffter(shuffled).passed


    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="limit"):
            search_heffter(3, 3, 3, 3, 1, limit=0)

    def test_budget(self):
        with pytest.raises(BudgetExceededError, match="budget of 5 nodes"):
            search_heffter(5, 5, 3, 3, 1, skeleton="cyclic", budget=5)
        assert BudgetExceededError is knight.BudgetExceededError
        assert BudgetExceededError is heffter.BudgetExceededError

    @pytest.mark.parametrize("n, least", [(5, 85), (7, 492)])
    def test_first_array_budget(self, n, least):
        # the first array has first cell 1, which is always searched
        search_heffter(n, n, 3, 3, 1, skeleton="cyclic", budget=least)
        with pytest.raises(BudgetExceededError):
            search_heffter(n, n, 3, 3, 1, skeleton="cyclic", budget=least - 1)

    def test_budget_counts_only_searched_subtrees(self):
        # only first cell 1 of Z_25 is searched, and only up to its moves:
        # its pruned tree takes 342 nodes and the automorphism search 10
        # (the arrays rebuilt by moves cost none).  The 12 cells of cell 0's
        # orbit outnumber the 2 non-unit classes {±5, ±10}, so every other
        # array is an image and the tree below 5 is skipped
        found = search_heffter(4, 4, 3, 3, 1, limit=1 << 30,
                               skeleton=_relabelled_k3((3, 2, 4, 1)), budget=5000)
        assert len(found) == 960

    # the four exhaustive 4x4 searches of test_pruned_search_matches_unpruned:
    # first cell 1's tree, cut where a move makes the array smaller (342,
    # 503, 299 and 390 nodes, from 1758, 1674, 1218 and 1148 unpruned), and
    # the automorphism search that finds the moves (10, 15, 10 and 10).
    # Cell 0's orbit has 12 cells, more than the non-unit classes of Z_25,
    # ..., Z_28 outside J (2, 6, 3 and 6), so no tree below a first cell
    # a > 1 is searched
    @pytest.mark.parametrize("t, perm, least", [
        (1, (3, 2, 4, 1), 352), (2, (2, 4, 1, 3), 518),
        (3, (3, 2, 4, 1), 309), (4, (4, 2, 3, 1), 400),
    ])
    def test_exhaustive_4x4_budget(self, t, perm, least):
        skel = _relabelled_k3(perm)
        search_heffter(4, 4, 3, 3, t, limit=1 << 30, skeleton=skel, budget=least)
        with pytest.raises(BudgetExceededError):
            search_heffter(4, 4, 3, 3, t, limit=1 << 30, skeleton=skel, budget=least - 1)

    # the orbit-3 searches run the trees below first cells 2, 4 and 8 of
    # Z_32 (t = 2) and below 5 of Z_35 (t = 5), each cut by its moves
    @pytest.mark.parametrize("t, least", [(2, 35045), (5, 13245)])
    def test_exhaustive_5x5_orbit_3_budget(self, t, least):
        search_heffter(5, 5, 3, 3, t, limit=1 << 30, skeleton=_ORBIT_3, budget=least)
        with pytest.raises(BudgetExceededError):
            search_heffter(5, 5, 3, 3, t, limit=1 << 30, skeleton=_ORBIT_3, budget=least - 1)

    # the least budgets of the first L arrays in the uncut tree below first
    # cell 1; cutting it never needs more nodes, beyond those of the
    # automorphism search once a second array is asked for: an array rebuilt
    # by moves is yielded at the first node past it
    @pytest.mark.parametrize("n, automorphism_nodes, unpruned", [
        (4, 10, [(1, 39), (5, 72), (9, 230), (13, 279), (81, 1768)]),
        (5, 27, [(2, 133), (10, 827), (50, 3602)]),
    ], ids=["4x4", "5x5-cyclic"])
    def test_first_arrays_fit_the_unpruned_budget(self, n, automorphism_nodes, unpruned):
        skeleton = _relabelled_k3((3, 2, 4, 1)) if n == 4 else "cyclic"
        for limit, least in unpruned:
            found = search_heffter(n, n, 3, 3, 1, limit=limit, skeleton=skeleton,
                                   budget=least + automorphism_nodes)
            assert len(found) == limit

    @pytest.mark.parametrize("n, t", [(4, 1), (5, 1), (5, 2)])
    def test_first_array_finds_no_moves(self, monkeypatch, n, t):
        # the moves are found once the first array has been taken, so a
        # search for one array never looks for line automorphisms
        def refuse(skel, count_node):
            raise AssertionError("automorphism search for the first array")

        skel = _relabelled_k3((3, 2, 4, 1)) if n == 4 else "cyclic"
        expected = search_heffter(n, n, 3, 3, t, limit=2, skeleton=skel)
        monkeypatch.setattr(validation, "_line_transversal", refuse)
        assert search_heffter(n, n, 3, 3, t, limit=1, skeleton=skel) == expected[:1]
        with pytest.raises(AssertionError, match="automorphism search"):
            search_heffter(n, n, 3, 3, t, limit=2, skeleton=skel)

    # 4x4 (80 arrays per first cell): 123 ends in the group of 2 = 2 * 1 and
    # 757 in the group of 10 = 2 * 5, both mapped by a unit from another
    # group; 350 ends in the group of 5, made of images of first cell 1's
    # group under line automorphisms.  Orbit-3 over Z_32: 500 ends in the
    # group of 2 (arrays 256-639) and 2500 in that of 8 (2176-2815), each
    # holding the arrays of its own tree among images of first cell 1's
    @pytest.mark.parametrize("n, t, limit", [
        (4, 1, 123), (4, 1, 350), (4, 1, 757), (5, 2, 500), (5, 2, 2500),
    ], ids=["123", "350", "757", "orbit-3-500", "orbit-3-2500"])
    def test_limit_inside_a_mapped_group_is_a_prefix(self, n, t, limit):
        skel = _relabelled_k3((3, 2, 4, 1)) if n == 4 else _ORBIT_3
        exhaustive = search_heffter(n, n, 3, 3, t, limit=1 << 30, skeleton=skel)
        assert search_heffter(n, n, 3, 3, t, limit=limit,
                              skeleton=skel) == exhaustive[:limit]


def _unpruned_search_iter(
    m: int, n: int, v: int, t: int, skel: Skeleton
) -> Iterator[PartiallyFilledArray]:
    """The search before forward checking: closing values are only checked
    when row-major order reaches their cell.  Oracle for the pruned search."""
    J = subgroup_members(v, t)
    cells = skel.positions()
    ncells = len(cells)

    row_left = [len(skel.row_columns(i)) for i in range(m + 1)]  # 1-based use
    col_left = [len(skel.column_rows(j)) for j in range(n + 1)]
    row_left[0] = col_left[0] = 0
    row_sum = [0] * (m + 1)
    col_sum = [0] * (n + 1)
    used = bytearray(v)  # marks both members of a used class
    grid: list[list[int | None]] = [[None] * n for _ in range(m)]

    def place(idx: int) -> Iterator[PartiallyFilledArray]:
        if idx == ncells:
            yield PartiallyFilledArray(
                m, n, v, t, 1, tuple(tuple(r) for r in grid)
            )
            return
        i, j = cells[idx]
        forced: int | None = None
        if row_left[i] == 1 and col_left[j] == 1:
            a = (-row_sum[i]) % v
            if a != (-col_sum[j]) % v:
                return
            forced = a
        elif row_left[i] == 1:
            forced = (-row_sum[i]) % v
        elif col_left[j] == 1:
            forced = (-col_sum[j]) % v

        if forced is not None:
            candidates: Iterator[int] = iter((forced,))
        elif idx == 0:
            candidates = iter(range(1, v // 2 + 1))
        else:
            candidates = iter(range(1, v))

        for val in candidates:
            if val in J or used[val]:
                continue
            used[val] = used[(-val) % v] = 1
            grid[i - 1][j - 1] = val
            row_sum[i] = (row_sum[i] + val) % v
            col_sum[j] = (col_sum[j] + val) % v
            row_left[i] -= 1
            col_left[j] -= 1

            yield from place(idx + 1)

            row_left[i] += 1
            col_left[j] += 1
            row_sum[i] = (row_sum[i] - val) % v
            col_sum[j] = (col_sum[j] - val) % v
            grid[i - 1][j - 1] = None
            used[val] = used[(-val) % v] = 0

    return place(0)


def _relabelled_k3(perm: tuple[int, ...]) -> Skeleton:
    """The 4x4 three-diagonal skeleton with rows relabelled: row i is empty in
    column perm[i-1], so row-major order walks a different search tree."""
    return Skeleton(4, 4, frozenset((r, c) for r in range(1, 5)
                                    for c in range(1, 5) if c != perm[r - 1]))


@pytest.mark.parametrize("n, t, skel, limit", [
    (3, 1, Skeleton(3, 3, frozenset(itertools.product(range(1, 4), repeat=2))), 50),
    (5, 1, cyclic_diagonal_skeleton(5, 3), 100),
    (4, 1, _relabelled_k3((3, 2, 4, 1)), 1 << 30),  # exhaustive: 960 arrays
    (4, 2, _relabelled_k3((2, 4, 1, 3)), 1 << 30),  # exhaustive: 1920 arrays
    (4, 3, _relabelled_k3((3, 2, 4, 1)), 1 << 30),  # exhaustive: 432 arrays
    (4, 4, _relabelled_k3((4, 2, 3, 1)), 1 << 30),  # exhaustive: 864 arrays
], ids=["3x3-full", "5x5-cyclic", "4x4-t1", "4x4-t2", "4x4-t3", "4x4-t4"])
def test_pruned_search_matches_unpruned(n, t, skel, limit):
    found = search_heffter(n, n, 3, 3, t, limit=limit, skeleton=skel)
    oracle = list(itertools.islice(
        _unpruned_search_iter(n, n, 6 * n + t, t, skel), limit))
    assert len(found) == min(limit, len(oracle))
    assert found == oracle


@pytest.mark.parametrize("n, t, skel", [
    (4, 1, _relabelled_k3((3, 2, 4, 1))), (4, 2, _relabelled_k3((2, 4, 1, 3))),
    (4, 3, _relabelled_k3((3, 2, 4, 1))), (4, 4, _relabelled_k3((4, 2, 3, 1))),
    (5, 1, "cyclic"),
], ids=["4x4-t1", "4x4-t2", "4x4-t3", "4x4-t4", "5x5-cyclic-t1"])
def test_searched_arrays_pass_the_checked_constructor(n, t, skel):
    # the search builds its arrays without the constructor's checks
    found = search_heffter(n, n, 3, 3, t, limit=1 << 30, skeleton=skel)
    assert found
    for a in found:
        assert type(a) is PartiallyFilledArray
        assert PartiallyFilledArray(*a) == a


def test_exhaustive_5x5_cyclic_t5_is_closed_under_the_units():
    # v = 35: only first cell 1 is searched; the groups of 5 and 7 are
    # images of it under line automorphisms, multiplied by the units that
    # send their first cells to 5 and 7, and every other group is mapped
    found = search_heffter(5, 5, 3, 3, 5, limit=1 << 30, skeleton="cyclic")
    assert len(found) == 1680
    v = 35
    rows = [entries(a) for a in found]
    assert rows == sorted(rows)  # so each first-cell group is sorted
    listed = set(rows)
    assert len(listed) == len(rows)
    for u in (u for u in range(1, v) if gcd(u, v) == 1):
        for row_major in rows:
            image = tuple(u * x % v for x in row_major)
            assert image in listed or tuple(-x % v for x in image) in listed
    assert all(validate_heffter(a).passed for a in found)


def _digest(arrays: Iterable[list[PartiallyFilledArray]]) -> str:
    h = hashlib.sha256()
    for found in arrays:
        h.update(repr([a.cells for a in found]).encode())
    return h.hexdigest()[:16]


# digests of the arrays, in order, that the search found when every first
# cell dividing v was searched (and each unit multiple mapped from those)
@pytest.mark.parametrize("t, digest", [
    (1, "b446ff3637602273"), (2, "6f52e21121326b59"),
    (3, "5c4028453bfc0edc"), (4, "6eb0fe35046594f4"),
])
def test_every_4x4_relabelling_is_searched_as_before(t, digest):
    assert _digest(search_heffter(4, 4, 3, 3, t, limit=1 << 30, skeleton=_relabelled_k3(perm))
                   for perm in itertools.permutations(range(1, 5))) == digest


# the orbit-3 lists were checked once against _unpruned_search_iter, which
# takes about 130 and 80 s for them
@pytest.mark.parametrize("skel, t, count, digest", [
    ("cyclic", 1, 3300, "dc5b94b004f273b1"), ("cyclic", 3, 2180, "245e5fea2ef2299a"),
    ("cyclic", 5, 1680, "bb18c1d48f7b0454"),
    (_ORBIT_3, 2, 4992, "4d622cf555ad9f04"), (_ORBIT_3, 5, 1872, "53156a0e2deae71a"),
], ids=["1-3300-dc5b94b004f273b1", "3-2180-245e5fea2ef2299a", "5-1680-bb18c1d48f7b0454",
        "orbit-3-2-4992-4d622cf555ad9f04", "orbit-3-5-1872-53156a0e2deae71a"])
def test_exhaustive_5x5_cyclic_is_searched_as_before(skel, t, count, digest):
    found = search_heffter(5, 5, 3, 3, t, limit=1 << 30, skeleton=skel)
    assert len(found) == count
    assert _digest([found]) == digest


@pytest.mark.parametrize("skel, size", [
    (Skeleton(3, 3, frozenset(itertools.product(range(1, 4), repeat=2))), 9),
    (_relabelled_k3((3, 2, 4, 1)), 12),
    (cyclic_diagonal_skeleton(5, 3), 10),
    (_ORBIT_3, 3),
    (_grid_skeleton("01101", "10110", "11001", "01110", "10011"), 5),
    (_grid_skeleton("11100", "01011", "10011", "11100", "00111"), 6),
], ids=["3x3-full", "4x4", "5x5-cyclic", "5x5-orbit-3", "5x5-orbit-5", "5x5-orbit-6"])
def test_line_transversal_is_the_orbit_of_cell_0(skel, size):
    cells = skel.positions()
    orbit = set()  # every line automorphism, by brute force
    for rows in itertools.permutations(range(1, skel.m + 1)):
        for cols in itertools.permutations(range(1, skel.n + 1)):
            if all((rows[i - 1], cols[j - 1]) in skel.filled for i, j in skel.filled):
                orbit.add(cells.index((rows.index(cells[0][0]) + 1,
                                       cols.index(cells[0][1]) + 1)))
    nodes = []
    found = validation._line_transversal(skel, lambda: nodes.append(1))
    assert [x for x, _ in found] == sorted(orbit) and len(orbit) == size
    assert 0 < len(nodes) < 100
    for x, g in found:
        assert g[x] == 0 and sorted(g) == list(range(len(cells)))
        for c, d in itertools.combinations(range(len(cells)), 2):
            for line in (0, 1):  # rows go to rows, columns to columns
                assert (cells[c][line] == cells[d][line]) == \
                    (cells[g[c]][line] == cells[g[d]][line])


@pytest.mark.parametrize("t, perm", [
    (1, (3, 2, 4, 1)), (2, (2, 4, 1, 3)), (3, (3, 2, 4, 1)), (4, (4, 2, 3, 1)),
])
def test_partial_transversal_matches_unpruned(monkeypatch, t, perm):
    # any cells holding cell 0, each with a map to it, split the arrays the
    # same way: with at most as many cells as non-unit classes (2, 6, 3 and
    # 6 of Z_25, ..., Z_28) the trees below a > 1 run and their arrays
    # holding a unit on those cells are dropped
    skel = _relabelled_k3(perm)
    oracle = list(_unpruned_search_iter(4, 4, 24 + t, t, skel))
    full = validation._line_transversal
    for cut in (slice(1), slice(2), slice(0, None, 5), slice(0, None, 2)):
        monkeypatch.setattr(validation, "_line_transversal",
                            lambda skel, count_node: full(skel, count_node)[cut])
        assert search_heffter(4, 4, 3, 3, t, limit=1 << 30, skeleton=skel) == oracle


def test_validation_matches_skeleton_weights(h53_cyclic):
    rep = validate_heffter(h53_cyclic)
    skel = h53_cyclic.skeleton()
    assert all(len(skel.row_columns(i)) == rep.h for i in range(1, 6))
    assert all(len(skel.column_rows(j)) == rep.k for j in range(1, 6))


def test_signed_support_partition(h53_cyclic):
    # all 2nk signed values are distinct and avoid the subgroup
    v = h53_cyclic.v
    signed_support = set()
    for x in entries(h53_cyclic):
        signed_support.update({x, (-x) % v})
    assert len(signed_support) == 2 * len(entries(h53_cyclic))
    assert 0 not in signed_support

