"""Successor map, tours, characterizations, symmetries, families, enumeration."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heffter import knight
from heffter.embedding import build_embedding
from heffter.knight import (
    BudgetExceededError,
    OrientationPair,
    build_family,
    cyclic_criterion,
    cyclic_criterion_perms,
    enumerate_solutions,
    is_solution,
    pairs_family,
    power_two_family,
    prime_family,
    seven_diagonal_family,
    strip_criterion,
    three_diagonal_family,
    tour,
)
from heffter.pfarray import (
    Skeleton,
    classify_diagonality,
    cyclic_diagonal_skeleton,
    diagonal_skeleton,
)
from heffter.validation import (
    compose,
    cycle_from,
    is_single_cycle,
)

from conftest import compatible, load_golden, reference_orderings


def successor(skel, rows_dir, cols_dir, cell):
    """One step of the successor map, straight from its definition: along
    row i in direction R_i to the next filled cell, landing in column j',
    then along column j' in direction C_j' to the next filled cell."""
    i, j = cell
    cols = skel.row_columns(i)
    j2 = cols[(cols.index(j) + rows_dir[i - 1]) % len(cols)]
    rows = skel.column_rows(j2)
    return rows[(rows.index(i) + cols_dir[j2 - 1]) % len(rows)], j2


def all_column_vectors(n):
    """All ±1 vectors of length n in lexicographic order (+1 before -1)."""
    for mask in range(1 << n):
        yield tuple(-1 if (mask >> (n - 1 - j)) & 1 else 1 for j in range(n))


class TestSuccessor:
    def test_first_step_of_golden_tour(self, ex_array, ex_pair):
        skel = ex_array.skeleton()
        assert successor(skel, *ex_pair, (1, 1)) == (2, 2)

    def test_tour_follows_the_successor_map(self, cr_skeleton):
        dirs_r = (1, -1, 1, 1, -1, 1)
        dirs_c = (-1, 1, 1, -1, 1, 1)
        cells = tour(cr_skeleton, dirs_r, dirs_c, start=(1, 1)).cells
        for a, b in zip(cells, cells[1:] + cells[:1]):
            assert successor(cr_skeleton, dirs_r, dirs_c, a) == b

    def test_thirteen_steps(self, ex_array, ex_pair):
        skel = ex_array.skeleton()
        cell = (1, 1)
        for _ in range(13):
            cell = successor(skel, *ex_pair, cell)
        assert cell == (1, 3)

    def test_single_cell_wraps_to_itself(self):
        one = Skeleton(1, 1, frozenset({(1, 1)}))
        assert successor(one, (1,), (1,), (1, 1)) == (1, 1)

    def test_unfilled_cell_rejected(self, ex_array, ex_pair):
        with pytest.raises(ValueError):
            successor(ex_array.skeleton(), *ex_pair, (1, 5))

    def test_bijectivity(self, cr_skeleton):
        # every filled cell has exactly one predecessor
        dirs_r = (1, -1, 1, 1, -1, 1)
        dirs_c = (-1, 1, 1, -1, 1, 1)
        images = {successor(cr_skeleton, dirs_r, dirs_c, c)
                  for c in cr_skeleton.filled}
        assert images == set(cr_skeleton.filled)


class TestTour:
    def test_golden_label_table(self, ex_array, ex_pair):
        labels = load_golden("tour_labels_11x11.json")["labels"]
        by_label = {}
        for i, row in enumerate(labels):
            for j, lab in enumerate(row):
                if lab is not None:
                    by_label[lab] = (i + 1, j + 1)
        result = tour(ex_array.skeleton(), *ex_pair, start=(1, 1))
        assert result.covers_all and result.period == 99
        assert result.cells == tuple(by_label[s] for s in range(99))

    def test_start_independence(self, ex_array, ex_pair):
        skel = ex_array.skeleton()
        periods = {tour(skel, *ex_pair, start=c).period
                   for c in itertools.islice(sorted(skel.filled), 7)}
        assert periods == {99}

    def test_two_by_two_full(self):
        skel = Skeleton(2, 2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
        res = tour(skel, (1, 1), (1, 1), start=(1, 1))
        # hand trace: (1,1)->(2,2)->(1,1): the orbit alternates diagonals
        assert res.period == 2
        assert not res.covers_all

    def test_orderings_equivalence(self, h53_cyclic):
        # a pair solves the tour iff its induced orderings compose to one cycle
        skel = h53_cyclic.skeleton()
        found = []
        for rows in all_column_vectors(5):
            for cols in all_column_vectors(5):
                ok = compatible(*reference_orderings(h53_cyclic, rows, cols))
                assert ok == is_solution(skel, rows, cols)
                if ok:
                    found.append(OrientationPair(rows, cols))
        # the full scan lists exactly these pairs, in this loop's order
        assert enumerate_solutions(skel) == found

    def test_solution_depends_only_on_skeleton(self, h53_cyclic, h53_centered):
        # same skeleton shape, different entries: identical solution sets
        skel = h53_cyclic.skeleton()
        other = diagonal_skeleton(5, (1, 2, 3))
        assert skel == other
        for cols in all_column_vectors(5):
            assert is_solution(skel, (1,) * 5, cols) == \
                is_solution(other, (1,) * 5, cols)


BAD_PAIRS = {
    "zero entry": ((0,) + (1,) * 10, (1,) * 11),
    "short C": ((1,) * 11, (1,) * 10),
    "long R": ((1,) * 12, (1,) * 11),
    "empty": ((), ()),
    # equal to the solution (1,...,1), (-1, 1,...,1) of the array, but not ints
    "float R": ((1.0,) + (1,) * 10, (-1,) + (1,) * 10),
    "float C": ((1,) * 11, (-1.0,) + (1,) * 10),
    "bool R": ((True,) * 11, (-1,) + (1,) * 10),
}


@pytest.mark.parametrize("rows,cols", BAD_PAIRS.values(), ids=BAD_PAIRS.keys())
def test_bad_pair_is_refused_where_it_meets_a_shape(ex_array, rows, cols):
    assert OrientationPair(rows, cols).rows == rows  # building a pair checks nothing
    skel = ex_array.skeleton()
    with pytest.raises(ValueError, match="direction vector"):
        tour(skel, rows, cols)
    with pytest.raises(ValueError, match="direction vector"):
        is_solution(skel, rows, cols)
    with pytest.raises(ValueError, match="direction vector"):
        build_embedding(ex_array, rows, cols)


class TestSymmetries:
    @pytest.mark.parametrize("n,k", [(5, 3), (7, 3), (9, 3), (7, 5)])
    def test_negation_closure(self, n, k):
        skel = cyclic_diagonal_skeleton(n, k)
        for pair in enumerate_solutions(skel, trivial_rows=True):
            neg = pair.negated()
            assert is_solution(skel, neg.rows, neg.cols)

    @pytest.mark.parametrize("n,k", [(5, 3), (7, 3), (9, 3), (7, 5)])
    def test_swap_closure_on_cyclic(self, n, k):
        skel = cyclic_diagonal_skeleton(n, k)
        for pair in enumerate_solutions(skel, trivial_rows=True):
            sw = OrientationPair(pair.cols, pair.rows)
            assert is_solution(skel, sw.rows, sw.cols)

    def test_negation_involution(self):
        p = OrientationPair((1, -1, 1), (-1, -1, 1))
        assert p.negated().negated() == p

    def test_swap_requires_cyclic(self):
        # diagonals {1, 2, 4} of a 7x7 grid are not consecutive mod 7: 7 of
        # the 56 trivial-R solutions do not survive the swap
        skel = diagonal_skeleton(7, (1, 2, 4))
        assert not classify_diagonality(skel).cyclic
        sols = enumerate_solutions(skel, trivial_rows=True)
        assert len(sols) == 56
        assert sum(not is_solution(skel, p.cols, p.rows) for p in sols) == 7

    def test_swap_requires_trivial_rows(self):
        # on a cyclic skeleton, 160 of the 300 solutions with a -1 in R do not
        # survive the swap
        skel = cyclic_diagonal_skeleton(5, 3)
        sols = [p for p in enumerate_solutions(skel) if -1 in p.rows]
        assert len(sols) == 300
        assert sum(not is_solution(skel, p.cols, p.rows) for p in sols) == 160

    def test_minus_positions(self):
        p = OrientationPair((1, 1), (-1, 1, -1, 1))
        assert p.to_json_dict() == {"R": [1, 1], "C": [-1, 1, -1, 1],
                                    "E": [1, 3]}


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.data())
def test_negation_closure_random_skeletons(m, n, data):
    # closure under (R, C) -> (-R, -C) holds for arbitrary skeletons
    filled = data.draw(
        st.sets(st.tuples(st.integers(1, m), st.integers(1, n)),
                min_size=1, max_size=m * n))
    skel = Skeleton(m, n, frozenset(filled))
    rows = tuple(data.draw(st.sampled_from((1, -1))) for _ in range(m))
    cols = tuple(data.draw(st.sampled_from((1, -1))) for _ in range(n))
    if is_solution(skel, rows, cols):
        assert is_solution(skel, tuple(-d for d in rows),
                           tuple(-d for d in cols))


class TestCharacterizations:
    @pytest.mark.parametrize("n,k", [(5, 3), (7, 3), (9, 3), (7, 5)])
    def test_cyclic_criterion_matches_oracle(self, n, k):
        skel = cyclic_diagonal_skeleton(n, k)
        for cols in all_column_vectors(n):
            E = [j + 1 for j, d in enumerate(cols) if d == -1]
            assert cyclic_criterion(n, k, E) == \
                is_solution(skel, (1,) * n, cols)

    def test_strip_criterion_matches_oracle_on_bundled(self, ex_array):
        skel = ex_array.skeleton()
        for cols in all_column_vectors(11):
            E = [j + 1 for j, d in enumerate(cols) if d == -1]
            assert strip_criterion(skel, E) == \
                is_solution(skel, (1,) * 11, cols)

    def test_strip_criterion_with_wide_strips(self):
        # three strips of width 2: reconnection needs all classes mod 3
        skel = diagonal_skeleton(9, (1, 4, 7))
        for cols in all_column_vectors(9):
            E = [j + 1 for j, d in enumerate(cols) if d == -1]
            assert strip_criterion(skel, E) == \
                is_solution(skel, (1,) * 9, cols)

    def test_strip_criterion_with_unequal_strips(self):
        # strips of widths 1 and 5; the wide strip's filled-to-filled step is
        # 6, so reversals must cover all classes mod gcd(9, 6) = 3
        skel = diagonal_skeleton(9, (1, 2, 4))
        hit_condition_one = 0
        for cols in all_column_vectors(9):
            E = [j + 1 for j, d in enumerate(cols) if d == -1]
            verdict = strip_criterion(skel, E)
            assert verdict == is_solution(skel, (1,) * 9, cols)
            if verdict:
                assert {e % 3 for e in E} == {0, 1, 2}
                hit_condition_one += 1
        assert hit_condition_one > 0

    def test_strip_criterion_on_prime_style_pattern(self):
        # the near-diagonal pattern at a toy size, exhaustively
        skel = diagonal_skeleton(9, (1, 2, 4, 5, 6))
        for cols in all_column_vectors(9):
            E = [j + 1 for j, d in enumerate(cols) if d == -1]
            assert strip_criterion(skel, E) == \
                is_solution(skel, (1,) * 9, cols)

    def test_empty_reversal_set_is_never_a_solution(self):
        for n, k in [(5, 3), (7, 5), (9, 3)]:
            skel = cyclic_diagonal_skeleton(n, k)
            assert not cyclic_criterion(n, k, [])
            assert not is_solution(skel, (1,) * n, (1,) * n)

    def test_perm_pair_example(self):
        w1, w2 = cyclic_criterion_perms(5, 3, (1, 3))
        # tables indexed by position 0..5: 1 -> 3 -> 1 under w1, w2 fixes E
        assert w1 == (-1, 3, -1, 1, -1, -1)
        assert w2 == (-1, 1, -1, 3, -1, -1)
        comp = compose(w2, w1)
        assert comp == (-1, 3, -1, 1, -1, -1)
        assert cycle_from(comp, 1) == [1, 3]
        assert is_single_cycle(comp, (1, 3))
        assert cyclic_criterion(5, 3, (1, 3))

    def test_singleton_reversal(self):
        # one reversed column, gcd(n, k-1) = 1: always a solution
        assert cyclic_criterion(9, 3, [4])

    def test_hypothesis_gates(self):
        with pytest.raises(ValueError):
            cyclic_criterion(8, 4, [1])  # even k
        with pytest.raises(ValueError):
            cyclic_criterion(3, 3, [1])  # n must exceed k
        with pytest.raises(ValueError):
            strip_criterion(diagonal_skeleton(7, (2, 3, 4)), [1])  # no D_1


class TestFamilies:
    def test_three_diag_small(self):
        fam = three_diagonal_family(5)
        pairs = list(fam)
        assert fam.base_count == 7  # nonempty subsets of {1, 3, 5}
        assert fam.census() == 28 == len(pairs) == len(set(pairs))
        for p in pairs:
            assert is_solution(fam.skeleton, p.rows, p.cols)

    def test_three_diag_n3_degenerate(self):
        fam = three_diagonal_family(3)
        pairs = list(fam)
        assert fam.base_count == 3
        for p in pairs:
            assert is_solution(fam.skeleton, p.rows, p.cols)

    def test_three_diag_census_beats_bound(self):
        # stream size must reach 2^(n/2 + 2) after symmetry closure
        for n in (5, 7, 9):
            fam = three_diagonal_family(n)
            assert fam.census() >= 2 ** (n / 2 + 2)
            assert fam.census() == len(set(fam))

    def test_three_diag_rejects_even(self):
        with pytest.raises(ValueError):
            three_diagonal_family(6)

    def test_power_two_default(self):
        fam = power_two_family(21, 5)
        assert fam.spec.r == 2
        pairs = list(fam)
        assert len(pairs) == fam.census() == 60
        assert fam.census() >= 4 * comb(6, 2)  # the counting term at n=21, k=5
        for p in pairs:
            assert is_solution(fam.skeleton, p.rows, p.cols)

    def test_power_two_explicit_r(self):
        fam = power_two_family(13, 5, r=2)
        pairs = list(fam)
        assert len(pairs) == fam.census() == 4 * comb(4, 2)
        for p in pairs:
            assert is_solution(fam.skeleton, p.rows, p.cols)

    def test_power_two_admissibility(self):
        with pytest.raises(ValueError, match="coprime"):
            power_two_family(13, 5, r=3)
        with pytest.raises(ValueError, match="gcd"):
            power_two_family(10, 5)
        with pytest.raises(ValueError, match="4k-3"):
            power_two_family(13, 5)  # default r needs n >= 4k-3

    def test_congruent_positions_match_the_listing(self):
        for n in range(40):
            for modulus in range(1, 9):
                for residue in range(2 * modulus + 1):
                    want = [x for x in range(1, n + 1) if x % modulus == residue % modulus]
                    assert list(knight._congruent_positions(n, modulus, residue)) == want

    def test_subset_families_list_the_same_bases(self, monkeypatch):
        # the families against their positions listed one by one, as a tuple
        def families():
            return [power_two_family(21, 5), power_two_family(13, 5, r=2),
                    power_two_family(15, 3, r=3), seven_diagonal_family(27, r=4),
                    seven_diagonal_family(125), prime_family(41, 5)]

        got = [(fam.census(), list(itertools.islice(fam, 400))) for fam in families()]
        monkeypatch.setattr(knight, "_congruent_positions", lambda n, modulus, residue: tuple(
            x for x in range(1, n + 1) if x % modulus == residue % modulus))
        assert got == [(fam.census(), list(itertools.islice(fam, 400))) for fam in families()]

    def test_k7_gcd3_branch(self):
        fam = seven_diagonal_family(123)
        assert fam.spec.r == 9
        assert fam.census() == 4 * comb(21, 7)
        sample = list(itertools.islice(iter(fam), 20))
        for p in sample:
            assert is_solution(fam.skeleton, p.rows, p.cols)

    def test_k7_reconnection_images(self):
        # with E = (1, 2, e3..e9 = 3 mod 6): images land at indices 7, 8, 6
        E = (1, 2, 3, 9, 15, 21, 27, 33, 39)
        w1, w2 = cyclic_criterion_perms(123, 7, E)
        comp = compose(w2, w1)
        assert comp[E[0]] == E[6]
        assert comp[E[1]] == E[7]
        assert comp[E[2]] == E[5]

    def test_k7_delegates_on_coprime(self):
        fam = seven_diagonal_family(125)
        assert fam.spec.family == "KSeven"
        assert fam.spec.r == 7
        p = next(iter(fam))
        assert is_solution(fam.skeleton, p.rows, p.cols)

    def test_k7_rejects_even(self):
        with pytest.raises(ValueError):
            seven_diagonal_family(124)

    def test_k7_empty_default_range_reported(self):
        # [n/24, n/12] holds nothing congruent to 4 mod 5 for n = 27
        with pytest.raises(ValueError, match="no subset size"):
            seven_diagonal_family(27)
        fam = seven_diagonal_family(27, r=4)
        p = next(iter(fam))
        assert is_solution(fam.skeleton, p.rows, p.cols)

    def test_power_two_empty_default_range_reported(self):
        # primes in [33/16, 33/8] = {2, 3}: ceil lands on [3, 4], and 3 shares
        # a factor with k-2; the recipe reports instead of widening
        with pytest.raises(ValueError, match="no admissible"):
            power_two_family(33, 5)
        fam = power_two_family(33, 5, r=2)
        p = next(iter(fam))
        assert is_solution(fam.skeleton, p.rows, p.cols)

    def test_prime_family(self):
        fam = prime_family(41, 5)
        assert fam.spec.r == 2
        assert fam.spec.diagonals == (1, 2, 4, 5, 6)
        pairs = list(fam)
        assert len(pairs) == fam.census() == 2 * comb(5, 2)
        for p in pairs:
            assert is_solution(fam.skeleton, p.rows, p.cols)

    def test_prime_family_43(self):
        fam = prime_family(43, 5)
        pairs = list(itertools.islice(iter(fam), 8))
        for p in pairs:
            assert is_solution(fam.skeleton, p.rows, p.cols)

    def test_prime_family_rejects_k3(self):
        # diagonals 2, 3, 4 leave diagonal 1 empty: no strip criterion applies
        with pytest.raises(ValueError, match="k >= 5"):
            prime_family(5, 3, r=1)

    def test_prime_family_rejects_composite(self):
        with pytest.raises(ValueError, match="prime"):
            prime_family(39, 5)

    def test_pairs_family(self):
        fam = pairs_family(11, 5, 3, 2)
        assert fam.spec.diagonals == (1, 2, 3, 5, 7)
        pairs = list(fam)
        assert len(pairs) == fam.census() == 110 == 2 * comb(11, 2)
        for p in pairs:
            assert is_solution(fam.skeleton, p.rows, p.cols)

    def test_pairs_family_gcd_gate(self):
        with pytest.raises(ValueError, match="admissibility"):
            pairs_family(12, 5, 3, 2)  # even n

    def test_build_family_dispatch(self):
        fam = build_family("threediag", n=5)
        assert fam.spec.family == "ThreeDiag"
        with pytest.raises(ValueError, match="unknown family"):
            build_family("nope", n=5)

    def test_family_streams_are_deterministic(self):
        a = [p.to_json_dict() for p in itertools.islice(iter(pairs_family(11, 5, 3, 2)), 10)]
        b = [p.to_json_dict() for p in itertools.islice(iter(pairs_family(11, 5, 3, 2)), 10)]
        assert a == b


class TestEnumeration:
    def test_contains_three_diag_family(self):
        fam = three_diagonal_family(5)
        base = set(fam.base_pairs())
        found = set(enumerate_solutions(fam.skeleton, trivial_rows=True))
        assert base <= found

    def test_bundled_skeleton_contains_golden_pair(self, ex_array, ex_pair):
        sols = enumerate_solutions(ex_array.skeleton(), trivial_rows=True,
                                   budget=1 << 12)
        assert OrientationPair(*ex_pair) in sols

    def test_lexicographic_order(self):
        skel = cyclic_diagonal_skeleton(5, 3)
        sols = enumerate_solutions(skel, trivial_rows=True)
        keys = [tuple(0 if d == 1 else 1 for d in p.rows + p.cols) for p in sols]
        assert keys == sorted(keys)

    def test_budget(self):
        skel = cyclic_diagonal_skeleton(5, 3)
        with pytest.raises(BudgetExceededError):
            enumerate_solutions(skel, budget=16)

    def test_single_cell_skeleton(self):
        one = Skeleton(1, 1, frozenset({(1, 1)}))
        sols = enumerate_solutions(one)
        assert len(sols) == 4  # every orientation pair covers the one cell

    def test_full_scan_matches_trivial_scan(self):
        skel = cyclic_diagonal_skeleton(5, 3)
        full = enumerate_solutions(skel)
        trivial = enumerate_solutions(skel, trivial_rows=True)
        assert [p for p in full if all(d == 1 for d in p.rows)] == trivial
