"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Time limits are wall-clock seconds.
"""

import itertools
import math
import time
from contextlib import contextmanager

from heffter.bounds import BoundQuery, binary_entropy, derangements, evaluate_bound
from heffter.embedding import (
    COLUMN,
    ROW,
    biembedding_report,
    build_embedding,
    genus_formula,
    trace_faces,
)
from heffter.iso import certify_distinct, classify, stabilizer, verify_map
from heffter.knight import (
    OrientationPair,
    cyclic_criterion,
    enumerate_solutions,
    is_solution,
    negated,
    pairs_family,
    power_two_family,
    prime_family,
    seven_diagonal_family,
    strip_criterion,
    swapped,
    three_diagonal_family,
    tour,
)
from heffter.pfarray import classify_diagonality, cyclic_diagonal_skeleton
from heffter.validation import (
    Ordering,
    composed_cycle,
    is_globally_simple,
    orderings_from_orientations,
    validate_heffter,
)

from conftest import load_golden


@contextmanager
def criterion(number: int, label: str, limit_seconds: float):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        verdict = "FAIL" if failed else "PASS"
        print(f"[criterion {number:02d}] {verdict} {label}: "
              f"{elapsed:.2f}s (limit {limit_seconds:g}s)")
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.2f}s"
    )


def all_column_vectors(n):
    for mask in range(1 << n):
        yield tuple(-1 if (mask >> (n - 1 - j)) & 1 else 1 for j in range(n))


def test_criterion_01_golden_validation(ex_array):
    with criterion(1, "golden array validates", 1.0):
        rep = validate_heffter(ex_array)
        assert rep.passed
        assert (ex_array.v, ex_array.t) == (207, 9)
        assert (rep.h, rep.k) == (9, 9)
        prof = classify_diagonality(ex_array)
        assert prof.k == 9 and set(prof.strip_widths) == {1}
        assert is_globally_simple(ex_array)
        # all 99 partial sums per direction are computed and line-distinct
        row_sums = [Ordering(ex_array.row_values(i), 207).partial_sums()
                    for i in range(1, 12)]
        col_sums = [Ordering(ex_array.column_values(j), 207).partial_sums()
                    for j in range(1, 12)]
        assert sum(len(s) for s in row_sums) == 99
        assert sum(len(s) for s in col_sums) == 99
        assert all(len(set(s)) == len(s) for s in row_sums + col_sums)


def test_criterion_02_golden_tour(ex_array, ex_pair):
    with criterion(2, "golden tour reproduces the label table", 1.0):
        labels = load_golden("tour_labels_11x11.json")["labels"]
        by_label = {
            lab: (i + 1, j + 1)
            for i, row in enumerate(labels)
            for j, lab in enumerate(row)
            if lab is not None
        }
        result = tour(ex_array.skeleton(), *ex_pair, start=(1, 1))
        assert result.covers_all and result.period == 99
        assert result.cells == tuple(by_label[s] for s in range(99))


def test_criterion_03_golden_orderings(ex_array, ex_pair):
    with criterion(3, "golden orderings and composition cycle", 1.0):
        from heffter.perm import Permutation

        g = load_golden("orderings_11x11.json")
        v = ex_array.v
        ords = orderings_from_orientations(ex_array, *ex_pair)
        assert ords.row_perm == Permutation.from_cycles(
            [tuple(x % v for x in c) for c in g["row_cycles"]])
        assert ords.col_perm == Permutation.from_cycles(
            [tuple(x % v for x in c) for c in g["column_cycles"]])
        comp = composed_cycle(ords)
        want = [x % v for x in g["composition_cycle"]]
        assert comp.is_single_cycle()
        assert list(comp.cycle_through(want[0])) == want


def test_criterion_04_golden_embedding(ex_array, ex_pair):
    with criterion(4, "golden embedding report", 10.0):
        emb = build_embedding(ex_array, *ex_pair)
        faces = trace_faces(emb)
        assert faces.count == 4554
        assert {f.length for f in faces.faces} == {9}
        assert faces.all_simple
        assert faces.count_color(ROW) == 2277
        assert faces.count_color(COLUMN) == 2277
        rep = biembedding_report(emb)
        assert rep.two_colorable
        assert rep.genus_euler == rep.genus_closed_form == 7867
        assert genus_formula(11, 11, 9, 9) == 7867
        assert rep.passed


CYCLIC_CASES = [(5, 3), (7, 3), (9, 3), (7, 5)]


def _cyclic_solution_sets():
    out = {}
    for n, k in CYCLIC_CASES:
        skel = cyclic_diagonal_skeleton(n, k)
        sols = []
        for cols in all_column_vectors(n):
            E = [j + 1 for j, d in enumerate(cols) if d == -1]
            lemma = cyclic_criterion(n, k, E)
            oracle = is_solution(skel, (1,) * n, cols)
            assert lemma == oracle, (n, k, E)
            if oracle:
                sols.append(OrientationPair((1,) * n, cols))
        out[(n, k)] = (skel, sols)
    return out


def _strip_solution_set(ex_array):
    skel = ex_array.skeleton()
    sols = []
    for cols in all_column_vectors(11):
        E = [j + 1 for j, d in enumerate(cols) if d == -1]
        lemma = strip_criterion(skel, E)
        oracle = is_solution(skel, (1,) * 11, cols)
        assert lemma == oracle, E
        if oracle:
            sols.append(OrientationPair((1,) * 11, cols))
    return skel, sols


def test_criterion_05_characterizations_match_oracle(ex_array):
    with criterion(5, "characterizations agree with the tour oracle", 60.0):
        sets = _cyclic_solution_sets()
        assert all(len(sols) > 0 for _, sols in sets.values())
        _, strip_solutions = _strip_solution_set(ex_array)
        assert strip_solutions


def test_criterion_06_symmetry_lemmas(ex_array):
    with criterion(6, "negation and swap closure of all found solutions", 60.0):
        for (n, k), (skel, sols) in _cyclic_solution_sets().items():
            for pair in sols:
                neg = negated(pair)
                assert is_solution(skel, neg.rows, neg.cols), (n, k, pair)
                sw = swapped(pair, skel)
                assert is_solution(skel, sw.rows, sw.cols), (n, k, pair)
        strip_skel, strip_sols = _strip_solution_set(ex_array)
        for pair in strip_sols:
            neg = negated(pair)
            assert is_solution(strip_skel, neg.rows, neg.cols), pair


def test_criterion_07_family_soundness():
    with criterion(7, "families pass the oracle and meet their censuses", 300.0):
        for n in (3, 5, 7, 9):
            fam = three_diagonal_family(n)
            pairs = list(fam)
            assert len(pairs) == fam.census() >= 2 ** (n / 2 + 2)
            for p in pairs:
                assert is_solution(fam.skeleton, p.rows, p.cols)

        fam = power_two_family(21, 5)
        pairs = list(fam)
        bound = evaluate_bound(BoundQuery("PropPower2", n=21, k=5)).exact
        assert len(pairs) == fam.census() >= bound
        for p in pairs:
            assert is_solution(fam.skeleton, p.rows, p.cols)

        fam = prime_family(41, 5)
        pairs = list(fam)
        bound = evaluate_bound(BoundQuery("PropPrime", n=41, k=5)).exact
        assert len(pairs) == fam.census() >= bound
        for p in pairs:
            assert is_solution(fam.skeleton, p.rows, p.cols)

        fam = pairs_family(11, 5, 3, 2)
        pairs = list(fam)
        assert len(pairs) == fam.census() >= 2 * math.comb(11, 2) == 110
        for p in pairs:
            assert is_solution(fam.skeleton, p.rows, p.cols)

        fam = seven_diagonal_family(123)
        bound = evaluate_bound(BoundQuery("PropK7", n=123, k=7)).exact
        assert fam.census() >= bound
        for p in itertools.islice(iter(fam), 20):
            assert is_solution(fam.skeleton, p.rows, p.cols)


def test_criterion_08_automorphism_bound(h33):
    with criterion(8, "vertex stabilizer of the 19-vertex embedding", 60.0):
        sols = enumerate_solutions(h33.skeleton())
        assert sols
        emb = build_embedding(h33, sols[0].rows, sols[0].cols)
        stab = stabilizer(emb)
        assert stab.size <= 2 * stab.size_preserving <= 36
        for m in stab.elements:
            assert verify_map(emb, emb, m.sigma) == m.kind


def test_criterion_09_distinctness_and_classification(h53_cyclic):
    with criterion(9, "distinct rotations and capped classes", 120.0):
        sols = enumerate_solutions(h53_cyclic.skeleton(), trivial_rows=True)
        assert len(sols) >= 2
        embs = [build_embedding(h53_cyclic, p.rows, p.cols) for p in sols]
        keys = {e.rho0_key() for e in embs}
        assert len(keys) == len(embs)  # pairwise distinct rotation maps
        assert certify_distinct(
            [(h53_cyclic, p) for p in sols]) == len(sols)
        result = classify(embs)
        degree = embs[0].degree()
        cap = 2 * degree * degree
        assert all(c.size <= cap for c in result.classes)


def test_criterion_10_bound_calculators():
    with criterion(10, "exact bound calculators", 1.0):
        for m in range(9):
            brute = sum(
                1
                for p in itertools.permutations(range(m))
                if all(p[i] != i for i in range(m))
            )
            assert derangements(m) == brute
        assert binary_entropy(0.5) == 1.0
        closed = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
        assert abs(binary_entropy(0.25) - closed) <= 1e-12 * abs(closed)
        assert evaluate_bound(BoundQuery("CDY", n=13, k=11)).exact == 11
