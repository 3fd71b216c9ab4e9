"""Cross-module integration: search -> tours -> embeddings -> classification."""

from heffter.embedding import build_embedding, biembedding_report, genus_formula
from heffter.iso import classify
from heffter.knight import enumerate_solutions, is_solution
from heffter.validation import (
    is_globally_simple,
    is_single_cycle,
    search_heffter,
    subgroup_members,
    validate_heffter,
)

from conftest import compatible, reference_orderings, rotation_from_orderings


def all_vectors(n):
    for mask in range(1 << n):
        yield tuple(-1 if (mask >> (n - 1 - j)) & 1 else 1 for j in range(n))


def test_three_way_equivalence(h53_cyclic):
    """One full cycle in rho0 <=> compatible orderings <=> tour solution."""
    skel = h53_cyclic.skeleton()
    v, t = h53_cyclic.v, h53_cyclic.t
    connection = set(range(v)) - subgroup_members(v, t)
    hits = 0
    for rows in all_vectors(5):
        for cols in all_vectors(5):
            ords = reference_orderings(h53_cyclic, rows, cols)
            ok = compatible(*ords)
            rho0 = rotation_from_orderings(v, *ords)
            assert is_single_cycle(rho0, connection) == ok
            assert ok == is_solution(skel, rows, cols)
            if ok:  # the library's one route builds the same rotation
                assert build_embedding(h53_cyclic, rows, cols).rho0 == rho0
            hits += ok
    assert hits > 0


def test_medium_pipeline():
    found = search_heffter(7, 7, 3, 3, 1, limit=1, skeleton="cyclic")
    assert found
    a = found[0]
    assert validate_heffter(a).passed
    assert is_globally_simple(a)  # weight 3 lines are always simple

    sols = enumerate_solutions(a.skeleton(), trivial_rows=True)
    assert len(sols) == 56
    embs = [build_embedding(a, p.rows, p.cols) for p in sols]
    assert len({e.rho0 for e in embs}) == 56

    rep = biembedding_report(embs[0])
    assert rep.passed
    assert rep.genus_euler == genus_formula(7, 7, 3, 1) == 130

    result = classify(embs)
    assert result.total == 56
    assert sum(c.size for c in result.classes) == 56
    deg = embs[0].degree()
    assert all(c.size <= 2 * deg * deg for c in result.classes)
