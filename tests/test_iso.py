"""Isomorphism testing, stabilizers, classification, distinctness certification."""

import pytest

from heffter import iso
from heffter.embedding import CombinatorialEmbedding, build_embedding
from heffter.iso import (
    PRESERVING,
    REVERSING,
    all_isomorphisms_fixing_zero,
    canonical_code,
    certify_distinct,
    classify,
    compose_maps,
    find_isomorphism,
    phi_map,
    stabilizer,
    verify_map,
)
from heffter.knight import enumerate_solutions


def translation(v: int, g: int) -> tuple[int, ...]:
    return tuple((x + g) % v for x in range(v))


@pytest.fixture(scope="module")
def k19(h33):
    sols = enumerate_solutions(h33.skeleton())
    return build_embedding(h33, sols[0].rows, sols[0].cols)


@pytest.fixture(scope="module")
def k31_family(h53_cyclic):
    sols = enumerate_solutions(h53_cyclic.skeleton(), trivial_rows=True)
    return [build_embedding(h53_cyclic, p.rows, p.cols) for p in sols]


def unit_relabeling(emb: CombinatorialEmbedding, u: int) -> CombinatorialEmbedding:
    """The isomorphic embedding obtained by relabeling vertices x -> u*x."""
    v = emb.v
    rho = [-1] * v
    for d in emb.connection:
        rho[(u * d) % v] = (u * emb.rho0[d]) % v
    entry = frozenset((u * e) % v for e in emb.entry_class)
    return CombinatorialEmbedding(v, emb.t, emb.connection, tuple(rho),
                                  entry, None)


def mirror(emb: CombinatorialEmbedding) -> CombinatorialEmbedding:
    """The same embedding with every rotation reversed."""
    inverse = [-1] * emb.v
    for d in emb.connection:
        inverse[emb.rho0[d]] = d
    return CombinatorialEmbedding(emb.v, emb.t, emb.connection,
                                  tuple(inverse), emb.entry_class, None)


def pairwise_classify(embeddings) -> dict:
    """Reference classifier: test each embedding against every class anchor.

    Returns the JSON dict ``classify`` must produce, with the same
    representative rule, caps and witnesses.
    """
    anchors: list[int] = []
    members: dict[int, list[int]] = {}
    for i, emb in enumerate(embeddings):
        for anchor in anchors:
            if find_isomorphism(emb, embeddings[anchor]) is not None:
                members[anchor].append(i)
                break
        else:
            anchors.append(i)
            members[i] = [i]
    classes = []
    for anchor in anchors:
        group = members[anchor]
        rep = min(group, key=lambda i: embeddings[i].rho0)
        emb = embeddings[rep]
        deg = emb.degree()
        cap = min(2 * stabilizer(emb).size * deg, 4 * deg * deg)
        if verify_map(emb, emb, translation(emb.v, 1)) == PRESERVING:
            cap = min(cap, 2 * deg * deg)
        classes.append({
            "representative": rep,
            "members": group,
            "witnesses": [find_isomorphism(embeddings[i], emb).to_json_dict()
                          for i in group],
            "size": len(group),
            "cap": cap,
        })
    return {"total": len(embeddings), "class_count": len(classes),
            "classes": classes}


class TestVerifyMap:
    def test_translations_preserve(self, k19):
        for g in range(k19.v):
            assert verify_map(k19, k19, translation(k19.v, g)) == PRESERVING

    def test_translations_preserve_bundled(self, ex_array, ex_pair):
        emb = build_embedding(ex_array, *ex_pair)
        assert verify_map(emb, emb, translation(emb.v, 1)) == PRESERVING

    def test_identity_to_mirror_reverses(self, k19):
        ident = tuple(range(k19.v))
        assert verify_map(k19, mirror(k19), ident) == REVERSING

    def test_non_isomorphism_detected(self, k31_family):
        ident = tuple(range(31))
        assert verify_map(k31_family[0], k31_family[1], ident) is None

    def test_mismatched_moduli(self, k19, k31_family):
        with pytest.raises(ValueError, match="moduli"):
            verify_map(k19, k31_family[0], tuple(range(19)))

    def test_non_bijection_rejected(self, k19):
        with pytest.raises(ValueError, match="bijection"):
            verify_map(k19, k19, (0,) * 19)


class TestFindIsomorphism:
    def test_self_isomorphism_is_identity(self, k19):
        m = find_isomorphism(k19, k19)
        assert m is not None and m.kind == PRESERVING
        assert m.sigma == tuple(range(k19.v))

    def test_finds_unit_relabeling(self, k19):
        other = unit_relabeling(k19, 2)
        m = find_isomorphism(k19, other)
        assert m is not None
        assert verify_map(k19, other, m.sigma) == m.kind

    def test_finds_mirror(self, k19):
        m = find_isomorphism(k19, mirror(k19))
        assert m is not None

    def test_sound_and_first_of_sweep(self, k31_family):
        a, b = k31_family[0], k31_family[2]
        sweep = all_isomorphisms_fixing_zero(a, b)
        first = find_isomorphism(a, b)
        if sweep:
            assert first is not None and first.sigma == sweep[0].sigma
        else:
            assert first is None
        for m in sweep:
            assert verify_map(a, b, m.sigma) == m.kind

    def test_sweep_vs_find_on_many_pairs(self, k31_family):
        # completeness cross-check: first-hit equals the exhaustive sweep
        for a in k31_family[:4]:
            for b in k31_family[:4]:
                sweep = all_isomorphisms_fixing_zero(a, b)
                found = find_isomorphism(a, b)
                assert (found is not None) == bool(sweep)


class TestCanonicalCode:
    def test_invariant_under_unit_relabeling(self, k19):
        code = canonical_code(k19)
        for u in (2, 3, 7):
            assert canonical_code(unit_relabeling(k19, u)) == code

    def test_invariant_under_mirroring(self, k19, k31_family):
        for emb in (k19, k31_family[0]):
            assert canonical_code(mirror(emb)) == canonical_code(emb)

    def test_differs_on_non_isomorphic_pair(self, k31_family):
        a, b = k31_family[0], k31_family[1]
        assert find_isomorphism(a, b) is None
        assert canonical_code(a) != canonical_code(b)


class TestStabilizer:
    def test_k19_bound(self, k19):
        stab = stabilizer(k19)
        assert stab.size <= 2 * stab.size_preserving <= 36
        assert stab.degree == 18
        for m in stab.elements:
            assert m.sigma[0] == 0
            assert verify_map(k19, k19, m.sigma) == m.kind

    def test_closed_under_composition(self, k19):
        stab = stabilizer(k19)
        sigmas = {m.sigma for m in stab.elements}
        for a in stab.elements:
            for b in stab.elements:
                assert compose_maps(a.sigma, b.sigma) in sigmas

    def test_restriction_is_rotation_power(self, ex_array, ex_pair):
        emb = build_embedding(ex_array, *ex_pair)
        stab = stabilizer(emb)
        assert stab.size <= 2 * stab.degree
        cyc = emb.rho0_cycle_from(1)
        L = len(cyc)
        for m in stab.elements:
            if m.kind != PRESERVING:
                continue
            shift = cyc.index(m.sigma[1])
            assert all(m.sigma[cyc[j]] == cyc[(j + shift) % L]
                       for j in range(L))


class TestPhi:
    def test_identity_phi(self, k19):
        ident = tuple(range(k19.v))
        for g in (0, 3, 7):
            m = phi_map(ident, g, k19, k19)
            assert m.sigma == ident and m.kind == PRESERVING

    def test_phi_lands_in_stabilizer(self, k19):
        other = unit_relabeling(k19, 2)
        sigma = find_isomorphism(k19, other)
        assert sigma is not None and sigma.sigma[0] == 0
        stab_sigmas = {m.sigma for m in stabilizer(other).elements}
        for g in (1, 2, 5):
            ph = phi_map(sigma, g, k19, other)
            assert ph.sigma[0] == 0
            assert ph.sigma in stab_sigmas

    def test_phi_needs_zero_fixed(self, k19):
        with pytest.raises(ValueError, match="sigma\\(0\\)"):
            phi_map(translation(k19.v, 1), 1, k19, k19)


class TestEqualityCriterion:
    def test_shared_phi_and_image_forces_identity_iso(self, k19):
        # maps into a common target with equal values at 1 and equal phi at 1
        # force their sources to be isomorphic via the identity
        target = unit_relabeling(k19, 2)
        isos = all_isomorphisms_fixing_zero(k19, target)
        assert isos
        hits = 0
        for s1 in isos:
            for s2 in isos:
                if s1.sigma[1] != s2.sigma[1]:
                    continue
                if phi_map(s1, 1, k19, target).sigma != \
                        phi_map(s2, 1, k19, target).sigma:
                    continue
                hits += 1
                assert verify_map(k19, k19, tuple(range(k19.v))) is not None
                assert s1.sigma == s2.sigma  # here both sources coincide
        assert hits >= len(isos)  # at least the diagonal pairs fire


class TestClassify:
    def test_k31_family(self, k31_family):
        result = classify(k31_family)
        assert result.total == len(k31_family)
        sizes = [c.size for c in result.classes]
        assert sum(sizes) == result.total
        deg = k31_family[0].degree()
        for c in result.classes:
            assert c.size <= c.cap <= 2 * deg * deg

    def test_singleton_family(self, k19):
        result = classify([k19])
        assert result.class_count == 1
        assert result.classes[0].members == (0,)

    def test_witness_maps_verify(self, k19):
        family = [k19]
        keys = {k19.rho0}
        for u in range(2, k19.v):
            cand = unit_relabeling(k19, u)
            if cand.rho0 not in keys:
                keys.add(cand.rho0)
                family.append(cand)
            if len(family) == 3:
                break
        result = classify(family)
        for cls in result.classes:
            rep = family[cls.representative]
            for member, witness in zip(cls.members, cls.witnesses):
                assert verify_map(family[member], rep, witness.sigma) == \
                    witness.kind

    def test_permutation_invariance(self, k31_family):
        import json

        subset = k31_family[:6]
        a = classify(subset)
        b = classify(list(reversed(subset)))
        size_multiset = lambda r: sorted(c.size for c in r.classes)
        assert size_multiset(a) == size_multiset(b)
        # membership partition agrees up to the reversal relabeling
        n = len(subset)
        remap = lambda members: tuple(sorted(n - 1 - i for i in members))
        assert sorted(tuple(sorted(c.members)) for c in a.classes) == \
            sorted(remap(c.members) for c in b.classes)
        # the chosen representative embedding does not depend on input order
        reps_a = {subset[c.representative].rho0 for c in a.classes}
        reps_b = {list(reversed(subset))[c.representative].rho0
                  for c in b.classes}
        assert reps_a == reps_b
        json.dumps(a.to_json_dict())  # serializable

    def test_matches_pairwise_reference(self, k31_family):
        import random

        family = list(k31_family)
        for emb in k31_family[:4]:
            family += [mirror(emb), unit_relabeling(emb, 3),
                       mirror(unit_relabeling(emb, 3))]
        random.Random(5).shuffle(family)
        assert len({e.rho0 for e in family}) == len(family)
        result = classify(family)
        kinds = {w.kind for c in result.classes for w in c.witnesses}
        assert kinds == {PRESERVING, REVERSING}
        assert max(c.size for c in result.classes) > 1
        assert result.to_json_dict() == pairwise_classify(family)

    def test_shared_code_without_witness_aborts(self, k31_family, monkeypatch):
        monkeypatch.setattr(iso, "canonical_code", lambda emb: b"")
        with pytest.raises(RuntimeError, match="no isomorphism"):
            classify(k31_family[:2])

    def test_duplicates_rejected(self, k19):
        with pytest.raises(ValueError, match="duplicate"):
            classify([k19, k19])

    def test_mixed_parameters_rejected(self, k19, k31_family):
        with pytest.raises(ValueError, match="mixed"):
            classify([k19, k31_family[0]])

    def test_isomorphic_relabelings_fall_in_one_class(self, k19):
        family = [k19]
        keys = {k19.rho0}
        for u in range(2, k19.v):
            cand = unit_relabeling(k19, u)
            if cand.rho0 not in keys:
                keys.add(cand.rho0)
                family.append(cand)
            if len(family) == 3:
                break
        assert len(family) == 3, "expected distinct relabelings to exist"
        result = classify(family)
        assert result.class_count == 1
        assert result.classes[0].size == 3


class TestCertifyDistinct:
    def test_two_solutions_two_embeddings(self, h53_cyclic):
        sols = enumerate_solutions(h53_cyclic.skeleton(), trivial_rows=True)
        assert certify_distinct([(h53_cyclic, sols[0]),
                                 (h53_cyclic, sols[1])]) == 2

    def test_duplicate_counts_once(self, h53_cyclic):
        sols = enumerate_solutions(h53_cyclic.skeleton(), trivial_rows=True)
        assert certify_distinct([(h53_cyclic, sols[0]),
                                 (h53_cyclic, sols[0])]) == 1

    def test_transpose_twin(self, h53_centered):
        a = h53_centered
        at = a.transpose()
        assert a.skeleton() == at.skeleton()
        if a == at:
            pytest.skip("searched array is transpose-symmetric")
        sols = enumerate_solutions(a.skeleton(), trivial_rows=True)
        pair = sols[0]
        n = certify_distinct([(a, pair), (at, pair)])
        assert n == 2
        ea = build_embedding(a, pair.rows, pair.cols)
        eb = build_embedding(at, pair.rows, pair.cols)
        assert ea.rho0 != eb.rho0

    def test_certified_count_matches_rotation_hashes(self, h53_cyclic):
        sols = enumerate_solutions(h53_cyclic.skeleton(), trivial_rows=True)[:6]
        batch = [(h53_cyclic, p) for p in sols]
        certified = certify_distinct(batch)
        built = {build_embedding(a, p.rows, p.cols).rho0
                 for a, p in batch}
        assert certified == len(built) == 6

    def test_support_mismatch_rejected(self, h53_cyclic, h53_centered):
        sols = enumerate_solutions(h53_cyclic.skeleton(), trivial_rows=True)
        with pytest.raises(ValueError):
            certify_distinct([(h53_cyclic, sols[0]), (h53_centered, sols[0])])

    def test_non_solution_rejected(self, h53_cyclic):
        from heffter.knight import OrientationPair

        bad = OrientationPair((1,) * 5, (1,) * 5)
        with pytest.raises(ValueError, match="non-solution"):
            certify_distinct([(h53_cyclic, bad)])

    def test_classification_of_transpose_pair(self, h53_centered):
        a = h53_centered
        at = a.transpose()
        if a == at:
            pytest.skip("searched array is transpose-symmetric")
        pair = enumerate_solutions(a.skeleton(), trivial_rows=True)[0]
        ea = build_embedding(a, pair.rows, pair.cols)
        eb = build_embedding(at, pair.rows, pair.cols)
        result = classify([ea, eb])
        assert result.class_count in (1, 2)
