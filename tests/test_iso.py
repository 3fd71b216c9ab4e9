"""Isomorphism testing, stabilizers, classification, distinctness certification."""

import itertools
import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heffter import iso
from heffter.embedding import CombinatorialEmbedding, build_embedding, build_embeddings
from heffter.iso import (
    PRESERVING,
    REVERSING,
    EmbeddingMap,
    all_isomorphisms_fixing_zero,
    classify,
    find_isomorphism,
    stabilizer,
    verify_map,
)
from heffter.knight import enumerate_solutions
from heffter.validation import compose, cycle_from, search_heffter

from conftest import alternating_embedding, entries, inverse, transpose


def translation(v: int, g: int) -> tuple[int, ...]:
    return tuple((x + g) % v for x in range(v))


def phi_map(sigma: EmbeddingMap, g: int, target: CombinatorialEmbedding) -> EmbeddingMap:
    """sigma ∘ tau_g^{-1} ∘ sigma^{-1} ∘ tau_{sigma(g)} for an isomorphism sigma
    fixing 0, certified as an automorphism of ``target`` by verify_map."""
    s = sigma.sigma
    assert s[0] == 0
    v = target.v
    s_inv, sg = inverse(s), s[g % v]
    phi = tuple(s[(s_inv[(x + sg) % v] - g) % v] for x in range(v))
    kind = verify_map(target, target, phi)
    assert kind is not None
    return EmbeddingMap(phi, kind)


@pytest.fixture(scope="module")
def k19(h33):
    sols = enumerate_solutions(h33.skeleton())
    return build_embedding(h33, sols[0].rows, sols[0].cols)


@pytest.fixture(scope="module")
def k31_family(h53_cyclic):
    sols = enumerate_solutions(h53_cyclic.skeleton(), trivial_rows=True)
    return [build_embedding(h53_cyclic, p.rows, p.cols) for p in sols]


@pytest.fixture(scope="module")
def z19_family(h33):
    """All 24 solutions of the 3x3 array over Z_19, as embeddings."""
    sols = enumerate_solutions(h33.skeleton())
    return [build_embedding(h33, p.rows, p.cols) for p in sols]


@pytest.fixture(scope="module")
def z21_family():
    """All 24 solutions of a searched 3x3 array over Z_21 with t = 3."""
    array = search_heffter(3, 3, 3, 3, 3, limit=1)[0]
    sols = enumerate_solutions(array.skeleton())
    return [build_embedding(array, p.rows, p.cols) for p in sols]


def unit_relabeling(emb: CombinatorialEmbedding, u: int) -> CombinatorialEmbedding:
    """The isomorphic embedding obtained by relabeling vertices x -> u*x."""
    v = emb.v
    rho = [-1] * v
    for d in emb.connection:
        rho[(u * d) % v] = (u * emb.rho0[d]) % v
    entry = frozenset((u * e) % v for e in emb.entry_class)
    return CombinatorialEmbedding(v, emb.t, tuple(rho), entry, None)


def mirror(emb: CombinatorialEmbedding) -> CombinatorialEmbedding:
    """The same embedding with every rotation reversed."""
    inverse = [-1] * emb.v
    for d in emb.connection:
        inverse[emb.rho0[d]] = d
    return CombinatorialEmbedding(emb.v, emb.t, tuple(inverse), emb.entry_class, None)


def _propagate(rho1, rho2, cyc1, image_of_one):
    """Candidate sigma with sigma(0) = 0 and sigma(1) = image_of_one, or None.

    ``rho2`` is e2's table for a preserving candidate, its inverse for a
    reversing one.  The rotation at 0 fixes sigma on the connection set, the
    rotation at 1 on the rest of J.
    """
    v = len(rho1)
    sigma = [-1] * v
    sigma[0] = 0
    y = image_of_one
    for z in cyc1:
        sigma[z] = y
        y = rho2[y]
    z = w = 0
    for _ in range(len(cyc1)):
        z = (1 + rho1[(z - 1) % v]) % v
        w = (image_of_one + rho2[(w - image_of_one) % v]) % v
        if sigma[z] < 0:
            sigma[z] = w
        elif sigma[z] != w:
            return None
    if -1 in sigma or len(set(sigma)) != v:
        return None
    return tuple(sigma)


def reference_isomorphisms(e1, e2) -> tuple[EmbeddingMap, ...]:
    """Oracle: every isomorphism fixing 0, by propagation from each image of 1.

    Sweeps the 2 * degree candidates (sigma(1) over ``e2.connection``,
    preserving before reversing), keeps those ``verify_map`` certifies, and
    drops repeats.  Independent of the root labellings the library uses.
    """
    if e1.v != e2.v or e1.t != e2.t:
        return ()
    cyc1 = cycle_from(e1.rho0, 1)
    rho2 = {PRESERVING: e2.rho0, REVERSING: mirror(e2).rho0}
    seen: dict[tuple[int, ...], EmbeddingMap] = {}
    for target in e2.connection:
        for kind in (PRESERVING, REVERSING):
            sigma = _propagate(e1.rho0, rho2[kind], cyc1, target)
            if sigma is not None:
                verdict = verify_map(e1, e2, sigma)
                if verdict is not None:
                    seen.setdefault(sigma, EmbeddingMap(sigma, verdict))
    return tuple(seen.values())


def cayley_map(v: int, t: int, cycle) -> CombinatorialEmbedding:
    """The embedding whose rotation at every vertex follows ``cycle``."""
    rho = [-1] * v
    for d, image in zip(cycle, cycle[1:] + cycle[:1]):
        rho[d] = image
    entry = frozenset(d for d in cycle if d < v - d)
    return CombinatorialEmbedding(v, t, tuple(rho), entry, None)


def random_cayley_maps(v: int, t: int, count: int, seed: int):
    """``count`` distinct embeddings with random rotations, seeded."""
    rng = random.Random(seed)
    connection = [d for d in range(v) if d % (v // t)]
    out: dict[tuple[int, ...], CombinatorialEmbedding] = {}
    while len(out) < count:
        rng.shuffle(connection)
        emb = cayley_map(v, t, list(connection))
        out.setdefault(emb.rho0, emb)
    return list(out.values())


def pairwise_classify(embeddings) -> dict:
    """Reference classifier: test each embedding against every class anchor.

    Uses only :func:`reference_isomorphisms`.  Returns the JSON dict
    ``classify`` must produce, with the same representative rule, caps and
    witnesses.
    """
    anchors: list[int] = []
    members: dict[int, list[int]] = {}
    for i, emb in enumerate(embeddings):
        for anchor in anchors:
            if reference_isomorphisms(emb, embeddings[anchor]):
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
        cap = min(2 * len(reference_isomorphisms(emb, emb)) * deg, 4 * deg * deg)
        if verify_map(emb, emb, translation(emb.v, 1)) == PRESERVING:
            cap = min(cap, 2 * deg * deg)
        classes.append({
            "representative": rep,
            "members": group,
            "witnesses": [reference_isomorphisms(embeddings[i], emb)[0].to_json_dict()
                          for i in group],
            "size": len(group),
            "cap": cap,
        })
    return {"total": len(embeddings), "class_count": len(classes),
            "classes": classes}


class TestAgainstPropagation:
    """The root-labelling maps equal the propagation oracle, order included."""

    @staticmethod
    def assert_maps_match(e1, e2) -> bool:
        expected = reference_isomorphisms(e1, e2)
        assert all_isomorphisms_fixing_zero(e1, e2) == expected
        assert find_isomorphism(e1, e2) == (expected[0] if expected else None)
        return bool(expected)

    def test_k31_with_mirrors_and_relabelings(self, k31_family):
        family = []
        for emb in k31_family[:3]:
            family += [emb, mirror(emb), unit_relabeling(emb, 3),
                       mirror(unit_relabeling(emb, 3))]
        for a in family:
            for b in family:
                self.assert_maps_match(a, b)
        for emb in family + k31_family:
            assert stabilizer(emb).elements == reference_isomorphisms(emb, emb)

    def test_all_solutions_of_3x3_arrays(self, z19_family, z21_family):
        for family in (z19_family, z21_family):
            assert len(family) == 24
            isomorphic = 0
            for i, a in enumerate(family):
                for b in family[i % 3::3]:
                    isomorphic += self.assert_maps_match(a, b) and a is not b
                assert stabilizer(a).elements == reference_isomorphisms(a, a)
            assert isomorphic > 0

    def test_subgroup_vertices_labelled_canonically(self, ex_array, ex_pair,
                                                    z21_family):
        # t > 1: the vertices of J \ {0} are numbered by the rotation at c
        for emb in (build_embedding(ex_array, *ex_pair), z21_family[0]):
            assert emb.t > 1
            for other in (unit_relabeling(emb, 2), mirror(unit_relabeling(emb, 5))):
                self.assert_maps_match(other, emb)

    def test_reflexible_rotation(self):
        # rho0(d) = the next element of the connection set: x -> -x reverses
        for v, t in ((7, 1), (9, 3)):
            emb = cayley_map(v, t, [d for d in range(v) if d % (v // t)])
            kinds = {m.kind for m in stabilizer(emb).elements}
            assert kinds == {PRESERVING, REVERSING}
            assert stabilizer(emb).elements == reference_isomorphisms(emb, emb)
            for u in (2, 5):
                other = unit_relabeling(emb, u)
                for a, b in ((emb, other), (other, emb), (mirror(other), emb)):
                    assert self.assert_maps_match(a, b)

    def test_random_rotations(self):
        # row 1 often ties roots that a later row separates
        for v, t in ((9, 3), (12, 2), (13, 1)):
            family = random_cayley_maps(v, t, 12, seed=v)
            for emb in family:
                assert stabilizer(emb).elements == reference_isomorphisms(emb, emb)
                for other in (unit_relabeling(emb, 5), mirror(emb)):
                    assert self.assert_maps_match(other, emb)
            for a in family:
                for b in family:
                    self.assert_maps_match(a, b)
            for emb in family[:4]:
                other = unit_relabeling(emb, 5)
                if all(other.rho0 != e.rho0 for e in family):
                    family.append(other)
            assert classify(family).to_json_dict() == pairwise_classify(family)

    def test_tied_roots_count_the_stabilizer(self, k31_family, z19_family,
                                             z21_family):
        sizes = {}
        for emb in k31_family + z19_family + z21_family:
            tied = len(stabilizer(emb).elements)
            assert tied == len(reference_isomorphisms(emb, emb))
            sizes.setdefault(emb.v, set()).add(tied)
        assert sizes == {31: {1}, 19: {1, 3}, 21: {1, 3}}

    def test_classification_of_3x3_arrays(self, z19_family, z21_family):
        for family in (z19_family, z21_family):
            result = classify(family)
            assert result.class_count == 8
            assert result.to_json_dict() == pairwise_classify(family)


def naive_verify_map(e1, e2, sigma):
    """Oracle for ``verify_map``: each oriented edge (x, d) of e1 in turn.

    sigma is an isomorphism when it sends every edge of e1 to an edge of e2
    (the degrees are equal, so it is then a graph isomorphism) and carries
    the rotation at x onto the rotation at sigma(x), or onto its inverse.
    """
    v = e1.v
    inverse2 = {b: a for a, b in enumerate(e2.rho0) if b >= 0}
    if len(e1.connection) != len(inverse2):
        return None
    pres = rev = True
    for x in range(v):
        for d in e1.connection:
            diff = (sigma[(x + d) % v] - sigma[x]) % v
            if diff not in inverse2:
                return None  # not even a graph isomorphism
            image = (sigma[(x + e1.rho0[d]) % v] - sigma[x]) % v
            pres = pres and image == e2.rho0[diff]
            rev = rev and image == inverse2[diff]
    return PRESERVING if pres else REVERSING if rev else None


def general_verify_map(e1, e2, sigma):
    """Oracle for ``verify_map``'s multiplier path: the check it makes of any
    other map, on all v * degree oriented edges."""
    v = e1.v
    S = list(sigma)
    identity = list(range(v))
    wrap = [*identity, *identity, *[-1] * v]
    rho2 = [2 * v if r < 0 else r for r in e2.rho0]
    rho2_inv = [2 * v if r < 0 else r for r in inverse(e2.rho0)]
    S2 = S + S
    pres = rev = True
    for d in e1.connection:
        ends = S2[d:d + v]
        r = e1.rho0[d]
        lhs = S2[r:r + v]
        if pres and lhs != [wrap[b + rho2[wrap[a - b + v]]] for a, b in zip(ends, S)]:
            pres = False
        if rev and lhs != [wrap[b + rho2_inv[wrap[a - b + v]]] for a, b in zip(ends, S)]:
            rev = False
    return PRESERVING if pres else REVERSING if rev else None


@st.composite
def multiplier_cases(draw):
    """An embedding e1, a unit u of Z_v, a shift s != 0, and e2: e1 relabelled
    by u, that relabelling's mirror, or an unrelated embedding."""
    v, t = draw(st.sampled_from([(7, 1), (9, 3), (12, 2), (13, 1), (19, 1), (21, 3)]))
    e1, other = random_cayley_maps(v, t, 2, seed=draw(st.integers(0, 10 ** 6)))
    u = draw(st.sampled_from([u for u in range(1, v) if gcd(u, v) == 1]))
    relabelled = unit_relabeling(e1, u)
    e2 = draw(st.sampled_from([relabelled, mirror(relabelled), other]))
    return e1, e2, u, draw(st.integers(1, v - 1))


class TestVerifyMap:
    def test_matches_naive_oracle(self, k19, z19_family, z21_family, k31_family):
        rng = random.Random(8)
        pairs = [
            (k19, k19), (k19, mirror(k19)), (k19, unit_relabeling(k19, 2)),
            *zip(z19_family[::4], z19_family[1::4]),
            *zip(z21_family[::4], z21_family[1::4]),
            (z21_family[0], z21_family[0]), (z21_family[0], mirror(z21_family[0])),
            (k31_family[0], k31_family[1]), (k31_family[2], mirror(k31_family[2])),
        ]
        verdicts = set()
        for e1, e2 in pairs:
            v = e1.v
            ident = tuple(range(v))
            maps = [
                ident,
                translation(v, 1),
                translation(v, v - 1),
                tuple((-x) % v for x in ident),
                *(tuple(u * x % v for x in ident) for u in (2, 3) if gcd(u, v) == 1),
                *(m.sigma for m in all_isomorphisms_fixing_zero(e1, e2)),
            ]
            for _ in range(4):
                shuffled = list(ident)
                rng.shuffle(shuffled)
                maps.append(tuple(shuffled))
                # a translation with two images swapped
                swapped = list(translation(v, rng.randrange(v)))
                i, j = rng.sample(range(v), 2)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                maps.append(tuple(swapped))
            for sigma in maps:
                want = naive_verify_map(e1, e2, sigma)
                assert verify_map(e1, e2, sigma) == want
                verdicts.add(want)
        assert verdicts == {PRESERVING, REVERSING, None}

    @settings(max_examples=150, deadline=None)
    @given(multiplier_cases())
    def test_multipliers_match_the_general_check(self, case):
        e1, e2, u, s = case
        v = e1.v
        multiplier = tuple(u * x % v for x in range(v))
        want = general_verify_map(e1, e2, multiplier)
        assert verify_map(e1, e2, multiplier) == want
        if e2.rho0 == unit_relabeling(e1, u).rho0:
            assert want == PRESERVING
        elif e2.rho0 == mirror(unit_relabeling(e1, u)).rho0:
            assert want == REVERSING
        # an affine map with s != 0 moves 0, so it is not a multiplier and
        # takes the general path; a translation keeps it an isomorphism
        affine = tuple((u * x + s) % v for x in range(v))
        assert verify_map(e1, e2, affine) == general_verify_map(e1, e2, affine) \
            == naive_verify_map(e1, e2, affine)

    def test_multiplier_verdicts_on_the_bundled_array(self, ex_array, ex_pair):
        # u = -1 maps the embedding onto its negation partner, reversing
        emb = build_embedding(ex_array, *ex_pair)
        v = emb.v
        for u in (1, 2, v - 1):
            sigma = tuple(u * x % v for x in range(v))
            for other in (unit_relabeling(emb, u), mirror(unit_relabeling(emb, u))):
                assert verify_map(emb, other, sigma) == general_verify_map(emb, other, sigma) \
                    == (PRESERVING if other.rho0 == unit_relabeling(emb, u).rho0 else REVERSING)

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

    def test_different_t_never_isomorphic(self):
        # Z_9 with t = 1 (degree 8) and t = 3 (degree 6), both ways, under
        # every multiplier and a map that is not one
        e1 = alternating_embedding(9, 1, [1, 2, 3, 4], [8, 7, 6, 5])
        e3 = alternating_embedding(9, 3, [1, 2, 4], [8, 7, 5])
        maps = [tuple(u * x % 9 for x in range(9)) for u in (1, 2, 4, 5, 7, 8)]
        for sigma in [*maps, translation(9, 1)]:
            assert verify_map(e1, e3, sigma) is None
            assert verify_map(e3, e1, sigma) is None

    def test_mismatched_moduli(self, k19, k31_family):
        with pytest.raises(ValueError, match="moduli"):
            verify_map(k19, k31_family[0], tuple(range(19)))

    def test_non_bijection_rejected(self, k19):
        for sigma in ((0,) * 19, tuple(range(18)), tuple(range(20))):
            with pytest.raises(ValueError, match="bijection"):
                verify_map(k19, k19, sigma)


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


def reference_rows_one(emb) -> dict:
    """Oracle: row 1 of each of the 2 * degree roots, keyed (reverses, lambda).

    The labelling of the root (c, rho) numbers 0, then the vertices met
    walking the rotation at 0 from c, then those not yet numbered met walking
    the rotation at c from 0; row 1 is that second walk in labels.
    """
    v, deg = emb.v, emb.degree()
    rows = {}
    for reverses, rho in ((False, emb.rho0), (True, mirror(emb).rho0)):
        for c in emb.connection:
            lam = [-1] * v
            lam[0] = 0
            d = c
            for label in range(1, deg + 1):
                lam[d] = label
                d = rho[d]
            fresh = deg + 1
            walk, d = [], (-c) % v
            for _ in range(deg):
                y = (c + d) % v
                if lam[y] < 0:
                    lam[y], fresh = fresh, fresh + 1
                walk.append(y)
                d = rho[d]
            assert -1 not in lam and fresh == v
            rows[reverses, tuple(lam)] = tuple(lam[y] for y in walk)
    return rows


class TestScreen:
    def test_row_one_and_tied_roots(self, k31_family, z21_family):
        # some random rotations tie several roots on row 1
        family = (k31_family[:4] + z21_family[:4] + random_cayley_maps(12, 2, 12, seed=12)
                  + random_cayley_maps(13, 1, 12, seed=13))
        several = 0
        for emb in family + [mirror(e) for e in family]:
            rows = reference_rows_one(emb)
            least = min(rows.values())
            screen = iso._screen(emb)
            assert screen.row == least
            assert {(r.reverses, r.lam) for r in screen.roots} == \
                {root for root, row in rows.items() if row == least}
            assert len(screen.roots) == len({r.lam for r in screen.roots})
            several += len(screen.roots) > 1
        assert several > 0

    def test_labellings_are_inverse_bijections(self, k19, z21_family):
        for emb in (k19, z21_family[0], random_cayley_maps(12, 2, 1, seed=1)[0]):
            for root in iso._screen(emb).roots:
                assert sorted(root.lam) == list(range(emb.v))
                assert all(root.inv[a] == x for x, a in enumerate(root.lam))


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
                assert compose(a.sigma, b.sigma) in sigmas

    def test_restriction_is_rotation_power(self, ex_array, ex_pair):
        emb = build_embedding(ex_array, *ex_pair)
        stab = stabilizer(emb)
        assert stab.size <= 2 * stab.degree
        cyc = cycle_from(emb.rho0, 1)
        L = len(cyc)
        for m in stab.elements:
            if m.kind != PRESERVING:
                continue
            shift = cyc.index(m.sigma[1])
            assert all(m.sigma[cyc[j]] == cyc[(j + shift) % L]
                       for j in range(L))


class TestPhi:
    def test_identity_phi(self, k19):
        ident = EmbeddingMap(tuple(range(k19.v)), PRESERVING)
        for g in (0, 3, 7):
            m = phi_map(ident, g, k19)
            assert m == ident

    def test_phi_lands_in_stabilizer(self, k19):
        other = unit_relabeling(k19, 2)
        sigma = find_isomorphism(k19, other)
        assert sigma is not None and sigma.sigma[0] == 0
        stab_sigmas = {m.sigma for m in stabilizer(other).elements}
        for g in (1, 2, 5):
            ph = phi_map(sigma, g, other)
            assert ph.sigma[0] == 0
            assert ph.sigma in stab_sigmas


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
                if phi_map(s1, 1, target).sigma != phi_map(s2, 1, target).sigma:
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

    def test_bucket_with_two_classes_is_split_by_certification(self, k31_family,
                                                               z19_family, monkeypatch):
        # one row 1 for every embedding: each bucket holds several classes,
        # and one round of certification per class splits them the same way
        a, b = k31_family[:2]
        assert find_isomorphism(a, b) is None
        families = ([a, b], z19_family)
        expected = [classify(f).to_json_dict() for f in families]
        screen, one_class = iso._screen, iso._class
        rounds = []
        monkeypatch.setattr(iso, "_screen", lambda emb: screen(emb)._replace(row=()))
        monkeypatch.setattr(iso, "_class",
                            lambda *args: rounds.append(args[1]) or one_class(*args))
        for family, want in zip(families, expected):
            rounds.clear()
            result = classify(family)
            assert result.to_json_dict() == want
            assert len(rounds) == want["class_count"]
            assert rounds[0] == list(range(len(family)))
        assert expected[0]["class_count"] == 2

    def test_buckets_holding_several_classes(self):
        # every Cayley map of Z_7 and of Z_8 with t = 2: some least rows 1
        # are shared by non-isomorphic maps
        for v, t, shared in ((7, 1, 2), (8, 2, 4)):
            connection = [d for d in range(v) if d % (v // t)]
            family = [cayley_map(v, t, [connection[0], *rest])
                      for rest in itertools.permutations(connection[1:])]
            assert len(family) == 120
            result = classify(family)
            assert result.to_json_dict() == pairwise_classify(family)
            row = [iso._screen(emb).row for emb in family]
            rows_of_classes = [{row[i] for i in c.members} for c in result.classes]
            assert all(len(rows) == 1 for rows in rows_of_classes)
            classes_per_row = Counter(rows.pop() for rows in rows_of_classes)
            assert sum(n > 1 for n in classes_per_row.values()) == shared

    def test_rejected_stabilizer_maps_abort(self, k31_family, monkeypatch):
        # with every derived map refused, no class fits under its cap
        monkeypatch.setattr(iso, "verify_map", lambda e1, e2, sigma: None)
        with pytest.raises(RuntimeError, match="above the provable cap"):
            classify(k31_family[:2])

    def test_class_may_reach_its_cap_but_not_pass_it(self, k31_family, monkeypatch):
        # one embedding repeated, with Aut_0 cut to its first map: the cap is
        # then 2 * degree = 60
        emb = k31_family[0]
        assert emb.degree() == 30
        isomorphisms = iso._isomorphisms
        monkeypatch.setattr(iso, "_isomorphisms",
                            lambda *args: itertools.islice(isomorphisms(*args), 1))
        screens = [iso._screen(emb)] * 61
        cls, rest = iso._class([emb] * 60, list(range(60)), screens)
        assert (cls.cap, len(cls.members), rest) == (60, 60, [])
        with pytest.raises(iso.ClassificationError, match="61 members, above the provable cap 60"):
            iso._class([emb] * 61, list(range(61)), screens)

    def test_bundled_array_trivial_rows(self, ex_array):
        # the 990 trivial-R embeddings over Z_207 are pairwise non-isomorphic
        sols = enumerate_solutions(ex_array.skeleton(), trivial_rows=True)
        family = build_embeddings(ex_array, [(p.rows, p.cols) for p in sols])
        result = classify(family)
        assert result.total == result.class_count == 990
        assert all(c.members == (c.representative,) for c in result.classes)
        # the cap min(2 * |Aut_0| * degree, 2 * degree^2) is 2 * degree
        # exactly when Aut_0 is trivial
        deg = family[0].degree()
        assert {c.cap for c in result.classes} == {2 * deg}
        assert {c.witnesses[0].sigma for c in result.classes} == {tuple(range(207))}

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
    """The coincident-diagonal lemma on rotation maps: distinct (array,
    solution) pairs of arrays sharing entries and skeleton give distinct
    rho0, the check ``pipeline`` makes on every run."""

    def test_certified_count_matches_rotation_hashes(self, h53_cyclic):
        sols = enumerate_solutions(h53_cyclic.skeleton(), trivial_rows=True)[:6]
        assert len(set(sols)) == 6
        embs = build_embeddings(h53_cyclic, [(p.rows, p.cols) for p in sols])
        assert len({e.rho0 for e in embs}) == 6

    def test_transpose_twin(self, h53_centered):
        a = h53_centered
        at = transpose(a)
        assert a.skeleton() == at.skeleton()
        assert sorted(entries(a)) == sorted(entries(at))
        if a == at:
            pytest.skip("searched array is transpose-symmetric")
        pair = enumerate_solutions(a.skeleton(), trivial_rows=True)[0]
        ea = build_embedding(a, pair.rows, pair.cols)
        eb = build_embedding(at, pair.rows, pair.cols)
        assert ea.rho0 != eb.rho0

    def test_classification_of_transpose_pair(self, h53_centered):
        a = h53_centered
        at = transpose(a)
        if a == at:
            pytest.skip("searched array is transpose-symmetric")
        pair = enumerate_solutions(a.skeleton(), trivial_rows=True)[0]
        ea = build_embedding(a, pair.rows, pair.cols)
        eb = build_embedding(at, pair.rows, pair.cols)
        result = classify([ea, eb])
        assert result.class_count in (1, 2)
