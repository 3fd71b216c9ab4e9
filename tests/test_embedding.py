"""Rotation construction, face tracing, genus, and the biembedding report."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heffter.embedding import (
    COLUMN,
    ROW,
    CombinatorialEmbedding,
    EmbeddingSource,
    Face,
    FaceSet,
    biembedding_report,
    build_embedding,
    build_rho0,
    face_set_key,
    genus_formula,
    trace_faces,
    translated_faces,
)
from heffter.knight import enumerate_solutions
from heffter.perm import Permutation
from heffter.validation import orderings_from_orientations, search_heffter


def reference_faces(emb):
    """Faces as the orbits of next((x, y)) = (y, y + rho0(x - y)) on all v*C
    oriented edges, walked from the least unseen edge index x*C + i."""
    v, conn = emb.v, emb.connection
    C = len(conn)
    index = {d: i for i, d in enumerate(conn)}
    succ = [((x + d) % v) * C + index[emb.rho0((-d) % v)]
            for x in range(v) for d in conn]
    seen = bytearray(len(succ))
    faces = []
    for e0 in range(len(succ)):
        if seen[e0]:
            continue
        orbit = []
        e = e0
        while not seen[e]:
            seen[e] = 1
            orbit.append(e)
            e = succ[e]
        verts = tuple(e // C for e in orbit)
        in_entry = {conn[e % C] in emb.entry_class for e in orbit}
        if len(in_entry) == 2:
            raise AssertionError(
                "face boundary mixes entry and negated-entry differences")
        canonical = min(verts[i:] + verts[:i] for i in range(len(verts)))
        faces.append(Face(canonical, COLUMN if True in in_entry else ROW,
                          len(set(verts)) == len(verts)))
    return FaceSet(v, tuple(faces))


def reference_report_fields(emb, faces):
    """The report fields that depend on the faces, counted from ``faces``."""
    src = emb.source
    V, E, F = emb.v, emb.v * len(emb.connection) // 2, faces.count
    return {
        "face_count": F,
        "row_faces": faces.count_color(ROW),
        "column_faces": faces.count_color(COLUMN),
        "row_lengths_ok": all(f.length == src.h for f in faces.faces
                              if f.color == ROW),
        "column_lengths_ok": all(f.length == src.k for f in faces.faces
                                 if f.color == COLUMN),
        "simple": faces.all_simple,
        "genus_euler": (2 - (V - E + F)) // 2,
    }


def assert_report_matches(emb, faces):
    want = reference_report_fields(emb, faces)
    rep = biembedding_report(emb).to_json_dict()
    assert {key: rep[key] for key in want} == want


@st.composite
def alternating_embeddings(draw):
    """A rotation alternating a shuffled entry class with a shuffled list of
    the negated entries: every difference cycle stays in one class, while its
    sum, and so the face length and simplicity, is arbitrary."""
    v = draw(st.integers(3, 40))
    # v/2 must lie in J, else it is its own negative and no entry class exists
    t = draw(st.sampled_from([t for t in range(1, v)
                              if v % t == 0 and (v % 2 or t % 2 == 0)]))
    conn = tuple(x for x in range(v) if x % (v // t))
    entries = [x if draw(st.booleans()) else v - x for x in conn if x < v - x]
    entries = draw(st.permutations(entries))
    negated = draw(st.permutations([v - x for x in entries]))
    cycle = [d for pair in zip(entries, negated) for d in pair]
    # m = n = 1, k = 3 keeps the closed-form genus defined (it is 1)
    source = EmbeddingSource(1, 1, 3, 3, "random", (1,), (1,))
    return CombinatorialEmbedding(v, t, conn, Permutation.from_cycles([cycle]),
                                  frozenset(entries), source)


@pytest.fixture(scope="module")
def ex_embedding(ex_array):
    return build_embedding(ex_array, (1,) * 11, (-1,) + (1,) * 10)


@pytest.fixture(scope="module")
def k19_embedding(h33):
    sols = enumerate_solutions(h33.skeleton())
    assert sols
    pair = sols[0]
    return build_embedding(h33, pair.rows, pair.cols)


class TestRho0:
    def test_golden_values(self, ex_array, ex_pair):
        ords = orderings_from_orientations(ex_array, *ex_pair)
        rho0 = build_rho0(ex_array, ords)
        v = ex_array.v
        assert rho0(10) == (-55) % v   # negated row successor of 10
        assert rho0((-10) % v) == 36   # column successor of 10
        assert rho0.is_single_cycle()
        assert len(rho0) == 198

    def test_square_never_fixes_a_point(self, ex_array, ex_pair):
        ords = orderings_from_orientations(ex_array, *ex_pair)
        rho0 = build_rho0(ex_array, ords)
        sq = rho0.compose(rho0)
        assert all(sq(a) != a for a in rho0)

    def test_alternates_between_entry_classes(self, ex_embedding):
        ec = ex_embedding.entry_class
        rho = ex_embedding.rho0
        for a in rho:
            assert (a in ec) != (rho(a) in ec)


class TestBuild:
    def test_non_solution_rejected(self, ex_array):
        with pytest.raises(ValueError, match="not compatible"):
            build_embedding(ex_array, (1,) * 11, (1,) * 11)

    def test_invalid_array_rejected(self, ex_array):
        cells = [list(r) for r in ex_array.cells]
        cells[0][0], cells[1][1] = cells[1][1], cells[0][0]
        from heffter.pfarray import PartiallyFilledArray

        broken = PartiallyFilledArray(11, 11, 207, 9, 1,
                                      tuple(tuple(r) for r in cells))
        with pytest.raises(ValueError, match="validation"):
            build_embedding(broken, (1,) * 11, (-1,) + (1,) * 10)

    def test_fold_two_rejected(self, lambda2_array):
        with pytest.raises(ValueError, match="fold"):
            build_embedding(lambda2_array, (1, 1), (1,) * 5)

    def test_provenance(self, ex_embedding):
        src = ex_embedding.source
        assert (src.m, src.n, src.h, src.k) == (11, 11, 9, 9)
        assert src.cols[0] == -1

    def test_json_roundtrip(self, k19_embedding):
        text_dict = k19_embedding.to_json_dict()
        back = CombinatorialEmbedding.from_json_dict(text_dict)
        assert back == k19_embedding

    def test_rejects_broken_rotation(self, k19_embedding):
        from heffter.perm import Permutation

        two_cycles = Permutation.from_cycles(
            [(1, 2), tuple(x for x in k19_embedding.connection if x > 2)])
        with pytest.raises(ValueError, match="single cycle"):
            CombinatorialEmbedding(19, 1, k19_embedding.connection, two_cycles,
                                   k19_embedding.entry_class)


class TestFaces:
    def test_bundled_array_face_census(self, ex_embedding):
        faces = trace_faces(ex_embedding)
        assert faces.count == 4554 == 207 * (11 + 11)
        assert faces.count_color(ROW) == 2277
        assert faces.count_color(COLUMN) == 2277
        assert {f.length for f in faces.faces} == {9}
        assert faces.all_simple

    def test_k19_triangles(self, k19_embedding):
        faces = trace_faces(k19_embedding)
        assert faces.count == 19 * 6
        assert {f.length for f in faces.faces} == {3}
        assert faces.all_simple

    def test_boundary_differences_stay_in_class(self, k19_embedding):
        v = k19_embedding.v
        ec = k19_embedding.entry_class
        for f in trace_faces(k19_embedding).faces:
            diffs = {(f.vertices[(i + 1) % f.length] - f.vertices[i]) % v
                     for i in range(f.length)}
            inside = diffs <= ec
            assert inside if f.color == COLUMN else diffs.isdisjoint(ec)

    def test_boundary_sums_vanish(self, k19_embedding):
        v = k19_embedding.v
        for f in trace_faces(k19_embedding).faces:
            diffs = [(f.vertices[(i + 1) % f.length] - f.vertices[i]) % v
                     for i in range(f.length)]
            assert sum(diffs) % v == 0

    def test_translation_permutes_faces(self, k19_embedding):
        faces = trace_faces(k19_embedding)
        key = face_set_key(faces)
        for g in (1, 5, 11):
            assert translated_faces(faces, g) == key

    def test_canonical_rotation_starts_at_least_vertex(self, k19_embedding):
        for f in trace_faces(k19_embedding).faces:
            assert f.vertices[0] == min(f.vertices)

    def test_column_faces_follow_column_orderings(self, ex_array, ex_pair,
                                                  ex_embedding):
        # the difference sequence around a column face is a rotation of one
        # column's ordering cycle; each of the 11 cycles carries v faces
        v = ex_array.v
        ords = orderings_from_orientations(ex_array, *ex_pair)
        canonical = {}
        for cyc in (tuple(c) for c in ords.col_perm.cycles()):
            lo = cyc.index(min(cyc))
            canonical[cyc[lo:] + cyc[:lo]] = 0
        assert len(canonical) == 11
        for f in trace_faces(ex_embedding).faces:
            if f.color != COLUMN:
                continue
            diffs = tuple(
                (f.vertices[(i + 1) % f.length] - f.vertices[i]) % v
                for i in range(f.length)
            )
            lo = diffs.index(min(diffs))
            key = diffs[lo:] + diffs[:lo]
            assert key in canonical
            canonical[key] += 1
        assert all(count == v for count in canonical.values())

    @pytest.mark.parametrize("name", ["ex_embedding", "k19_embedding"])
    def test_matches_reference(self, name, request):
        emb = request.getfixturevalue(name)
        assert trace_faces(emb) == reference_faces(emb)

    @settings(max_examples=150, deadline=None)
    @given(alternating_embeddings())
    def test_random_rotations_match_reference(self, emb):
        faces = reference_faces(emb)
        assert trace_faces(emb) == faces
        assert_report_matches(emb, faces)

    def test_mixed_rotation_raises(self, k19_embedding):
        # the connection set in ascending order: d -> rho0(-d) sends the
        # entry 2 to the negated entry 18
        e = k19_embedding
        mixed = CombinatorialEmbedding(
            e.v, e.t, e.connection, Permutation.from_cycles([e.connection]),
            frozenset(range(1, 10)), e.source)
        for trace in (trace_faces, reference_faces, biembedding_report):
            with pytest.raises(AssertionError, match="mixes"):
                trace(mixed)


class TestGenusAndReport:
    def test_closed_form_values(self):
        assert genus_formula(11, 11, 9, 9) == 7867
        assert genus_formula(3, 3, 3, 1) == 20
        assert genus_formula(1, 1, 3, 1) == 1  # nk - n - m - 1 = 0

    def test_half_integer_rejected(self):
        # (nk - n - m - 1) and 2nk + t both odd
        with pytest.raises(ValueError, match="half-integer"):
            genus_formula(1, 1, 2, 1)

    def test_bundled_array_report(self, ex_embedding):
        rep = biembedding_report(ex_embedding)
        assert rep.passed
        assert rep.face_count == 4554
        assert rep.genus_euler == rep.genus_closed_form == 7867
        assert rep.two_colorable and rep.simple and rep.z_v_regular

    def test_k19_report(self, k19_embedding):
        rep = biembedding_report(k19_embedding)
        assert rep.passed
        assert rep.genus_euler == 20
        # V - E + F = 19 - 171 + 114 = -38
        assert rep.face_count == 114

    def test_k31_report(self, h53_cyclic):
        pair = enumerate_solutions(h53_cyclic.skeleton(), trivial_rows=True)[0]
        rep = biembedding_report(build_embedding(h53_cyclic, pair.rows,
                                                 pair.cols))
        assert rep.passed
        # V - E + F = 31 - 465 + 310 = -124
        assert rep.face_count == 310
        assert rep.genus_euler == genus_formula(5, 5, 3, 1) == 63

    def test_report_matches_reference_faces(self, ex_embedding, k19_embedding,
                                            h53_cyclic):
        embs = [ex_embedding, k19_embedding]
        for array in [h53_cyclic] + search_heffter(7, 7, 3, 3, 1, limit=3,
                                                   skeleton="cyclic"):
            sols = enumerate_solutions(array.skeleton(), trivial_rows=True)
            embs += [build_embedding(array, p.rows, p.cols) for p in sols[:2]]
        for emb in embs:
            assert_report_matches(emb, reference_faces(emb))

    def test_report_requires_source(self, k19_embedding):
        bare = CombinatorialEmbedding(
            k19_embedding.v, k19_embedding.t, k19_embedding.connection,
            k19_embedding.rho0, k19_embedding.entry_class, None)
        with pytest.raises(ValueError, match="source"):
            biembedding_report(bare)


class TestDistinctness:
    def test_distinct_solutions_distinct_rotations(self, h53_cyclic):
        sols = enumerate_solutions(h53_cyclic.skeleton(), trivial_rows=True)
        embs = [build_embedding(h53_cyclic, p.rows, p.cols) for p in sols]
        keys = {e.rho0_key() for e in embs}
        assert len(keys) == len(sols)

    def test_equal_orderings_equal_rotations(self, h53_cyclic):
        a = build_embedding(h53_cyclic, (1,) * 5, (-1, 1, 1, 1, 1))
        b = build_embedding(h53_cyclic, (1,) * 5, (-1, 1, 1, 1, 1))
        assert a.rho0_key() == b.rho0_key()
