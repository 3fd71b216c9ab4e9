"""Rotation construction, face tracing, genus, and the biembedding report."""

import json
import signal
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heffter.cli import _dumps, _face_listing
from heffter.embedding import (
    COLUMN,
    ROW,
    CombinatorialEmbedding,
    EmbeddingSource,
    biembedding_report,
    build_embedding,
    build_embeddings,
    genus_formula,
)
from heffter.iso import PRESERVING, verify_map
from heffter.knight import enumerate_solutions
from heffter.pfarray import PartiallyFilledArray, parse_array
from heffter.validation import cycle_from, is_globally_simple, search_heffter

from conftest import (
    alternating_embedding,
    count_line_reads,
    cycles_table,
    directed_lines,
    reference_orderings,
    rotation_from_orderings,
)


def face_set_key(faces):
    return frozenset((vertices, color) for vertices, color, _ in faces)


def translated_faces(faces, v, g):
    """The faces over Z_v shifted by x -> x+g, each face written from its
    least rotation, the one the listing writes."""
    out = set()
    for vertices, color, _ in faces:
        verts = tuple((x + g) % v for x in vertices)
        out.add((min(verts[i:] + verts[:i] for i in range(len(verts))), color))
    return frozenset(out)


def listed_faces(emb):
    """Every face that ``_face_listing`` writes for ``emb``, read back as a
    (vertices, color, simple) tuple."""
    records = json.loads(_face_listing(emb, emb.v * len(emb.connection)))
    return tuple((tuple(r["vertices"]), r["color"], r["simple"]) for r in records)


def reference_faces(emb):
    """Faces as the orbits of next((x, y)) = (y, y + rho0(x - y)) on all v*C
    oriented edges, walked from the least unseen edge index x*C + i, each a
    (vertices, color, simple) tuple with its vertices from the least one."""
    v, conn = emb.v, emb.connection
    C = len(conn)
    index = {d: i for i, d in enumerate(conn)}
    succ = [((x + d) % v) * C + index[emb.rho0[(-d) % v]]
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
        faces.append((canonical, COLUMN if True in in_entry else ROW,
                      len(set(verts)) == len(verts)))
    return tuple(faces)


def reference_report_fields(emb, faces):
    """The report fields that depend on the faces, counted from ``faces``."""
    src = emb.source
    V, E, F = emb.v, emb.v * len(emb.connection) // 2, len(faces)
    return {
        "face_count": F,
        "row_faces": sum(color == ROW for _, color, _ in faces),
        "column_faces": sum(color == COLUMN for _, color, _ in faces),
        "row_lengths_ok": all(len(verts) == src.h for verts, color, _ in faces
                              if color == ROW),
        "column_lengths_ok": all(len(verts) == src.k for verts, color, _ in faces
                                 if color == COLUMN),
        "simple": all(simple for _, _, simple in faces),
        "genus_euler": (2 - (V - E + F)) // 2,
    }


def assert_report_matches(emb, faces):
    want = reference_report_fields(emb, faces)
    rep = biembedding_report(emb).to_json_dict()
    assert {key: rep[key] for key in want} == want


@st.composite
def alternating_embeddings(draw):
    """An alternating embedding of a shuffled entry class and a shuffled list
    of the negated entries."""
    v = draw(st.integers(3, 40))
    # v/2 must lie in J, else it is its own negative and no entry class exists
    t = draw(st.sampled_from([t for t in range(1, v)
                              if v % t == 0 and (v % 2 or t % 2 == 0)]))
    entries = [x if draw(st.booleans()) else v - x
               for x in range(1, (v + 1) // 2) if x % (v // t)]
    entries = draw(st.permutations(entries))
    negated = draw(st.permutations([v - x for x in entries]))
    return alternating_embedding(v, t, entries, negated)


@contextmanager
def within(seconds):
    """Fail with TimeoutError when the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def rho0_pairs_dict(v, t, table, entry_class):
    """The JSON dict of an embedding file listing the pairs where ``table`` is not -1."""
    return {"v": v, "t": t, "connection": [d for d in range(v) if d % (v // t)],
            "rho0": [[a, b] for a, b in enumerate(table) if b != -1],
            "entry_class": sorted(entry_class), "source": None}


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
    def test_golden_values(self, ex_embedding):
        rho0 = ex_embedding.rho0
        v = ex_embedding.v
        assert rho0[10] == (-55) % v   # negated row successor of 10
        assert rho0[(-10) % v] == 36   # column successor of 10
        assert len(cycle_from(rho0, 10)) == 198
        assert len(rho0) == v and sum(x >= 0 for x in rho0) == 198

    def test_entry_and_its_negative_refused(self):
        # 1 and 6 = -1 mod 7 both appear: rho0[6] would be set twice, and the
        # array is refused by validation before any rotation is built
        array = PartiallyFilledArray(1, 3, 7, 1, 1, ((1, 6, 2),))
        with pytest.raises(ValueError, match="fails validation"):
            build_embedding(array, (1,), (1, 1, 1))

    def test_square_never_fixes_a_point(self, ex_embedding):
        rho0 = ex_embedding.rho0
        assert all(rho0[rho0[a]] != a for a in range(len(rho0)) if rho0[a] >= 0)

    def test_alternates_between_entry_classes(self, ex_embedding):
        ec = ex_embedding.entry_class
        rho = ex_embedding.rho0
        for a in ex_embedding.connection:
            assert (a in ec) != (rho[a] in ec)


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

    def test_many_pairs_validate_once(self, h33, lambda2_array, monkeypatch):
        sols = enumerate_solutions(h33.skeleton())
        pairs = [(p.rows, p.cols) for p in sols]
        one_at_a_time = [build_embedding(h33, *pair) for pair in pairs]
        calls = count_line_reads(monkeypatch)
        assert build_embeddings(h33, pairs) == one_at_a_time
        assert calls == {"_natural_lines": 1, "_validate_lines": 1}
        with pytest.raises(ValueError, match="not compatible"):
            build_embeddings(h33, pairs[:1] + [((1,) * 3, (1,) * 3)])
        with pytest.raises(ValueError, match="fold"):
            build_embeddings(lambda2_array, [])

    def test_pairs_are_checked_as_they_are_read(self, h33):
        pairs = [(p.rows, p.cols) for p in enumerate_solutions(h33.skeleton())[:2]]
        one_shot = iter(pairs + [((1, 0, 1), (1, 1, 1))])
        with pytest.raises(ValueError, match="row direction vector must be ±1 of length 3"):
            build_embeddings(h33, one_shot)
        assert next(one_shot, None) is None

    def test_provenance(self, ex_embedding):
        src = ex_embedding.source
        assert (src.m, src.n, src.h, src.k) == (11, 11, 9, 9)
        assert src.cols[0] == -1

    def test_json_roundtrip(self, k19_embedding):
        text_dict = k19_embedding.to_json_dict()
        back = CombinatorialEmbedding.from_json_dict(text_dict)
        assert back == k19_embedding

    def test_rejects_broken_rotation(self, k19_embedding):
        conn = k19_embedding.connection
        table = list(cycles_table(19, [[x for x in conn if x > 2]]))
        table[1], table[2] = 2, 1  # the 2-cycle (1 2)
        with pytest.raises(ValueError, match="single cycle"):
            CombinatorialEmbedding(19, 1, tuple(table),
                                   k19_embedding.entry_class)

    def test_connection_is_derived_from_v_and_t(self, k19_embedding, ex_embedding):
        for e, step in [(k19_embedding, 19), (ex_embedding, 23)]:
            assert e.connection == tuple(d for d in range(e.v) if d % step)
            assert e.degree() == len(e.connection) == e.v - e.t
        # one tuple, shared by every embedding of the same (v, t)
        z21 = alternating_embedding(21, 3, [1, 2, 3, 4, 5, 6, 8, 9, 10],
                                    [20, 19, 18, 17, 16, 15, 13, 12, 11])
        assert z21.connection is alternating_embedding(
            21, 3, [1, 2, 3, 4, 5, 6, 8, 9, 10], [11, 12, 13, 15, 16, 17, 18, 19, 20]).connection
        assert "connection" not in CombinatorialEmbedding._fields

    @pytest.mark.parametrize("entries,message", [
        ([1, 2, 3, 4, 5, 6, 8, 9, 20], "contain one of each ± pair"),  # 1 and -1
        ([0, 2, 3, 4, 5, 6, 8, 9, 10], "lie inside the connection set"),
        ([7, 2, 3, 4, 5, 6, 8, 9, 10], "lie inside the connection set"),  # J = {0, 7, 14}
        ([22, 2, 3, 4, 5, 6, 8, 9, 10], "lie inside the connection set"),
        ([-20, 2, 3, 4, 5, 6, 8, 9, 10], "lie inside the connection set"),
        ([2, 3, 4, 5, 6, 8, 9, 10], "contain one of each ± pair"),
        ([1, 2, 3, 4, 5, 6, 8, 9, 10, 11], "contain one of each ± pair"),
    ], ids=["x and -x", "0 in J", "7 in J", ">= v", "negative", "too small", "too large"])
    def test_rejects_entry_class(self, entries, message):
        good = [1, 2, 3, 4, 5, 6, 8, 9, 10]
        e = alternating_embedding(21, 3, good, [21 - x for x in good])
        with pytest.raises(ValueError, match=f"^entry class must {message}$"):
            CombinatorialEmbedding(21, 3, e.rho0, frozenset(entries), e.source)


    # Z_7 \ J = 1..6; each table sends 1 to 2
    @pytest.mark.parametrize("table", [
        (-1, 2, 3, 4, 2, 6, 5),  # 1 2 3 4 2 ...: a cycle that misses 1
        (-1, 2, 1, 4, 5, 6, 3),  # (1 2)(3 4 5 6): the walk closes after 2 steps
        (-1, 2, 3, 9, 5, 6, 1),  # 3 -> 9, outside Z_7
        (-1, 2, 3, -1, 5, 6, 1),  # 3 -> -1
        (-1, 2, 3, 0, 5, 6, 1),  # 3 -> 0 in J, where rho0 is -1
    ], ids=["trapped", "two cycles", "out of range", "to -1", "into J"])
    def test_counted_walk_refuses(self, table):
        with within(5):
            with pytest.raises(ValueError, match="single cycle"):
                CombinatorialEmbedding(7, 1, table, frozenset({1, 2, 3}))
            # the file lists no image where the table is -1, and refuses 9 itself
            with pytest.raises(ValueError, match="single cycle|not in Z_7"):
                CombinatorialEmbedding.from_json_dict(rho0_pairs_dict(7, 1, table, {1, 2, 3}))

    def test_refused_entry_class_is_not_cached(self):
        cycle = (-1, 2, 3, 4, 5, 6, 1)
        good = CombinatorialEmbedding(7, 1, cycle, frozenset({1, 2, 3}))
        for bad, message in (({1, 2, 6}, "one of each"), ({1, 2}, "one of each"),
                             ({1, 2, 7}, "inside")):
            for _ in range(2):  # refused again after the first refusal
                with pytest.raises(ValueError, match=message):
                    CombinatorialEmbedding(7, 1, cycle, frozenset(bad))
                with pytest.raises(ValueError, match=message):
                    CombinatorialEmbedding.from_json_dict(rho0_pairs_dict(7, 1, cycle, bad))
            assert CombinatorialEmbedding(7, 1, cycle, frozenset({1, 2, 3})) == good

    def test_rotation_tables_match_the_line_orderings(self, h33, h53_cyclic):
        # full scans read every line both ways; against the table from the orderings
        for array in (h33, h53_cyclic):
            pairs = [(p.rows, p.cols) for p in enumerate_solutions(array.skeleton())]
            assert {-1, 1} <= {d for rows_dir, _ in pairs for d in rows_dir}
            for emb, (rows_dir, cols_dir) in zip(build_embeddings(array, pairs), pairs):
                ords = reference_orderings(array, rows_dir, cols_dir)
                assert emb.rho0 == rotation_from_orderings(array.v, *ords)
                assert (emb.source.rows, emb.source.cols) == (rows_dir, cols_dir)


class TestFaces:
    # the faces as the faces command lists them, against reference_faces
    def test_bundled_array_face_census(self, ex_embedding):
        faces = listed_faces(ex_embedding)
        assert len(faces) == 4554 == 207 * (11 + 11)
        assert sum(color == ROW for _, color, _ in faces) == 2277
        assert sum(color == COLUMN for _, color, _ in faces) == 2277
        assert {len(verts) for verts, _, _ in faces} == {9}
        assert all(simple for _, _, simple in faces)

    def test_k19_triangles(self, k19_embedding):
        faces = listed_faces(k19_embedding)
        assert len(faces) == 19 * 6
        assert {len(verts) for verts, _, _ in faces} == {3}
        assert all(simple for _, _, simple in faces)

    def test_boundary_differences_stay_in_class(self, k19_embedding):
        v = k19_embedding.v
        ec = k19_embedding.entry_class
        for verts, color, _ in listed_faces(k19_embedding):
            diffs = {(b - a) % v for a, b in zip(verts, verts[1:] + verts[:1])}
            assert diffs <= ec if color == COLUMN else diffs.isdisjoint(ec)

    def test_boundary_sums_vanish(self, k19_embedding):
        v = k19_embedding.v
        for verts, _, _ in listed_faces(k19_embedding):
            assert sum((b - a) % v for a, b in zip(verts, verts[1:] + verts[:1])) % v == 0

    def test_translation_permutes_faces(self, k19_embedding):
        faces = listed_faces(k19_embedding)
        key = face_set_key(faces)
        for g in (1, 5, 11):
            assert translated_faces(faces, k19_embedding.v, g) == key

    def test_canonical_rotation_starts_at_least_vertex(self, k19_embedding):
        for verts, _, _ in listed_faces(k19_embedding):
            assert verts[0] == min(verts)

    def test_column_faces_follow_column_orderings(self, ex_array, ex_pair,
                                                  ex_embedding):
        # the difference sequence around a column face is a rotation of one
        # column's ordering cycle; each of the 11 cycles carries v faces
        v = ex_array.v
        canonical = {}
        for cyc in directed_lines(ex_array, *ex_pair)[1]:
            lo = cyc.index(min(cyc))
            canonical[cyc[lo:] + cyc[:lo]] = 0
        assert len(canonical) == 11
        for verts, color, _ in listed_faces(ex_embedding):
            if color != COLUMN:
                continue
            diffs = tuple((b - a) % v for a, b in zip(verts, verts[1:] + verts[:1]))
            lo = diffs.index(min(diffs))
            key = diffs[lo:] + diffs[:lo]
            assert key in canonical
            canonical[key] += 1
        assert all(count == v for count in canonical.values())

    @pytest.mark.parametrize("name", ["ex_embedding", "k19_embedding"])
    def test_matches_reference(self, name, request):
        emb = request.getfixturevalue(name)
        assert listed_faces(emb) == reference_faces(emb)

    @settings(max_examples=150, deadline=None)
    @given(alternating_embeddings(), st.integers(0, 39))
    # two non-simple cycles of 2 translates, walks of 15 and 20 over Z_10
    # meeting values twice; at some of them the first visit does not start
    # the least rotation
    @example(alternating_embedding(10, 2, [7, 1, 6, 2], [4, 3, 8, 9]), 0)
    # a cycle with gcd(S, v) = 3 < 9 whose walk has two values above 9 - 3,
    # so three ranges of translates, each of one
    @example(alternating_embedding(9, 3, [1, 7, 4], [2, 5, 8]), 4)
    # the walk 0, 2, 4 of gcd(S, v) = 2 has no value above 6 - 2: the range of
    # its least value 0 holds both translates
    @example(alternating_embedding(6, 2, [1, 4], [5, 2]), 5)
    def test_random_rotations_match_reference(self, emb, g):
        faces = reference_faces(emb)
        assert listed_faces(emb) == faces
        assert_report_matches(emb, faces)
        # the report's z_v_regular, which it no longer checks at run time
        g %= emb.v
        tau_g = tuple((x + g) % emb.v for x in range(emb.v))
        assert verify_map(emb, emb, tau_g) == PRESERVING

    @settings(max_examples=100, deadline=None)
    @given(alternating_embeddings())
    @example(alternating_embedding(10, 2, [7, 1, 6, 2], [4, 3, 8, 9]))
    @example(alternating_embedding(9, 3, [1, 7, 4], [2, 5, 8]))
    @example(alternating_embedding(6, 2, [1, 4], [5, 2]))
    def test_listing_writes_the_traced_records(self, emb):
        # the faces command lists from the translate ranges; the bytes are
        # those of the records of the reference faces, non-simple ones
        # included, also when the listing stops short of them all
        faces = reference_faces(emb)
        for listed in sorted({0, 1, len(faces) - 1, len(faces)}):
            records = [{"vertices": list(verts), "color": color, "simple": simple}
                       for verts, color, simple in faces[:listed]]
            assert _face_listing(emb, listed) == _dumps(records, "\n  ")

    def test_mixed_rotation_raises(self, k19_embedding):
        # the connection set in ascending order: d -> rho0(-d) sends the
        # entry 2 to the negated entry 18
        e = k19_embedding
        mixed = CombinatorialEmbedding(
            e.v, e.t, cycles_table(e.v, [e.connection]),
            frozenset(range(1, 10)), e.source)
        for trace in (listed_faces, reference_faces, biembedding_report):
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
            k19_embedding.v, k19_embedding.t,
            k19_embedding.rho0, k19_embedding.entry_class, None)
        with pytest.raises(ValueError, match="source"):
            biembedding_report(bare)

    def test_euler_mismatch_fails(self, k19_embedding):
        # m = 5 in place of 3 keeps h and k but gives closed-form genus 1
        e = k19_embedding
        wrong_m = CombinatorialEmbedding(
            e.v, e.t, e.rho0, e.entry_class,
            EmbeddingSource(5, 3, 3, 3, "wrong m", (1,) * 5, (1,) * 3))
        rep = biembedding_report(wrong_m)
        assert rep.row_lengths_ok and rep.column_lengths_ok
        assert rep.genus_closed_form == 1 and rep.genus_euler == 20
        assert not rep.euler_consistent and not rep.passed

    @pytest.mark.parametrize("array_name, solutions", [
        ("5x5 t=1", 320), ("5x5 t=2", 320), ("5x5 t=3", 320), ("7x7 t=1", 3584),
        ("bundled", 4708), ("3x6 non-simple", 96),
    ])
    def test_every_solution_gives_one_report(self, request, array_name, solutions):
        # the report is the array's (biembedding_report's docstring): every
        # embedding of a full scan reports what embeddings[0] does, the face
        # counts m * v and n * v, and the simplicity of the natural lines,
        # also where a row is not simple
        if array_name == "bundled":
            array = request.getfixturevalue("ex_array")
        elif array_name == "3x6 non-simple":
            array = parse_array(NON_SIMPLE_3X6)
        else:
            n, t = int(array_name[0]), int(array_name[-1])
            array = search_heffter(n, n, 3, 3, t, limit=1, skeleton="cyclic")[0]
        embs = build_embeddings(array, enumerate_solutions(array.skeleton()))
        assert len(embs) == solutions
        reports = set(map(biembedding_report, embs))
        assert reports == {biembedding_report(embs[0])}
        (rep,) = reports
        assert rep.row_faces == array.m * array.v
        assert rep.column_faces == array.n * array.v
        assert rep.passed
        assert rep.simple == is_globally_simple(array) == (array_name != "3x6 non-simple")


# the first array a 3 x 6 search over Z_37 finds whose rows are not all
# simple: row 3's partial sums meet 12 twice
NON_SIMPLE_3X6 = """v=37 t=1 lambda=1 m=3 n=6
1,2,3,4,5,-15
6,16,-11,13,-14,-10
-7,-18,8,-17,9,-12
"""


class TestDistinctness:
    def test_distinct_solutions_distinct_rotations(self, h53_cyclic):
        sols = enumerate_solutions(h53_cyclic.skeleton(), trivial_rows=True)
        embs = [build_embedding(h53_cyclic, p.rows, p.cols) for p in sols]
        keys = {e.rho0 for e in embs}
        assert len(keys) == len(sols)

    def test_equal_orderings_equal_rotations(self, h53_cyclic):
        a = build_embedding(h53_cyclic, (1,) * 5, (-1, 1, 1, 1, 1))
        b = build_embedding(h53_cyclic, (1,) * 5, (-1, 1, 1, 1, 1))
        assert a.rho0 == b.rho0
