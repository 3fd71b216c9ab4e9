"""Exit codes, JSON determinism, and end-to-end subcommand behavior."""

import argparse
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import shlex
import shutil
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heffter
from heffter import kernels, knight
from heffter.cli import (COMMANDS, _dumps, _family_listing, _solution_listing, build_parser,
                         command_parser, main)
from heffter.embedding import build_embeddings
from heffter.iso import stabilizer, verify_map
from heffter.pfarray import Skeleton, cyclic_diagonal_skeleton, parse_array
from heffter.pipeline import MathFailure, run_pipeline

from conftest import count_line_reads, fixture_path

ARRAY = str(fixture_path("h9_11_9.arr"))
SKELETON = str(fixture_path("cr_6x6.skel.json"))
C_GOLDEN = "-1,1,1,1,1,1,1,1,1,1,1"
# A child's peak RSS in KB.  VmHWM starts afresh at exec, whereas ru_maxrss
# keeps the peak of the forked test process.
_PEAK_KB = ("peak = next(int(line.split()[1]) for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:'))")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def rebuilt_embeddings(run: Path) -> list:
    """The embeddings of a pipeline run, rebuilt by the library from its
    ``array.arr`` and ``solutions.json``."""
    array = parse_array((run / "array.arr").read_text())
    solutions = json.loads((run / "solutions.json").read_text())
    return build_embeddings(array, [(s["R"], s["C"]) for s in solutions])


def recertify(run: Path) -> None:
    """Check the classification of a pipeline run from its files alone.

    Every witness must pass ``verify_map`` onto its representative with its
    recorded kind, each class must keep within its cap, recomputed from the
    representative's stabilizer, and the members must partition the
    embeddings.  Raises AssertionError naming what fails.
    """
    embs = rebuilt_embeddings(run)
    data = json.loads((run / "classification.json").read_text())
    summary = json.loads((run / "summary.json").read_text())
    members = []
    for c in data["classes"]:
        rep = embs[c["representative"]]
        deg = rep.degree()
        cap = min(2 * stabilizer(rep).size * deg, 2 * deg * deg)
        assert len(c["members"]) == len(c["witnesses"]) == c["size"] <= c["cap"] == cap, \
            f"class of representative {c['representative']} breaks its cap"
        for i, witness in zip(c["members"], c["witnesses"]):
            assert verify_map(embs[i], rep, witness["sigma"]) == witness["kind"], \
                f"witness of member {i} is not certified"
        members += c["members"]
    assert sorted(members) == list(range(data["total"])) and data["total"] == len(embs), \
        "the members do not partition the embeddings"
    assert data["class_count"] == len(data["classes"]) == summary["classes"]["class_count"], \
        "class counts differ"


class TestVerify:
    def test_pass(self, capsys):
        code, data = run_json(capsys, "verify", ARRAY)
        assert code == 0
        assert data["passed"] and data["globally_simple"]
        assert data["h"] == 9

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.arr"
        empty.write_text("")
        assert main(["verify", str(empty)]) == 2

    def test_missing_file(self):
        assert main(["verify", "/nonexistent/nothing.arr"]) == 2

    def test_failing_array_exits_one(self, tmp_path, capsys, ex_array):
        cells = [list(r) for r in ex_array.cells]
        cells[0][0], cells[1][1] = cells[1][1], cells[0][0]
        from heffter.pfarray import PartiallyFilledArray

        broken = PartiallyFilledArray(11, 11, 207, 9, 1,
                                      tuple(tuple(r) for r in cells))
        p = tmp_path / "broken.arr"
        p.write_text(broken.to_text())
        code, data = run_json(capsys, "verify", str(p))
        assert code == 1 and not data["passed"]

    def test_support_errors(self, tmp_path, capsys):
        # lambda = 1: -55 in place of 10 uses the class ±55 twice and ±10 not at all
        lines = Path(ARRAY).read_text().splitlines()
        assert lines[1].startswith("10,55,")
        lines[1] = "-55" + lines[1][2:]
        p = tmp_path / "twice.arr"
        p.write_text("\n".join(lines) + "\n")
        code, data = run_json(capsys, "verify", str(p))
        assert code == 1 and data["support_ok"] is False
        assert data["support_errors"] == ["class ±10: appears 0 times, expected 1",
                                          "class ±55: appears 2 times, expected 1"]
        # lambda = 2: the bundled file passes; -4 in place of -5 hits 4 and 7
        # three times and 5 and 6 once
        code, data = run_json(capsys, "verify", str(fixture_path("lambda2_2x5.arr")))
        assert code == 0 and data["support_errors"] == []
        p = tmp_path / "fold2.arr"
        p.write_text("v=11 t=1 lambda=2 m=2 n=5\n1,-2,3,4,5\n-1,2,-3,-4,-4\n")
        code, data = run_json(capsys, "verify", str(p))
        assert code == 1
        assert data["support_errors"] == [
            f"element {x}: signed support hits it {n} times, expected 2"
            for x, n in ((4, 3), (5, 1), (6, 1), (7, 3))]


class TestTour:
    def test_golden_pair(self, capsys):
        code, data = run_json(capsys, "tour", ARRAY, "--C", C_GOLDEN)
        assert code == 0
        assert data["covers_all"] and data["period"] == 99

    def test_cells_flag(self, capsys):
        code, data = run_json(capsys, "tour", ARRAY, "--C", C_GOLDEN,
                              "--start", "1,1", "--cells")
        assert code == 0
        assert data["cells"][0] == [1, 1] and data["cells"][1] == [2, 2]

    def test_non_solution_exits_one(self, capsys):
        code, data = run_json(capsys, "tour", ARRAY)
        assert code == 1 and not data["covers_all"]

    def test_skeleton_input(self, capsys):
        code, data = run_json(capsys, "tour", SKELETON)
        assert code in (0, 1)
        assert data["filled"] == 24

    def test_bad_direction_vector(self, capsys):
        assert main(["tour", ARRAY, "--C", "1,2,3"]) == 2


@st.composite
def _skeletons(draw):
    """Cyclic k-diagonal skeletons, which take the symmetric scan, and others,
    m != n among them; n runs over 1, 2, odd and even."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        return cyclic_diagonal_skeleton(n, draw(st.integers(1, n)))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    # every row and every column holds a filled cell
    cells = {(i, (i - 1) % n + 1) for i in range(1, m + 1)}
    cells |= {((j - 1) % m + 1, j) for j in range(1, n + 1)}
    cells |= draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, n)), max_size=8))
    return Skeleton(m, n, frozenset(cells))


# the two cells of the 2x2 diagonal each make a tour of their own
_NO_SOLUTION = Skeleton(2, 2, frozenset({(1, 1), (2, 2)}))


class TestEnumAndFamilies:
    @settings(max_examples=80, deadline=None)
    @given(_skeletons(), st.booleans(), st.sampled_from([1, 2, 4096]))
    @example(_NO_SOLUTION, False, 4096)
    @example(cyclic_diagonal_skeleton(1, 1), False, 1)
    def test_enum_listing_is_the_pair_records(self, skel, trivial_rows, chunk):
        pairs = kernels.scan_orientations(skel, trivial_rows, 1 << 20)
        sols = knight.enumerate_solutions(skel, trivial_rows=trivial_rows)
        pieces = list(_solution_listing(skel.m, skel.n, pairs, chunk))
        assert "".join(pieces) == _dumps([p.to_json_dict() for p in sols], "\n  ")
        # the records come a chunk at a time, then the closing bracket
        assert [piece.count('"C"') for piece in pieces[:-1]] == \
            [min(chunk, len(pairs) - start) for start in range(0, len(pairs), chunk)]

    def test_enum_without_solutions_lists_none(self, tmp_path, capsys):
        path = tmp_path / "diag2.json"
        path.write_text(json.dumps(_NO_SOLUTION.to_json_dict()))
        for flags in ([], ["--trivial-R"]):
            code, data = run_json(capsys, "tour-enum", str(path), *flags)
            assert code == 1 and data["count"] == 0 and data["solutions"] == []

    def test_enum_trivial(self, tmp_path, capsys):
        skel = tmp_path / "c53.json"
        skel.write_text(json.dumps(cyclic_diagonal_skeleton(5, 3).to_json_dict()))
        code, data = run_json(capsys, "tour-enum", str(skel), "--trivial-R")
        assert code == 0 and data["count"] == 20
        assert all(set(s["R"]) == {1} for s in data["solutions"])

    def test_enum_budget(self, capsys):
        assert main(["tour-enum", ARRAY, "--budget", "16"]) == 2

    @pytest.mark.parametrize("text", [
        "v=7 t=1 m=2 n=2\n,\n,\n",
        json.dumps({"v": 7, "t": 1, "m": 2, "n": 2, "cells": [[None, None], [None, None]]}),
    ], ids=["text", "json"])
    def test_enum_of_an_empty_array_is_a_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "empty.arr"
        path.write_text(text)
        assert main(["tour-enum", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: empty skeleton\n")

    def test_family(self, capsys):
        code, data = run_json(capsys, "tour-family", "--family", "3diag",
                              "--n", "5")
        assert code == 0
        assert data["census"] == 28 and data["emitted"] == 28

    def test_family_limit_and_aliases(self, capsys):
        code, data = run_json(capsys, "tour-family", "--family", "PairsGeneral",
                              "--n", "11", "--k", "5", "--i", "3", "--s1", "2",
                              "--limit", "5")
        assert code == 0 and data["emitted"] == 5

    def test_family_limit_zero_emits_none(self, capsys):
        code, data = run_json(capsys, "tour-family", "--family", "3diag",
                              "--n", "9", "--limit", "0")
        assert code == 0
        assert data["census"] == 124 and data["emitted"] == 0
        assert data["solutions"] == []

    @pytest.mark.parametrize("limit", [None, 0, 1, 5])
    def test_family_streams_the_bytes_of_dumps(self, capsys, limit):
        # 8188 pairs, more than one chunk of the listing
        argv = ["tour-family", "--family", "3diag", "--n", "21"]
        code, out = run(capsys, *argv, *([] if limit is None else ["--limit", str(limit)]))
        family = knight.build_family("ThreeDiag", n=21)
        assert family.census() == 8188
        pairs = list(itertools.islice(family, limit))
        data = {"spec": family.spec.to_json_dict(), "census": family.census(),
                "emitted": len(pairs), "solutions": [p.to_json_dict() for p in pairs]}
        assert code == 0 and out == _dumps(data) + "\n"

    def test_family_text_counts_without_listing(self, capsys):
        assert run(capsys, "tour-family", "--family", "3diag", "--n", "9", "--text") == \
            (0, "census=124 emitted=124\n")
        assert run(capsys, "tour-family", "--family", "3diag", "--n", "9", "--text",
                   "--limit", "200") == (0, "census=124 emitted=124\n")

    def test_family_prints_in_bounded_memory(self):
        # 65532 pairs, 56 MB of JSON: the whole text would take several times that
        src = str(Path(heffter.__file__).resolve().parent.parent)
        script = ("import sys\n"
                  "from heffter.cli import main\n"
                  "code = main(['tour-family', '--family', '3diag', '--n', '27'])\n"
                  f"{_PEAK_KB}\n"
                  "print(code, peak, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        code, peak_kb = map(int, proc.stderr.split())
        assert code == 0 and peak_kb < 100 * 1024

    def test_family_missing_param(self, capsys):
        assert main(["tour-family", "--family", "power2", "--n", "21"]) == 2

    def test_family_rejects_stray_r(self, capsys):
        assert main(["tour-family", "--family", "3diag", "--n", "5",
                     "--r", "2"]) == 2
        assert main(["tour-family", "--family", "bogus", "--n", "5"]) == 2

    @pytest.mark.parametrize("argv", [
        "--family 3diag --n 9 --k 5",
        "--family 3diag --n 9 --i 3",
        "--family 3diag --n 9 --s1 2",
        "--family k7 --n 9 --k 5",
        "--family power2 --n 21 --k 5 --i 3",
        "--family prime --n 41 --k 5 --s1 2",
        "--family pairs --n 11 --k 5 --i 3 --s1 2 --r 2",
    ])
    def test_family_rejects_options_it_does_not_take(self, capsys, argv):
        assert main(["tour-family", *argv.split(), "--text"]) == 2
        captured = capsys.readouterr()
        option = argv.split()[-2]
        assert captured.out == ""
        assert captured.err.endswith(f" does not take {option}\n")
        assert captured.err.count("\n") == 1


class TestEmbedFacesIso:
    @pytest.fixture()
    def solution_file(self, tmp_path):
        p = tmp_path / "sol.json"
        p.write_text(json.dumps({"R": [1] * 11,
                                 "C": [-1] + [1] * 10}))
        return str(p)

    def test_embed_report(self, capsys, solution_file):
        code, data = run_json(capsys, "embed", "--array", ARRAY,
                              "--solution", solution_file)
        assert code == 0
        assert data["passed"] and data["face_count"] == 4554
        assert data["genus_euler"] == 7867

    def test_embed_save_and_iso(self, tmp_path, capsys, solution_file):
        saved = tmp_path / "emb.json"
        code, _ = run_json(capsys, "embed", "--array", ARRAY,
                           "--solution", solution_file, "--save", str(saved))
        assert code == 0
        # one line of compact JSON, sorted keys: the bytes must not drift
        assert hashlib.sha256(saved.read_bytes()).hexdigest() == \
            "d3acf07b46a30858457e828ed5b6c735e0a6f55105b36a2df0f44462eb859e7a"
        code, data = run_json(capsys, "iso", str(saved), str(saved))
        assert code == 0 and data["isomorphic"]
        assert data["map"]["sigma"][:3] == [0, 1, 2]

    def test_embed_non_solution(self, tmp_path, capsys):
        p = tmp_path / "sol.json"
        p.write_text(json.dumps({"R": [1] * 11, "C": [1] * 11}))
        assert main(["embed", "--array", ARRAY, "--solution", str(p)]) == 1

    @pytest.mark.parametrize("sol,message", [
        ({"R": [0] + [1] * 10, "C": [1] * 11}, "row direction vector must be ±1"),
        ({"R": [1] * 11, "C": [1] * 10}, "solution shape does not match the array"),
        ({"R": [], "C": []}, "solution shape does not match the array"),
        ({"R": [1] * 11, "C": [-1] + [1] * 10, "E": []},
         "bad solution file: E is not the positions of -1 in C"),
    ], ids=["zero entry", "short C", "empty", "E not C's"])
    def test_embed_malformed_pair_is_a_usage_error(self, tmp_path, capsys, sol, message):
        p = tmp_path / "sol.json"
        p.write_text(json.dumps(sol))
        assert main(["embed", "--array", ARRAY, "--solution", str(p)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["embed", "faces"])
    @pytest.mark.parametrize("rows, what", [([1.9] + [1] * 9 + ["1"], "row"),
                                            ([1] * 11, "column")])
    def test_solution_entries_are_int_directions(self, tmp_path, capsys, command, rows, what):
        # 1.9, "1", -1.5 and true are not directions, though int() takes them
        p = tmp_path / "sol.json"
        p.write_text(json.dumps({"R": rows, "C": [-1.5] + [1] * 9 + [True]}))
        assert main([command, "--array", ARRAY, "--solution", str(p), "--text"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad solution file: {what} direction vector must be ±1" in captured.err

    @pytest.mark.parametrize("command", ["embed", "faces"])
    def test_solution_e_is_optional_and_checked(self, tmp_path, capsys, solution_file,
                                                command):
        # the fixture's record has no E; C's one -1 is at position 1
        argv = [command, "--array", ARRAY, "--solution"]
        record = json.loads(Path(solution_file).read_text())
        p = tmp_path / "sol_e.json"
        p.write_text(json.dumps({**record, "E": [1]}))
        assert run(capsys, *argv, str(p)) == run(capsys, *argv, solution_file)
        p.write_text(json.dumps({**record, "E": [2]}))
        assert main([*argv, str(p)]) == 2
        assert capsys.readouterr() == ("", f"error: {p}: bad solution file: "
                                           "E is not the positions of -1 in C\n")

    def test_faces_guarded(self, capsys, solution_file):
        code, data = run_json(capsys, "faces", "--array", ARRAY,
                              "--solution", solution_file)
        assert code == 0
        assert data["count"] == 4554 and data["listed"] == 64

    def test_faces_all(self, capsys, solution_file):
        code, data = run_json(capsys, "faces", "--array", ARRAY,
                              "--solution", solution_file, "--all")
        assert data["listed"] == 4554
        assert all(len(f["vertices"]) == 9 for f in data["faces"][:20])

    def test_listings_are_pinned(self, capsys, solution_file):
        # sha256 of the two long listings' stdout: the bytes must not drift
        # from one version to the next
        code, faces = run(capsys, "faces", "--array", ARRAY,
                          "--solution", solution_file, "--all")
        assert code == 0
        code, solutions = run(capsys, "tour-enum", ARRAY, "--trivial-R")
        assert code == 0
        # the full scan: 4708 solutions over several row vectors
        code, full = run(capsys, "tour-enum", ARRAY)
        assert code == 0
        assert {name: hashlib.sha256(text.encode()).hexdigest()
                for name, text in [("faces", faces), ("tour-enum", solutions),
                                   ("tour-enum full", full)]} == {
            "faces": "cd1438a73af6cd01d72ba21a2b6eda71fb03e4d07a43c704e5b09a8f4e6a8565",
            "tour-enum": "775ffa34d3c43308cfa4ff575e4c2dfce04cc628ab01187f6dadb8f677f7be78",
            "tour-enum full": "4cf819a218309155f74fdcd950e0ea988e1ab26462ebd4cd85de4646b90e35c4",
        }

    def test_faces_text_traces_no_faces(self, monkeypatch, capsys, solution_file):
        from heffter import embedding

        def refuse(*args):
            raise AssertionError("faces --text traced the faces")

        # neither the faces' translate ranges nor their records
        monkeypatch.setattr(embedding, "_face_ranges", refuse)
        monkeypatch.setattr(heffter.cli, "_face_listing", refuse)
        for flags, line in [(["--all"], "count=4554 listed=4554\n"),
                            ([], "count=4554 listed=64\n"),
                            (["--max-faces", "5000"], "count=4554 listed=4554\n"),
                            (["--max-faces", "0"], "count=4554 listed=0\n")]:
            assert run(capsys, "faces", "--array", ARRAY, "--solution", solution_file,
                       "--text", *flags) == (0, line)

    def test_tour_enum_text_builds_no_records(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("tour-enum --text built the records")

        # the scan still runs, for the count
        monkeypatch.setattr(heffter.cli, "_solution_listing", refuse)
        assert run(capsys, "tour-enum", ARRAY, "--trivial-R", "--text") == (0, "count=990\n")

    @pytest.mark.parametrize("command", ["embed", "faces"])
    def test_array_is_validated_once(self, monkeypatch, capsys, solution_file, command):
        calls = count_line_reads(monkeypatch)
        assert main([command, "--array", ARRAY, "--solution", solution_file]) == 0
        assert calls == {"_natural_lines": 1, "_validate_lines": 1}


def k7_embedding(rho0) -> str:
    """An embedding file over Z_7 with the given rho0 pairs.

    ``K7_RHO0`` is one cycle 1 -> 2 -> ... -> 6 -> 1, so the file is valid;
    each malformed variant below changes only its rho0."""
    return json.dumps({"v": 7, "t": 1, "connection": [1, 2, 3, 4, 5, 6],
                       "rho0": rho0, "entry_class": [1, 2, 4]})


K7_RHO0 = [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1]]
NESTED = "[" * 100000 + "]" * 100000  # JSON nested past the recursion limit


class TestIsoClassifyInput:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        from heffter.embedding import build_embedding
        from heffter.knight import enumerate_solutions
        from heffter.validation import search_heffter

        array = search_heffter(3, 3, 3, 3, 1, limit=1)[0]
        pair = enumerate_solutions(array.skeleton())[0]
        data = build_embedding(array, pair.rows, pair.cols).to_json_dict()
        path = tmp_path_factory.mktemp("emb") / "good.json"
        path.write_text(json.dumps(data))
        return path, data

    @pytest.mark.parametrize("text", [
        "{not json",
        "[1, 2, 3]",
        '{"v": 19}',
        '{"v": 19, "t": 0, "connection": [], "rho0": [], "entry_class": []}',
        '{"v": 1e400, "t": 1, "connection": [], "rho0": [], "entry_class": []}',
        k7_embedding(K7_RHO0[:5] + [[13, 1]]),  # difference >= v
        k7_embedding(K7_RHO0[:5] + [[-1, 1]]),  # negative difference
        k7_embedding(K7_RHO0[:5] + [[6, -6]]),  # negative image
        k7_embedding(K7_RHO0[:5] + [[6, 0]]),  # image inside J
        k7_embedding([[1, 2], [1, 3]] + K7_RHO0[2:]),  # difference listed twice
        k7_embedding(K7_RHO0 + [[6, 1]]),  # pair listed twice
        k7_embedding(K7_RHO0 + [[0, 1]]),  # difference inside J
        # far beyond the rho0 pairs given: must fail before a table of size v
        '{"v": 1000000000000000, "t": 1, "connection": [1], "rho0": [[1, 1]], '
        '"entry_class": []}',
        pytest.param(NESTED, id="nested-past-recursion-limit"),
    ])
    def test_malformed_embedding(self, tmp_path, capsys, saved, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["iso", str(saved[0]), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert main(["classify", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not an embedding file: ")
        assert err.count("\n") == 1

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        """A pipeline run: the 3x3 array over Z_19 and its 24 tour solutions."""
        out = tmp_path_factory.mktemp("pipeline") / "run"
        assert main(["pipeline", "--search", "3,3,3,3,1", "--out", str(out)]) == 0
        return out

    def classify_damaged(self, capsys, run_dir, tmp_path, name, raw):
        """Exit code and stderr of classify on a copy of ``run_dir`` whose file
        ``name`` holds ``raw``, or is missing when ``raw`` is None."""
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        if raw is None:
            (run / name).unlink()
        else:
            (run / name).write_bytes(raw)
        capsys.readouterr()
        code = main(["classify", str(run)])
        return code, capsys.readouterr().err

    def test_run_dir_is_classified_as_pipeline_did(self, capsys, run_dir):
        code, out = run(capsys, "classify", str(run_dir))
        assert code == 0
        data = json.loads(out)
        # classes and witnesses are nested records, written by _cells
        assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"
        classification = json.loads((run_dir / "classification.json").read_text())
        assert {key: data[key] for key in classification} == classification
        assert data["files"] == [f"solutions.json:{i}" for i in range(24)]

    def test_run_dir_records_need_no_e(self, tmp_path, capsys, run_dir):
        stripped = tmp_path / "run"
        shutil.copytree(run_dir, stripped)
        solutions = json.loads((stripped / "solutions.json").read_text())
        assert all("E" in s for s in solutions)
        (stripped / "solutions.json").write_text(
            json.dumps([{"R": s["R"], "C": s["C"]} for s in solutions]))
        assert run(capsys, "classify", str(stripped)) == run(capsys, "classify", str(run_dir))

    @pytest.mark.parametrize("name,text,message", [
        ("solutions.json", "{not json", "JSONDecodeError"),
        ("solutions.json", '{"R": [1, 1, 1]}', "TypeError"),
        ("solutions.json", "[1, 2, 3]", "TypeError"),
        ("solutions.json", '[{"R": [1, 1, 1], "E": []}]', "KeyError: 'C'"),
        ("solutions.json", '[{"R": [1, 1, 1], "C": 3, "E": []}]', "TypeError"),
        ("solutions.json", '[{"R": [1, 1], "C": [1, 1, -1], "E": [3]}]',
         "row direction vector must be ±1 of length 3"),
        ("solutions.json", '[{"R": [1, 1, 1], "C": [1, 1, -1, 1], "E": [3]}]',
         "column direction vector must be ±1 of length 3"),
        ("solutions.json", '[{"R": [1, 0, 1], "C": [1, 1, -1], "E": [3]}]',
         "row direction vector must be ±1"),
        ("solutions.json", '[{"R": [1, 1, 1.0], "C": [1, 1, -1], "E": [3]}]',
         "row direction vector must be ±1"),
        ("solutions.json", '[{"R": [1, 1, 1], "C": [1, 1, 1], "E": []}]',
         "(R, C) is not a tour solution"),
        ("solutions.json", '[{"R": [1, 1, 1], "C": [1, 1, -1], "E": []}]',
         "E is not the positions of -1 in C"),
        ("solutions.json", '[{"R": [1, 1, 1], "C": [1, 1, -1], "E": [3]}, '
                           '{"R": [1, 1, 1], "C": [1, 1, -1], "E": [3]}]', "duplicate"),
        ("solutions.json", NESTED, "RecursionError"),
        ("array.arr", "v=19 t=1 lambda=1 m=3 n=3\n1,3\n", ""),
        ("array.arr", "v=19 t=1 lambda=1 m=3 n=3\n1,3,4\n7,2,-9\n-8,-5,-6\n",
         "not a Heffter array of fold 1"),
    ], ids=["not json", "not a list", "not records", "no C", "C not a list", "short R",
            "long C", "zero entry", "float entry", "not a solution", "E not C's",
            "duplicate", "nested-past-recursion-limit", "array not parsed",
            "array not Heffter"])
    def test_malformed_run_dir(self, tmp_path, capsys, run_dir, name, text, message):
        code, err = self.classify_damaged(capsys, run_dir, tmp_path, name, text.encode())
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'run' / name}: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("name,raw", [
        ("solutions.json", b""), ("solutions.json", b"\n \n"), ("solutions.json", b"\xff\n"),
        ("solutions.json", None), ("array.arr", None),
    ], ids=["empty", "blank lines", "not utf-8", "no solutions", "no array"])
    def test_unreadable_run_file(self, tmp_path, capsys, run_dir, name, raw):
        code, err = self.classify_damaged(capsys, run_dir, tmp_path, name, raw)
        assert code == 2
        assert err.startswith("error: ") and str(tmp_path / "run" / name) in err
        assert err.count("\n") == 1

    def test_k7_base_is_valid(self, tmp_path, capsys):
        good = tmp_path / "k7.json"
        good.write_text(k7_embedding(K7_RHO0))
        assert main(["iso", str(good), str(good)]) == 0

    def test_connection_is_read_in_any_order(self, tmp_path, capsys, saved):
        from heffter.embedding import CombinatorialEmbedding

        path, data = saved
        descending = tmp_path / "descending.json"
        descending.write_text(json.dumps(dict(data, connection=data["connection"][::-1])))
        back = CombinatorialEmbedding.from_json(descending.read_text())
        assert back == CombinatorialEmbedding.from_json(path.read_text())
        assert list(back.connection) == data["connection"] == sorted(data["connection"])
        code, out = run_json(capsys, "iso", str(path), str(descending))
        assert code == 0
        assert out["map"] == {"kind": "preserving", "sigma": list(range(data["v"]))}

    @pytest.mark.parametrize("connection", [
        [1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6, 6], [0, 1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 7],
    ], ids=["missing", "repeated", "with J", "past v"])
    def test_connection_must_be_the_complement_of_j(self, tmp_path, capsys, connection):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(json.loads(k7_embedding(K7_RHO0)),
                                       connection=connection)))
        assert main(["iso", str(bad), str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: not an embedding file: ValueError: "
            "connection set must be the complement of the subgroup J\n")

    def test_constructor_rejection(self, tmp_path, capsys, saved):
        data = dict(saved[1])
        a, b = data["rho0"][0][1], data["rho0"][1][1]
        data["rho0"] = [[x, b if y == a else a if y == b else y]
                        for x, y in data["rho0"]]  # no longer one cycle
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["iso", str(bad), str(saved[0])]) == 2
        assert "single cycle" in capsys.readouterr().err

    def test_classify_duplicates(self, tmp_path, capsys, saved):
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_text(saved[0].read_text())
        assert main(["classify", str(tmp_path)]) == 2
        assert "duplicate" in capsys.readouterr().err


class TestSearchBoundsPipeline:
    def test_search(self, capsys):
        code, data = run_json(capsys, "search", "--m", "3", "--n", "3",
                              "--h", "3", "--k", "3")
        assert code == 0 and data["count"] == 1
        assert data["arrays"][0]["v"] == 19

    def test_search_bad_params(self, capsys):
        assert main(["search", "--m", "3", "--n", "4", "--h", "3",
                     "--k", "3"]) == 2

    def test_bounds(self, capsys):
        code, data = run_json(capsys, "bounds", "--theorem", "CDY",
                              "--n", "13", "--k", "11")
        assert code == 0 and data["exact"] == 11

    def test_bounds_hypothesis_failure(self, capsys):
        code, data = run_json(capsys, "bounds", "--theorem", "CDY",
                              "--n", "14", "--k", "11")
        assert code == 1 and "error" in data

    @pytest.mark.parametrize("s1, refusal, failed", [
        ("1", "needs strip step s1 >= 2", "s1>=2"),
        ("-3", "needs strip step s1 >= 2", "s1>=2"),
        ("11", "needs k + s1 <= n", "k+s1<=n"),
    ])
    def test_bounds_pairs_strip_step(self, capsys, s1, refusal, failed):
        # bounds refuses the strip steps that tour-family --family pairs refuses
        argv = ["--n", "13", "--k", "5", "--s1", s1]
        assert main(["tour-family", "--family", "pairs", "--i", "3", *argv]) == 2
        assert refusal in capsys.readouterr().err
        code, data = run_json(capsys, "bounds", "--theorem", "PropPairs", *argv)
        assert code == 1 and data["error"] == f"PropPairs: hypotheses failed: {failed}"
        code, data = run_json(capsys, "bounds", "--theorem", "PropPairs", *argv, "--force")
        assert code == 0 and data["exact"] == 156 and not data["hypotheses_ok"]

    def test_bounds_force(self, capsys):
        code, data = run_json(capsys, "bounds", "--theorem", "CDY",
                              "--n", "33", "--k", "11", "--force")
        assert code == 0 and data["exact"] == 31

    def test_bounds_float_overflow_is_null(self, capsys):
        n = 10 ** 200 + 1
        code, data = run_json(capsys, "bounds", "--theorem", "PropPairs",
                              "--n", str(n), "--k", "3", "--s1", "2")
        assert code == 0 and data["exact"] == 2 * math.comb(n, 2)
        assert data["approx"] is None
        # the hypotheses hold; only the float reference passes 1e308
        code, data = run_json(capsys, "bounds", "--theorem", "PropPower2",
                              "--n", "6001", "--k", "5")
        assert code == 0 and data["hypotheses_ok"]
        assert data["exact"] == 4 * math.comb(1501, 376)
        assert data["approx"] is None and data["asymptotic_reference"] is None
        code, data = run_json(capsys, "bounds", "--theorem", "Prop3diag",
                              "--n", "4001", "--k", "3")
        assert code == 0 and data["exact"] is None and data["approx"] is None

    @pytest.mark.parametrize("theorem", ["CDY", "CDY2"])
    def test_bounds_huge_n_primality_is_fast(self, capsys, theorem):
        start = time.perf_counter()
        code, data = run_json(capsys, "bounds", "--theorem", theorem,
                              "--n", "1000000000000000003", "--k", "11")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and "n=1_mod_4" in data["error"]

    def test_pipeline(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, text = run(capsys, "pipeline", "--search", "5,5,3,3,1,cyclic",
                         "--trivial-R", "--out", str(out))
        data = json.loads(text)
        assert code == 0
        assert data["solutions"] == 20
        assert data["distinct_rotations"] == 20
        assert data["reports_all_passed"]
        assert (out / "summary.json").read_text() == text
        manifest = data["manifest"]
        assert manifest["command"] == "pipeline"
        assert manifest["outputs"] == sorted(p.name for p in out.iterdir()) == [
            "array.arr", "classification.json", "solutions.json", "summary.json"]
        # the classes themselves are in classification.json alone
        classification = json.loads((out / "classification.json").read_text())
        assert data["classes"] == {"class_count": classification["class_count"], "total": 20}

    def test_pipeline_manifest_lists_only_this_runs_files(self, tmp_path, capsys):
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        (out / "embeddings").mkdir(parents=True)
        (out / "embeddings" / "embedding_0000.json").write_text("{}\n")
        (out / "stale.txt").write_text("from an earlier run\n")
        outputs = []
        for argv in (["--search", "3,3,3,3,1", "--out", str(out)],
                     ["--search", "3,3,3,3,1", "--trivial-R", "--out", str(out)],
                     ["--search", "3,3,3,3,1", "--trivial-R", "--out", str(fresh)]):
            code, data = run_json(capsys, "pipeline", *argv)
            assert code == 0
            outputs.append(data["manifest"]["outputs"])
        assert outputs[0] == outputs[1] == outputs[2] == sorted(p.name for p in fresh.iterdir())

    def test_pipeline_hashes_the_bytes_it_parsed(self, tmp_path, capsys):
        # a pipe can be read only once: a second read for the hash sees nothing
        from heffter.validation import search_heffter

        raw = search_heffter(3, 3, 3, 3, 1, limit=1)[0].to_text().encode()
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, raw)  # the file fits in the pipe's buffer
            os.close(write_end)
            source = f"/dev/fd/{read_end}"
            code, data = run_json(capsys, "pipeline", "--array", source,
                                  "--out", str(tmp_path / "run"))
        finally:
            os.close(read_end)
        assert code == 0
        assert data["manifest"]["input_hashes"] == {source: hashlib.sha256(raw).hexdigest()}

    @pytest.fixture(scope="class")
    def full_scan(self, tmp_path_factory):
        """The pipeline run of the full 5x5 cyclic scan: 320 solutions, 160 classes."""
        out = tmp_path_factory.mktemp("pipeline") / "run"
        assert main(["pipeline", "--search", "5,5,3,3,1,cyclic", "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("t, class_count, size", [(1, 160, 2), (2, 160, 2), (3, 80, 4)])
    def test_pipeline_full_scan_classes(self, tmp_path, capsys, full_scan, t, class_count, size):
        # the 320 embeddings of the full 5x5 cyclic scan over Z_{30+t}
        out = full_scan
        if t > 1:
            out = tmp_path / "run"
            assert main(["pipeline", "--search", f"5,5,3,3,{t},cyclic", "--out", str(out)]) == 0
        data = json.loads((out / "classification.json").read_text())
        assert data["total"] == 320
        assert data["class_count"] == class_count
        assert {c["size"] for c in data["classes"]} == {size}

    @pytest.mark.parametrize("t, class_count", [(1, 160), (3, 80)])
    def test_core_classifies_as_pipeline_writes(self, tmp_path, full_scan, t, class_count):
        # the library's pipeline core, fed the full scan as a one-shot generator
        out = full_scan
        if t > 1:
            out = tmp_path / "run"
            assert main(["pipeline", "--search", f"5,5,3,3,{t},cyclic", "--out", str(out)]) == 0
        array = parse_array((out / "array.arr").read_text())
        pairs = (pair for pair in knight.enumerate_solutions(array.skeleton()))
        result = run_pipeline(array, pairs)
        assert len(result.embeddings) == 320
        assert result.classification.class_count == class_count
        assert (json.dumps(result.classification.to_json_dict(), sort_keys=True) + "\n"
                == (out / "classification.json").read_text())
        assert result.reports_passed
        with pytest.raises(MathFailure, match="^no tour solutions$"):
            run_pipeline(array, (pair for pair in ()))

    def test_pipeline_full_scan_files_are_pinned(self, full_scan):
        # sha256 of the full 5x5 cyclic scan's files: the bytes must not
        # drift from one version to the next
        out = full_scan
        embeddings = "".join(json.dumps(e.to_json_dict(), sort_keys=True) + "\n"
                             for e in rebuilt_embeddings(out)).encode()
        assert embeddings.count(b"\n") == 320
        digests = {
            name: hashlib.sha256(data).hexdigest() for name, data in [
                ("solutions", (out / "solutions.json").read_bytes()),
                ("classification", (out / "classification.json").read_bytes()),
                # the lines of the embeddings file that earlier versions
                # wrote, and before that the 320 files embedding_NNNN.json
                ("embeddings", embeddings),
            ]
        }
        assert digests == {
            "solutions": "04566e3f963042d3ef723e6c21cf062ad3f37790dc7b1c7294cbdcc9b1446437",
            "classification":
                "e3acdbb50d3b1f1874a724f7616b61acab98165900c67a16306066f05a0cc551",
            "embeddings": "4fdce84fb8ffeb4d3150f91815b2fb280c8c462c96c31280218b416533927553",
        }

    def test_pipeline_without_solutions_exits_one(self, tmp_path, capsys):
        # the 4x4 cyclic scan is complete and finds no covering pair; classify
        # on the run directory it leaves fails the same way
        out = tmp_path / "run"
        assert main(["pipeline", "--search", "4,4,3,3,1,cyclic", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "failed: no tour solutions\n"
        assert (out / "solutions.json").read_text() == "[]\n"
        for text in ([], ["--text"]):
            assert main(["classify", str(out), *text]) == 1
            assert capsys.readouterr() == ("", "failed: no tour solutions\n")

    def test_pipeline_fold_two_array_exits_one(self, tmp_path, capsys):
        # the 2 x 5 array passes validation and has tour solutions, but a
        # fold > 1 array is not embedded: embed and faces fail the same way,
        # and pipeline refuses it before it makes the output directory
        lambda2 = str(fixture_path("lambda2_2x5.arr"))
        assert main(["pipeline", "--array", lambda2, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "failed: fold > 1 arrays are not embedded\n"
        assert not (tmp_path / "run").exists()

    def test_pipeline_classify_dir(self, tmp_path, capsys, monkeypatch, full_scan):
        out = tmp_path / "run"
        run_json(capsys, "pipeline", "--search", "5,5,3,3,1,cyclic",
                 "--trivial-R", "--out", str(out))

        def refuse(emb):
            raise AssertionError("classify built a report it does not print")

        monkeypatch.setattr(heffter.embedding, "biembedding_report", refuse)
        for run, total in ((out, 20), (full_scan, 320)):
            code, data = run_json(capsys, "classify", str(run))
            assert code == 0
            assert data["total"] == total
            assert data["files"] == [f"solutions.json:{i}" for i in range(total)]
            classes = json.loads((run / "classification.json").read_text())["classes"]
            assert data["classes"] == classes

    def test_pipeline_makes_one_report(self, tmp_path, capsys, monkeypatch):
        # the report is the array's, not the solution's: the 320 embeddings
        # of the full 5x5 cyclic scan get one report, of embedding 0
        report = heffter.embedding.biembedding_report
        reported = []

        def counted(emb):
            reported.append(emb)
            return report(emb)

        monkeypatch.setattr(heffter.embedding, "biembedding_report", counted)
        out = tmp_path / "run"
        code, data = run_json(capsys, "pipeline", "--search", "5,5,3,3,1,cyclic",
                              "--out", str(out))
        assert code == 0 and data["embeddings"] == 320 and data["reports_all_passed"] is True
        assert reported == rebuilt_embeddings(out)[:1]

    def test_saved_run_is_recertified(self, tmp_path, capsys, full_scan):
        recertify(full_scan)
        out = tmp_path / "run"
        assert main(["pipeline", "--search", "5,5,3,3,1,cyclic", "--trivial-R",
                     "--out", str(out)]) == 0
        recertify(out)

    def test_pipeline_with_a_failed_report_exits_1(self, tmp_path, capsys, monkeypatch):
        report = heffter.embedding.biembedding_report

        def inconsistent(emb):
            return report(emb)._replace(euler_consistent=False)

        monkeypatch.setattr(heffter.embedding, "biembedding_report", inconsistent)
        out = tmp_path / "run"
        code, data = run_json(capsys, "pipeline", "--search", "5,5,3,3,1,cyclic",
                              "--trivial-R", "--out", str(out))
        assert code == 1 and data["reports_all_passed"] is False
        assert json.loads((out / "summary.json").read_text()) == data

    def test_recertify_refuses_a_swapped_sigma(self, tmp_path, full_scan):
        run = tmp_path / "run"
        shutil.copytree(full_scan, run)
        data = json.loads((run / "classification.json").read_text())
        member, witness = next((c["members"][1], c["witnesses"][1])
                               for c in data["classes"] if c["size"] > 1)
        sigma = witness["sigma"]
        sigma[1], sigma[2] = sigma[2], sigma[1]
        (run / "classification.json").write_text(json.dumps(data))
        with pytest.raises(AssertionError, match=f"witness of member {member} "):
            recertify(run)

    def test_recertify_refuses_a_moved_member(self, tmp_path, full_scan):
        run = tmp_path / "run"
        shutil.copytree(full_scan, run)
        data = json.loads((run / "classification.json").read_text())
        source, target = data["classes"][:2]
        i = source["members"].index(next(m for m in source["members"]
                                         if m != source["representative"]))
        member = source["members"].pop(i)
        target["members"].append(member)
        target["witnesses"].append(source["witnesses"].pop(i))
        source["size"] -= 1
        target["size"] += 1
        (run / "classification.json").write_text(json.dumps(data))
        with pytest.raises(AssertionError, match=f"witness of member {member} "):
            recertify(run)

    def test_pipeline_needs_input(self, tmp_path):
        assert main(["pipeline", "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_pipeline_takes_one_input(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["pipeline", "--array", ARRAY, "--search", "5,5,3,3,1,cyclic",
                     "--out", str(out)]) == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_usage_error_creates_no_output(self, tmp_path):
        out = tmp_path / "run"
        assert main(["pipeline", "--search", "7,7,3,x,1", "--out", str(out)]) == 2
        assert not out.exists()


# bounds parameters below 1, refused in search's words before evaluation
BELOW_ONE = {
    "bounds --theorem DiagBi --n 13 --k 3 --t -5 --force": "subgroup order t=-5",
    "bounds --theorem Prop3diag --n 13 --k 3 --t 0 --force": "subgroup order t=0",
    "bounds --theorem CDY --n -1 --k 3": "n=-1",
    "bounds --theorem CDY --n 13 --k 0": "k=0",
}


@pytest.mark.parametrize("argv", [
    *BELOW_ONE,
    "pipeline --search 7,7,3,3,1,foo --out {tmp}/run",
    "pipeline --search 7,7,3,x,1 --out {tmp}/run",
    "pipeline --search 5,5,3,3,1,cyclic --budget 2 --out {tmp}/run",
    "pipeline --search 5,5,3,3,1,cyclic --budget 5 --out {tmp}/run",
    "pipeline --array {array} --budget 16 --out {tmp}/run",
    "pipeline --array {array} --budget 100 --out {tmp}/run",
    # no filled cell over Z_1: the array validates vacuously, the scan refuses
    "pipeline --array {tmp}/blank_z1.arr --out {tmp}/run",
    "search --m 5 --n 5 --h 3 --k 3 --skeleton cyclic --budget 5",
    "search --m 3 --n 3 --h 3 --k 3 --limit 0",
    "search --m 3 --n 3 --h 3 --k 3 --t 0",
    "search --m 3 --n 3 --h 3 --k 3 --t -1",
    "tour-family --family ThreeDiag --n 100001 --limit 1",
    "tour-family --family 3diag --n 5 --limit -1",
    "tour-family --family prime --n 5 --k 3 --r 1 --limit 1",
    "bounds --theorem PropPower2 --n 100001 --k 5",
    "bounds --theorem CDY2 --n 3317044064679887385961981 --k 11",
    "search --m 3 --n 3 --h 3 --k 3 --limit -1",
    "faces --array {array} --solution {tmp}/sol.json --max-faces -1",
    "verify {tmp}/bad_v.arr",
    "verify {tmp}/latin1.arr",
    "embed --array {tmp}/bad_v.arr --solution {tmp}/sol.json",
    "faces --array {tmp}/bad_v.arr --solution {tmp}/sol.json",
    "pipeline --array {tmp}/bad_v.arr --out {tmp}/run",
    "tour {array} --start 0,0",
    "search --m 3 --n 3 --h 3 --k 3 --out {tmp}/file.txt",
    "pipeline --search 3,3,3,3,1 --out {tmp}/file.txt",
    "embed --array {array} --solution {tmp}/sol.json --save {tmp}/missing/x.json",
    "embed --array {array} --solution {tmp}/sol_not_pm1.json",
    "faces --array {array} --solution {tmp}/sol_not_pm1.json",
    "embed --array {array} --solution {tmp}/sol_inf.json",
    "faces --array {array} --solution {tmp}/sol_inf.json",
    "tour {tmp}/huge.skel.json",
    "tour-enum {tmp}/huge.skel.json",
    "verify {tmp}/bad_v.json",
    "verify {tmp}/nested_array.json",
    "tour {tmp}/nested.skel.json",
    "embed --array {array} --solution {tmp}/nested_sol.json",
    # a tree deeper than the recursion limit, long before the node budget
    "search --m 1200 --n 1200 --h 3 --k 3 --skeleton cyclic",
    "pipeline --search 1200,1200,3,3,1,cyclic --out {tmp}/run",
    # classify reads a directory: not a file, and not a name too long to stat
    "classify {tmp}/sol.json",
    "classify {tmp}/" + "x" * 300,
])
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv):
    (tmp_path / "sol.json").write_text(json.dumps({"R": [1] * 11, "C": [-1] + [1] * 10}))
    (tmp_path / "sol_not_pm1.json").write_text(
        json.dumps({"R": [1] * 11, "C": [2] + [1] * 10}))
    (tmp_path / "sol_inf.json").write_text('{"R": [1e400], "C": []}')  # int(inf) overflows
    (tmp_path / "huge.skel.json").write_text(
        json.dumps({"m": 2 ** 63, "n": 1, "filled": [[1, 1]]}))
    (tmp_path / "bad_v.json").write_text('{"v": "x", "t": 1, "cells": [[1]]}')
    (tmp_path / "nested_array.json").write_text('{"cells": ' + NESTED + "}")
    (tmp_path / "nested.skel.json").write_text('{"filled": ' + NESTED + "}")
    (tmp_path / "nested_sol.json").write_text('{"R": ' + NESTED + "}")
    (tmp_path / "file.txt").write_text("")  # an output path that is not a directory
    (tmp_path / "latin1.arr").write_bytes("v=7 t=1\n1,\xe9\n".encode("latin-1"))
    # header v inconsistent with the weights: 2nk/lambda + t = 207
    (tmp_path / "bad_v.arr").write_text(
        fixture_path("h9_11_9.arr").read_text().replace("v=207", "v=216", 1))
    (tmp_path / "blank_z1.arr").write_text("v=1 t=1 m=2 n=3\n,,\n,,\n")
    code = main(argv.format(tmp=tmp_path, array=ARRAY).split())
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == 2
    assert not (tmp_path / "run").exists()  # a refused pipeline writes nothing
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if "--limit -1" in argv or "--limit 0" in argv:
        assert "limit" in err
    if "--budget" in argv:
        assert "budget" in err
    if "1200" in argv:
        assert "recursion limit" in err
    if "bad_v.arr" in argv:
        assert err == (f"error: {tmp_path}/bad_v.arr: v=216 inconsistent with "
                       "2nk/lambda + t = 207 (n=11, k=9, lambda=1)\n")
    if argv in BELOW_ONE:
        assert err == f"error: {BELOW_ONE[argv]} must be >= 1\n"


@pytest.mark.parametrize("argv", [
    "bounds --theorem PropPower2 --n 1000000001 --k 5",  # math.comb would run for minutes
    "bounds --theorem CDY --n 13 --k 4000000003",  # so would derangements(10**9 - 2)
    # D(0) = 1 must not hide the binomial C(n/22, n/88) from the guard
    "bounds --theorem CDY2 --n 1000000000061 --k 11",
])
def test_huge_exact_value_is_refused_before_computing(argv):
    src = str(Path(heffter.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "heffter", *argv.split()],
                          capture_output=True, text=True, timeout=5,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ") and "too large to print" in proc.stderr


def test_huge_exact_value_is_refused_with_the_digit_limit_off():
    # 0 lets str() print any int, but math.comb would still run for minutes
    src = str(Path(heffter.__file__).resolve().parent.parent)
    argv = "bounds --theorem PropPower2 --n 1000000001 --k 5"
    proc = subprocess.run([sys.executable, "-m", "heffter", *argv.split()],
                          capture_output=True, text=True, timeout=5,
                          env={**os.environ, "PYTHONPATH": src,
                               "PYTHONINTMAXSTRDIGITS": "0"})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "too large" in proc.stderr


@pytest.mark.parametrize("argv,read", [
    # larger than a pipe's buffer: the command is still writing when the
    # reader goes away
    ("faces --array {array} --solution {tmp}/sol.json --all", 16),  # 900 KB
    ("tour-family --family 3diag --n 17", 16),  # 1.1 MB, written as it is generated
    # 1.4 KB, within the buffer, printed after the run's files are written
    ("pipeline --search 5,5,3,3,1,cyclic --out {tmp}/run", 16),
    # gone before the first write: with buffering, print only fills the
    # buffer and the flush fails
    ("verify {array}", 0),
])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_quietly(tmp_path, argv, read, unbuffered):
    (tmp_path / "sol.json").write_text(json.dumps({"R": [1] * 11,
                                                   "C": [-1] + [1] * 10}))
    src = str(Path(heffter.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "heffter",
                             *argv.format(array=ARRAY, tmp=tmp_path).split()],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**env, "PYTHONPATH": src})
    head = proc.stdout.read(read)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert len(head) == read
    if argv.startswith("pipeline"):
        assert (tmp_path / "run" / "summary.json").read_bytes().startswith(head)


def test_huge_family_census_is_refused_before_building(capsys):
    # the 2000001 x 2000001 skeleton would need gigabytes; it is never built
    tracemalloc.start()
    try:
        code = main("tour-family --family 3diag --n 2000001 --limit 1".split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert peak < 100 * 2 ** 20


@pytest.mark.parametrize("family,name,n", [
    # 2^((n+1)/2) would take gigabytes, or 125 MB at n = 2000000001
    pytest.param("3diag", "ThreeDiag", "99999999999", id="99999999999"),
    pytest.param("3diag", "ThreeDiag", "2000000001", id="2000000001"),
    # math.comb of the n/6 or n/4 positions would run for minutes
    pytest.param("k7 --limit 1", "KSeven", "100000001", id="k7"),
    pytest.param("power2 --k 5 --limit 1", "PowerTwo", "100000001", id="power2"),
])
def test_huge_family_census_is_refused_before_computing(family, name, n):
    src = str(Path(heffter.__file__).resolve().parent.parent)
    argv = f"tour-family --family {family} --n {n} --text".split()
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
              "from heffter.cli import main\n"
              f"code = main({argv!r})\n"
              f"{_PEAK_KB}\n"
              "print(peak)\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2 and int(proc.stdout) < 100 * 1024  # peak RSS in KB
    assert proc.stderr == (f"error: census of family {name} for n={n} "
                           "is too large to print\n")


def test_zero_exact_value_does_not_compute_its_huge_binomial():
    # D(1) = 0 at k = 15, so CDY2 is 0 however large C(n/30, n/120) would be
    src = str(Path(heffter.__file__).resolve().parent.parent)
    argv = "bounds --theorem CDY2 --n 1000000000061 --k 15 --text"
    proc = subprocess.run([sys.executable, "-m", "heffter", *argv.split()],
                          capture_output=True, text=True, timeout=5,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "exact=0 approx=0.0\n", "")


def test_huge_power_two_census_lists_no_positions():
    # the n/2 positions = 1 mod k-1 are counted, not listed
    src = str(Path(heffter.__file__).resolve().parent.parent)
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
              "from heffter.cli import main\n"
              "sys.exit(main('tour-family --family power2 --n 99999999999 --k 3 --r 3 "
              "--text --limit 0'.split()))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "census=83333333328333333333400000000000 emitted=0\n"


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # each line of README's CLI block, in order, from a fresh directory
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    data = f"{fixture_path('h9_11_9.arr').parent}/"
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in block.splitlines():
        argv = shlex.split(line.replace("src/heffter/data/", data))
        if argv[0] == "echo":
            assert argv[2:] == [">", "sol.json"]
            (tmp_path / "sol.json").write_text(argv[1] + "\n")
        else:
            assert argv[0] == "heffter"
            assert main(argv[1:]) == 0, line
            ran.append(argv[1])
    capsys.readouterr()
    assert len(ran) == 12 and "pipeline" in ran and "classify" in ran


class TestTextOutput:
    def test_text_mode_is_one_line(self, capsys):
        code, out = run(capsys, "verify", ARRAY, "--text")
        assert code == 0
        assert out.strip() == "passed=True globally_simple=True"
        code, out = run(capsys, "tour", ARRAY, "--C", C_GOLDEN, "--text")
        assert out.strip() == "covers_all=True period=99"


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys):
        _, out1 = run(capsys, "verify", ARRAY)
        _, out2 = run(capsys, "verify", ARRAY)
        assert out1 == out2
        _, out1 = run(capsys, "tour-enum", SKELETON)
        _, out2 = run(capsys, "tour-enum", SKELETON)
        assert out1 == out2

    def test_pipeline_reruns_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_json(capsys, "pipeline", "--search", "3,3,3,3,1",
                     "--out", str(out))
            outs.append((out / "summary.json").read_text())
        # the output directory differs; everything else must match
        assert outs[0].replace("/a", "/X") == outs[1].replace("/b", "/X")

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"


# the least arguments each command parses; parsing reads no file
PARSES = {
    "verify": ["a.arr"],
    "tour": ["a.arr"],
    "tour-enum": ["a.arr"],
    "tour-family": ["--family", "3diag", "--n", "9"],
    "embed": ["--array", "a.arr", "--solution", "s.json"],
    "faces": ["--array", "a.arr", "--solution", "s.json"],
    "iso": ["e1.json", "e2.json"],
    "classify": ["dir"],
    "search": ["--m", "5", "--n", "5", "--h", "3", "--k", "3"],
    "bounds": ["--theorem", "CDY", "--n", "13", "--k", "11"],
    "pipeline": ["--array", "a.arr", "--out", "dir"],
}


def parse_with_full_parser(capsys, argv):
    """Exit code, stdout and stderr of the full parser on ``argv``."""
    try:
        build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the progs of the parsers build_parser makes: the top level, then each command
_FULL_PARSER = ["heffter", *(f"heffter {name}" for name in COMMANDS)]


class TestParser:
    """``main`` builds the named subcommand's parser only, with the same text."""

    def test_parses_cover_every_command(self):
        assert list(PARSES) == list(COMMANDS)
        for name, rest in PARSES.items():
            assert command_parser(name).parse_args(rest).fn is COMMANDS[name][2]
            assert build_parser().parse_args([name, *rest]).fn is COMMANDS[name][2]

    @pytest.mark.parametrize("columns", ["80", "33"])
    @pytest.mark.parametrize("case", ["help", "missing", "unknown"])
    @pytest.mark.parametrize("name", list(PARSES))
    def test_subcommand_text_matches_full_parser(self, monkeypatch, capsys,
                                                 name, case, columns):
        monkeypatch.setenv("COLUMNS", columns)
        argv, expected, text = {
            "help": ([name, "--help"], 0, f"usage: heffter {name}"),
            "missing": ([name], 2, "error: the following arguments are required: "),
            "unknown": ([name, *PARSES[name], "--bogus"], 2,
                        "{" + ",".join(COMMANDS) + "}"),
        }[case]
        code, out, err = parse_with_full_parser(capsys, argv)
        assert code == expected
        assert text in (out if case == "help" else err)
        assert main(argv) == expected
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)

    @pytest.mark.parametrize("argv, expected", [
        (["--help"], 0), (["--version"], 0), ([], 2), (["bogus"], 2),
    ])
    def test_top_level_text_matches_full_parser(self, monkeypatch, capsys,
                                                argv, expected):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = parse_with_full_parser(capsys, argv)
        assert code == expected and (out or err)
        assert main(argv) == expected
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)

    @pytest.mark.parametrize("argv, built", [
        (["verify", ARRAY], ["heffter verify"]),
        (["embed", "--help"], ["heffter embed"]),
        (["--help"], _FULL_PARSER),
        (["verif", ARRAY], _FULL_PARSER),
        # arguments left over go to the full parser, which reports them
        (["verify", ARRAY, "--bogus"], ["heffter verify", *_FULL_PARSER]),
    ])
    def test_main_adds_only_the_named_subparser(self, monkeypatch, capsys,
                                                argv, built):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            progs.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        main(argv)
        assert progs == built

    def test_docstring_lists_the_command_table(self):
        listed = heffter.cli.__doc__.split("Subcommands:")[1].split(".")[0]
        assert [name.strip() for name in listed.split(",")] == list(COMMANDS)


_ints = st.integers() | st.integers(-10 ** 1000, 10 ** 1000)
_text = st.text(max_size=6)  # the full alphabet; longer strings only cost time
_json_values = st.recursive(
    st.none() | st.booleans() | _ints | st.floats() | _text
    | st.lists(_ints) | st.lists(_ints | st.booleans()),
    lambda c: st.lists(c) | st.lists(c).map(tuple) | st.dictionaries(_text, c),
    max_leaves=20,
)


# keys that a format string would misread, a NUL, and non-ASCII text
_keys = st.sampled_from(["%", "%s", "{", "{0}", "}", '"', "\x00", "\u00e9", "\U0001f600", ""]) | _text
_cell_kinds = [
    _ints, st.booleans(), _ints | st.booleans(), st.floats(), _text, st.none(),
    st.lists(_ints), st.lists(_ints, min_size=1).map(tuple), st.lists(_ints | st.booleans()),
    st.just([]), st.just({}),
]


def _records(cells):
    """Lists of dicts on one key set, each key's cells drawn from one of ``cells``."""
    @st.composite
    def records(draw):
        keys = draw(st.lists(_keys, min_size=1, max_size=4, unique=True))
        columns = [(key, draw(st.sampled_from(cells))) for key in keys]
        return [{key: draw(cell) for key, cell in columns}
                for _ in range(draw(st.integers(1, 5)))]
    return records()


# records nest: a column may hold lists of records, or single records
_record_lists = st.recursive(
    _records(_cell_kinds),
    lambda inner: _records(_cell_kinds + [inner, inner.map(lambda rows: rows[0])]),
    max_leaves=4,
)


@st.composite
def _ragged_records(draw):
    """Records on one key set but for one, which lacks a key or has one more."""
    rows = draw(_record_lists)
    i = draw(st.integers(0, len(rows) - 1))
    row = dict(rows[i])
    if draw(st.booleans()):
        del row[draw(st.sampled_from(sorted(row)))]
    else:
        row[draw(_keys.filter(lambda key: key not in row))] = draw(_ints)
    rows[i] = row
    return rows


def _vectors(length):
    return st.lists(st.sampled_from([1, -1]), min_size=length, max_size=length).map(tuple)


@st.composite
def _pair_pools(draw):
    """A few distinct pairs for one m x n shape, C all +1 (E empty) and all -1
    (E full) among the choices, and fewer row vectors, so R repeats."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rows = draw(st.lists(_vectors(m), min_size=1, max_size=2))
    cols = _vectors(n) | st.just((1,) * n) | st.just((-1,) * n)
    return [knight.OrientationPair(draw(st.sampled_from(rows)), draw(cols))
            for _ in range(draw(st.integers(1, 5)))]


@st.composite
def _family_pools(draw):
    """A few pairs of one n x n shape whose R and C come from one small set of
    vectors, all +1 and all -1 among them: R and C each repeat, and the R of
    one pair is the C of another, as in the families' swap closure."""
    n = draw(st.integers(1, 12))
    vectors = st.sampled_from([(1,) * n, (-1,) * n,
                               *draw(st.lists(_vectors(n), min_size=1, max_size=2))])
    return [knight.OrientationPair(draw(vectors), draw(vectors))
            for _ in range(draw(st.integers(1, 5)))]


@st.composite
def _chunked(draw, pools):
    """(records, chunk): a pool repeated to a length at or near a multiple of
    the chunk, or to 0."""
    pool, chunk = draw(pools), draw(st.sampled_from([1, 2, 4096]))
    length = draw(st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1]))
    return list(itertools.islice(itertools.cycle(pool), length)), chunk


class TestJsonEncoding:
    @settings(max_examples=200, deadline=None)
    @given(_json_values)
    @example({"\x00\x1f\u00e9\u2603\U0001f600": [-10 ** 999, True, 1],
              "": [[], {}, ()], "f": [float("nan"), -float("inf"), 0.1]})
    def test_dumps_is_indented_json(self, value):
        assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    @settings(max_examples=200, deadline=None)
    @given(_record_lists | _record_lists.map(tuple) | _ragged_records())
    @example([{"%": 1, "{": [-1, 1, 0], '"': [], "\x00\u00e9": {"%s": [2, True]}},
              {"%": True, "{": [1, -1], '"': [4], "\x00\u00e9": {}}])
    def test_dumps_writes_records_as_json(self, records):
        for value in (records, {"listed": records}):
            assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(_pair_pools() | _family_pools(), st.integers(1, 3))
    def test_records_text_joins_to_dumps(self, pool, chunk):
        records = [p.to_json_dict() for p in pool]
        assert "".join(_family_listing(pool, chunk)) == _dumps(records, "\n  ")

    @settings(max_examples=60, deadline=None)
    @given(_pair_pools())
    def test_pair_records_read_back(self, pairs):
        for p in pairs:
            data = p.to_json_dict()
            assert knight.OrientationPair.from_json_dict(data) == p
            del data["E"]
            assert knight.OrientationPair.from_json_dict(data) == p

    @settings(max_examples=100, deadline=None)
    @given(_chunked(_pair_pools() | _family_pools()))
    @example(([], 4096))
    @example((list(knight.three_diagonal_family(5)), 2))
    def test_pair_records_are_indented_json(self, listing):
        pairs, chunk = listing
        dicts = [p.to_json_dict() for p in pairs]
        want = json.dumps({"solutions": dicts}, sort_keys=True, indent=2)
        # from a list too, whose chunks must follow one another: the records
        # come a chunk at a time, then the closing bracket, and no more
        sizes = [min(chunk, len(pairs) - start) for start in range(0, len(pairs), chunk)]
        for source in (pairs, iter(pairs)):
            pieces = list(itertools.islice(_family_listing(source, chunk), len(sizes) + 2))
            assert [piece.count('"C"') for piece in pieces[:-1]] == sizes
            assert '{\n  "solutions": ' + "".join(pieces) + "\n}" == want

    @pytest.mark.parametrize("value", [{1, 2}, object(), [1, {2}], {"a": object()}])
    def test_dumps_rejects_what_json_rejects(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _dumps(value)

    @pytest.mark.parametrize("argv", [
        "verify {array}",
        "tour-enum {array} --trivial-R",
        "embed --array {array} --solution {tmp}/sol.json",
        "faces --array {array} --solution {tmp}/sol.json --all",
        "tour {array} --C " + C_GOLDEN + " --cells",
        "bounds --theorem CDY --n 13 --k 11",
        "bounds --theorem PropPower2 --n 6001 --k 5",
        "pipeline --search 5,5,3,3,1,cyclic --trivial-R --out {tmp}/run",
    ])
    def test_stdout_is_indented_json(self, tmp_path, capsys, argv):
        (tmp_path / "sol.json").write_text(json.dumps({"R": [1] * 11,
                                                       "C": [-1] + [1] * 10}))
        code, out = run(capsys, *argv.format(array=ARRAY, tmp=tmp_path).split())
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        if argv.startswith("pipeline"):
            assert (tmp_path / "run" / "summary.json").read_text() == out
