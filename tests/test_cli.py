"""Exit codes, JSON determinism, and end-to-end subcommand behavior."""

import json

import pytest

from heffter.cli import main

from conftest import fixture_path

ARRAY = str(fixture_path("h9_11_9.arr"))
SKELETON = str(fixture_path("cr_6x6.skel.json"))
C_GOLDEN = "-1,1,1,1,1,1,1,1,1,1,1"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


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


class TestEnumAndFamilies:
    def test_enum_trivial(self, tmp_path, capsys):
        skel = tmp_path / "c53.json"
        from heffter.pfarray import cyclic_diagonal_skeleton

        skel.write_text(json.dumps(cyclic_diagonal_skeleton(5, 3).to_json_dict()))
        code, data = run_json(capsys, "tour-enum", str(skel), "--trivial-R")
        assert code == 0 and data["count"] == 20
        assert all(set(s["R"]) == {1} for s in data["solutions"])

    def test_enum_budget(self, capsys):
        assert main(["tour-enum", ARRAY, "--budget", "16"]) == 2

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

    def test_family_missing_param(self, capsys):
        assert main(["tour-family", "--family", "power2", "--n", "21"]) == 2

    def test_family_rejects_stray_r(self, capsys):
        assert main(["tour-family", "--family", "3diag", "--n", "5",
                     "--r", "2"]) == 2
        assert main(["tour-family", "--family", "bogus", "--n", "5"]) == 2


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
        assert code == 0 and saved.exists()
        code, data = run_json(capsys, "iso", str(saved), str(saved))
        assert code == 0 and data["isomorphic"]
        assert data["map"]["sigma"][:3] == [0, 1, 2]

    def test_embed_non_solution(self, tmp_path, capsys):
        p = tmp_path / "sol.json"
        p.write_text(json.dumps({"R": [1] * 11, "C": [1] * 11}))
        assert main(["embed", "--array", ARRAY, "--solution", str(p)]) == 1

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
    ])
    def test_malformed_embedding(self, tmp_path, capsys, saved, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["iso", str(saved[0]), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert main(["classify", str(tmp_path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

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

    def test_bounds_force(self, capsys):
        code, data = run_json(capsys, "bounds", "--theorem", "CDY",
                              "--n", "33", "--k", "11", "--force")
        assert code == 0 and data["exact"] == 31

    def test_pipeline(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, data = run_json(capsys, "pipeline", "--search", "5,5,3,3,1,cyclic",
                              "--trivial-R", "--out", str(out))
        assert code == 0
        assert data["solutions"] == 20
        assert data["distinct_rotations"] == 20
        assert data["reports_all_passed"]
        assert (out / "summary.json").exists()
        assert len(list((out / "embeddings").glob("*.json"))) == 20
        manifest = data["manifest"]
        assert manifest["command"] == "pipeline"
        assert "summary.json" in manifest["outputs"]

    def test_pipeline_classify_dir(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_json(capsys, "pipeline", "--search", "5,5,3,3,1,cyclic",
                 "--trivial-R", "--out", str(out))
        code, data = run_json(capsys, "classify", str(out / "embeddings"))
        assert code == 0
        assert data["total"] == 20

    def test_pipeline_needs_input(self, tmp_path):
        assert main(["pipeline", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("argv", [
    "pipeline --search 7,7,3,3,1,foo --out {tmp}/run",
    "pipeline --search 7,7,3,x,1 --out {tmp}/run",
    "pipeline --search 5,5,3,3,1,cyclic --budget 2 --out {tmp}/run",
    "search --m 3 --n 3 --h 3 --k 3 --t 0",
    "search --m 3 --n 3 --h 3 --k 3 --t -1",
    "tour-family --family ThreeDiag --n 100001 --limit 1",
    "tour-family --family 3diag --n 5 --limit -1",
    "faces --array {array} --solution {tmp}/sol.json --max-faces -1",
    "verify {tmp}/bad_v.arr",
    "embed --array {tmp}/bad_v.arr --solution {tmp}/sol.json",
    "faces --array {tmp}/bad_v.arr --solution {tmp}/sol.json",
])
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv):
    (tmp_path / "sol.json").write_text(json.dumps({"R": [1] * 11, "C": [-1] + [1] * 10}))
    # header v inconsistent with the weights: 2nk/lambda + t = 207
    (tmp_path / "bad_v.arr").write_text(
        fixture_path("h9_11_9.arr").read_text().replace("v=207", "v=216", 1))
    code = main(argv.format(tmp=tmp_path, array=ARRAY).split())
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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
