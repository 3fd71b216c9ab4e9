#!/usr/bin/env python3
"""Write ``expected.json``, the outputs the benchmark checks, from the library.

    python3 perfbench/make_golden.py            # about 10 minutes on 2 cores

Run it only at a commit whose outputs are the reference: the gates of later
changes keep these outputs byte-identical.  It also checks the symmetries
the workloads rely on (a shifted or scaled array embeds like the bundled one)
and times the 24 relabelled 4x4 skeletons once, keeping the fast ones as the
search pool, so that every search job costs about the same.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
os.environ["HEFFTER_PURE_NUMPY"] = "1"

from heffter import cli, pfarray, validation  # noqa: E402
from workloads import (  # noqa: E402
    array_text,
    digest,
    directions,
    face_set_digest,
    searched_set_digest,
)

Z43_POOL = 24
K3_T = (1, 2, 3, 4)  # subgroup orders: v = 24 + t
K3_FAST = 1.3  # keep relabellings searched within this factor of the fastest one
WORK = ROOT / ".perfbench_work" / "golden"


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"heffter {' '.join(argv)} exited {rc}")
    return out.getvalue()


def h207() -> dict:
    arr_path = ROOT / "src" / "heffter" / "data" / "h9_11_9.arr"
    base = pfarray.parse_array(arr_path.read_text())
    v, n = base.v, base.n
    verify = json.loads(run_cli(["verify", str(arr_path)]))
    enum = json.loads(run_cli(["tour-enum", str(arr_path), "--trivial-R"]))
    masks = [int("".join("1" if d == -1 else "0" for d in s["C"]), 2)
             for s in enum["solutions"]]
    assert all(s["R"] == [1] * base.m for s in enum["solutions"])

    sol_path = WORK / "sol.json"
    faces_raw, faces_set = [], []
    for i, mask in enumerate(masks):
        sol_path.write_text(json.dumps({"R": [1] * base.m, "C": directions(mask, n)}))
        text = run_cli(["faces", "--array", str(arr_path), "--solution", str(sol_path),
                        "--all"])
        data = json.loads(text)
        faces_raw.append(digest(text))
        faces_set.append(face_set_digest(data["faces"], v, 1))
        if i == 0:
            counts = {k: data[k] for k in ("count", "row_faces", "column_faces",
                                           "all_simple", "listed")}
            embed_report = json.loads(run_cli(["embed", "--array", str(arr_path),
                                               "--solution", str(sol_path)]))
        if i % 100 == 0:
            print(f"h207 faces {i}/{len(masks)}", file=sys.stderr)

    # a shifted and scaled array: same embed report, same faces up to x -> u*x
    rng = random.Random(0)
    cells = [list(r) for r in base.cells]
    for trial in range(8):
        u = 1 if trial == 0 else rng.choice([x for x in range(1, v) if x % 3 and x % 23])
        k = rng.randrange(n)
        sol = rng.randrange(len(masks))
        rows = [[None if cells[(i - k) % n][(j - k) % n] is None
                 else u * cells[(i - k) % n][(j - k) % n] % v for j in range(n)]
                for i in range(base.m)]
        a_path = WORK / "t.arr"
        a_path.write_text(array_text(rows, v, base.t))
        cols = directions(masks[sol], n)
        sol_path.write_text(json.dumps({"R": [1] * base.m,
                                        "C": [cols[(j - k) % n] for j in range(n)]}))
        assert json.loads(run_cli(["verify", str(a_path)])) == verify
        assert json.loads(run_cli(["embed", "--array", str(a_path), "--solution",
                                   str(sol_path)])) == embed_report
        text = run_cli(["faces", "--array", str(a_path), "--solution", str(sol_path),
                        "--all"])
        assert face_set_digest(json.loads(text)["faces"], v, pow(u, -1, v)) == faces_set[sol]
        if u == 1:
            assert digest(text) == faces_raw[sol]

    return {
        "verify": verify,
        "solution_count": enum["count"],
        "solutions_digest": digest(json.dumps(enum["solutions"], sort_keys=True)),
        "solution_masks": masks,
        "embed_report": embed_report,
        "faces_counts": counts,
        "faces_raw": faces_raw,
        "faces_set": faces_set,
    }


def z43() -> dict:
    arrays = validation.search_heffter(7, 7, 3, 3, 1, limit=Z43_POOL, skeleton="cyclic")
    texts, counts, digests = [], [], []
    for i, a in enumerate(arrays):
        a_path = WORK / "z43.arr"
        a_path.write_text(a.to_text())
        out = WORK / f"z43_{i}"
        summary = json.loads(run_cli(["pipeline", "--array", str(a_path), "--trivial-R",
                                      "--out", str(out)]))
        texts.append(a.to_text())
        counts.append(summary["classes"]["class_count"])
        digests.append(digest((out / "classification.json").read_bytes()))
        solutions = summary["solutions"]
        print(f"z43 pipeline {i + 1}/{len(arrays)}", file=sys.stderr)
    return {"arrays": texts, "solutions": solutions, "class_counts": counts,
            "classification": digests}


def k3() -> dict:
    """Time every relabelling for t = 1 and keep the fast ones for each t in K3_T."""
    def search(t, perm):
        filled = frozenset((r, c) for r in range(1, 5) for c in range(1, 5)
                           if c != perm[r - 1])
        t0 = time.perf_counter()
        arrays = validation.search_heffter(4, 4, 3, 3, t, limit=1 << 30,
                                           skeleton=pfarray.Skeleton(4, 4, filled))
        return arrays, time.perf_counter() - t0

    by_t = {}
    for t in K3_T:
        found = validation.search_heffter(4, 4, 3, 3, t, limit=1 << 30, skeleton="cyclic")
        by_t[str(t)] = {"count": len(found), "set_digest": searched_set_digest(found, None)}
    times = {perm: search(1, perm)[1] for perm in itertools.permutations(range(1, 5))}
    fastest = min(times.values())
    fast = [list(p) for p, s in times.items() if s <= K3_FAST * fastest]
    pool = []
    for t in K3_T:
        for perm in fast:
            arrays, seconds = search(t, perm)
            assert len(arrays) == by_t[str(t)]["count"]
            assert searched_set_digest(arrays, perm) == by_t[str(t)]["set_digest"]
            pool.append([t, perm])
            print(f"k3 t={t} {perm} {seconds:.3f} s", file=sys.stderr)
    return {"by_t": by_t, "pool": pool,
            "calibration_s": {",".join(map(str, p)): round(s, 3) for p, s in times.items()}}


def main() -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    expected = {"h207": h207(), "z43": z43(), "k3": k3()}
    (HERE / "expected.json").write_text(json.dumps(expected, sort_keys=True) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main()
