#!/usr/bin/env python3
"""Self-test: a wrong expected value must be reported as a failure, not a crash.

    python3 perfbench/selftest.py

For each workload it corrupts one expected value, runs one short benchmark
run against it, and requires exit code 0, ``"correct": false`` and at least
one failed command in the result line.  Takes about half a minute.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def corrupt_embed(exp: dict) -> None:
    exp["h207"]["embed_report"]["face_count"] += 1


def corrupt_faces(exp: dict) -> None:
    exp["h207"]["faces_set"] = ["0" * 16] * len(exp["h207"]["faces_set"])


def corrupt_pipeline(exp: dict) -> None:
    exp["z43"]["classification"] = ["0" * 16] * len(exp["z43"]["classification"])


def corrupt_search(exp: dict) -> None:
    for by_t in exp["k3"]["by_t"].values():
        by_t["count"] += 1


CASES = (
    ("embed_h207", corrupt_embed),
    ("embed_h207", corrupt_faces),
    ("pipeline_z43", corrupt_pipeline),
    ("search_k3", corrupt_search),
)


def main() -> int:
    expected = json.loads((HERE / "expected.json").read_text())
    WORK.mkdir(exist_ok=True)
    bad = []
    for workload, corrupt in CASES:
        wrong = copy.deepcopy(expected)
        corrupt(wrong)
        path = WORK / f"selftest-{workload}.json"
        path.write_text(json.dumps(wrong))
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "0", "--expected", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        path.unlink()
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        ok = result is not None and result["correct"] is False and result["failed"] >= 1
        print(f"{workload}, {corrupt.__name__}: {'reported' if ok else 'NOT reported'} "
              f"(exit {proc.returncode}, result {lines[-1] if lines else None})")
        if not ok:
            bad.append(corrupt.__name__)
            print(proc.stderr[-2000:], file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
