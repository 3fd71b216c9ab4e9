"""The benchmark's workloads: inputs made from the seed, jobs, output checks.

Every workload is a closed loop run by one client in one thread: a job's
commands run one after the other, each starting when the previous one has
returned.  CLI commands go through ``heffter.cli.main`` in process; nothing is
given the same input twice in one process, so a result cache inside the
library cannot gain here what CLI users, who start a fresh process per
command, would never get.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

from spans import CLI_SPAN, Tracer


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def canonical_rotation(seq: list[int]) -> tuple[int, ...]:
    lo = min(seq)
    return min(tuple(seq[i:] + seq[:i]) for i, x in enumerate(seq) if x == lo)


def face_set_digest(faces: list[dict], v: int, scale: int) -> str:
    """Digest of a face listing as a set, after mapping vertices x -> scale*x."""
    mapped = sorted(
        (canonical_rotation([(scale * x) % v for x in f["vertices"]]), f["color"], f["simple"])
        for f in faces
    )
    return digest(json.dumps(mapped))


def signed(x: int, v: int) -> int:
    return x if x <= v // 2 else x - v


def array_text(rows: list[list[int | None]], v: int, t: int) -> str:
    lines = [f"v={v} t={t} lambda=1 m={len(rows)} n={len(rows[0])}"]
    lines += [",".join("" if x is None else str(signed(x, v)) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def directions(mask: int, length: int) -> list[int]:
    """Direction vector of a mask; bit 1 means -1, first position most significant."""
    return [-1 if (mask >> (length - 1 - i)) & 1 else 1 for i in range(length)]


# -- the run context ----------------------------------------------------------------


@dataclass
class Job:
    """What one job did: the time of each command and the problems found."""

    command_s: list[float] = field(default_factory=list)
    unit_s: list[float] = field(default_factory=list)  # the workload's unit command
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.command_s)


class Context:
    """Library modules, work directory, expected values and tracer of one run."""

    def __init__(self, root: Path, workdir: Path, expected: dict, tracer: Tracer) -> None:
        self.root = root
        self.workdir = workdir
        self.expected = expected
        self.tracer = tracer
        self.lib: dict = {}

    def load_library(self) -> None:
        import heffter  # noqa: F401  (timed as part of set-up)
        from heffter import cli, embedding, iso, kernels, knight, pfarray, validation

        self.lib = {"cli": cli, "embedding": embedding, "iso": iso, "kernels": kernels,
                    "knight": knight, "pfarray": pfarray, "validation": validation}

    def timed(self, job: Job, fn, *, unit: bool = False):
        """Run ``fn()`` as one command of ``job`` and record its time."""
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            dt = time.perf_counter() - t0
            job.command_s.append(dt)
            if unit:
                job.unit_s.append(dt)

    def cli(self, job: Job, argv: list[str], *, unit: bool = False) -> tuple[int | None, str]:
        """Run one ``heffter`` command in process; return its exit code and stdout."""
        out, err = io.StringIO(), io.StringIO()
        main = self.lib["cli"].main

        def command() -> int | None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    with self.tracer.span(CLI_SPAN):
                        return main(argv)
                except Exception:  # a traceback is a failure to report, not a crash
                    print(traceback.format_exc(), file=err)
                    return None

        rc = self.timed(job, command, unit=unit)
        text = out.getvalue()
        if self.tracer.enabled:
            self.tracer.counts["cli.bytes_out"] += len(text.encode())
        if rc is None or "Traceback" in err.getvalue():
            job.problems.append(f"{argv[0]}: traceback: {err.getvalue().strip()[-300:]}")
        return rc, text


def check_command(job: Job, name: str, checks) -> None:
    """Count one attempted command; any failed check or error in a check fails it."""
    job.attempted += 1
    before = len(job.problems)
    try:
        for ok, what in checks():
            if not ok:
                job.problems.append(f"{name}: {what}")
    except Exception as exc:  # a malformed output is a failure, never a crash
        job.problems.append(f"{name}: output check raised {exc!r}")
    if len(job.problems) > before:
        job.failed += 1


# -- the bundled 11x11 array over Z_207 --------------------------------------------------


class H207:
    """Fresh arrays from the bundled one: x -> u*x for a unit u, and a shift
    of rows and columns by the same k.  Both keep the skeleton, the Heffter
    conditions and the tour solutions; a shift does not change the embedding
    of (array, solution) once the solution is shifted back, and scaling maps
    it onto the embedding of the bundled array by x -> u*x.  So every check
    compares against the expected values of the bundled array."""

    def __init__(self, ctx: Context, rng: random.Random) -> None:
        pfarray = ctx.lib["pfarray"]
        text = (ctx.root / "src" / "heffter" / "data" / "h9_11_9.arr").read_text()
        base = pfarray.parse_array(text)
        self.v, self.t, self.m, self.n = base.v, base.t, base.m, base.n
        self.cells = [list(row) for row in base.cells]
        units = [u for u in range(1, self.v) if gcd(u, self.v) == 1]
        self.plan = [(u, k) for u in units for k in range(self.n)]
        rng.shuffle(self.plan)
        # the first faces listing of a run is also compared byte for byte
        first = next(i for i, (u, _) in enumerate(self.plan) if u == 1)
        faces = ARRAYS_PER_JOB - 1
        self.plan[first], self.plan[faces] = self.plan[faces], self.plan[first]
        self.solution_order = list(range(len(ctx.expected["h207"]["solution_masks"])))
        rng.shuffle(self.solution_order)
        self.dir = ctx.workdir

    def array_file(self, index: int) -> tuple[Path, int, int]:
        u, k = self.plan[index]
        m, n, v = self.m, self.n, self.v
        rows = [[None if self.cells[(i - k) % m][(j - k) % n] is None
                 else u * self.cells[(i - k) % m][(j - k) % n] % v
                 for j in range(n)] for i in range(m)]
        path = self.dir / f"a{index:05d}.arr"
        path.write_text(array_text(rows, v, self.t))
        return path, u, k

    def solution_file(self, index: int, cols: list[int]) -> Path:
        path = self.dir / f"s{index:05d}.json"
        path.write_text(json.dumps({"R": [1] * self.m, "C": cols}))
        return path


EMBEDS_PER_JOB = 4
ARRAYS_PER_JOB = EMBEDS_PER_JOB + 2  # verify and tour-enum, each embed, the faces listing
SOLUTIONS_PER_JOB = EMBEDS_PER_JOB + 1


def _h207_job(ctx: Context, state: H207, index: int) -> Job:
    """verify and tour-enum a fresh array, embed seed-chosen solutions and list
    the faces of one more, each on another fresh array."""
    exp = ctx.expected["h207"]
    job = Job()
    slot = index * ARRAYS_PER_JOB
    sols = state.solution_order[index * SOLUTIONS_PER_JOB:(index + 1) * SOLUTIONS_PER_JOB]
    path, _, _ = state.array_file(slot)

    rc, text = ctx.cli(job, ["verify", str(path)])
    check_command(job, "verify", lambda: [
        (rc == 0, f"exit code {rc}"),
        (json.loads(text) == exp["verify"], "verify report differs"),
    ])

    rc, text = ctx.cli(job, ["tour-enum", str(path), "--trivial-R"])
    solutions = None

    def enum_checks():
        nonlocal solutions
        data = json.loads(text)
        solutions = [s["C"] for s in data["solutions"]]
        return [(rc == 0, f"exit code {rc}"),
                (data["count"] == exp["solution_count"], f"count {data['count']}"),
                (digest(json.dumps(data["solutions"], sort_keys=True)) == exp["solutions_digest"],
                 "solution list digest differs")]

    failed = job.failed
    check_command(job, "tour-enum", enum_checks)
    if job.failed > failed:  # go on with the expected solutions
        solutions = [directions(mask, state.n) for mask in exp["solution_masks"]]

    for e in range(EMBEDS_PER_JOB):
        path, _, _ = state.array_file(slot + 1 + e)
        sol_path = state.solution_file(slot + 1 + e, solutions[sols[e]])
        rc, text = ctx.cli(job, ["embed", "--array", str(path), "--solution", str(sol_path)],
                           unit=True)
        check_command(job, "embed", lambda: [
            (rc == 0, f"exit code {rc}"),
            (json.loads(text) == exp["embed_report"], "embed report differs"),
        ])

    path, u, k = state.array_file(slot + ARRAYS_PER_JOB - 1)
    sol = sols[-1]
    cols = solutions[sol]
    # the shifted array with C embeds like the bundled one with C rotated by k
    sol_path = state.solution_file(slot + ARRAYS_PER_JOB - 1,
                                   [cols[(j - k) % state.n] for j in range(state.n)])
    rc, text = ctx.cli(job, ["faces", "--array", str(path), "--solution", str(sol_path),
                             "--all"])

    def faces_checks():
        data = json.loads(text)
        out = [(rc == 0, f"exit code {rc}")]
        out += [(data[key] == exp["faces_counts"][key], f"{key} {data[key]}")
                for key in exp["faces_counts"]]
        out.append((face_set_digest(data["faces"], state.v, pow(u, -1, state.v))
                    == exp["faces_set"][sol], f"face set of solution {sol} differs"))
        if u == 1:
            out.append((digest(text) == exp["faces_raw"][sol],
                        f"faces listing of solution {sol} is not byte-identical"))
        return out

    check_command(job, "faces", faces_checks)
    return job


# -- 7x7 k=3 cyclic arrays over Z_43 ---------------------------------------------------


class Z43:
    """A seed-ordered pass over the searched arrays listed in the expected values."""

    def __init__(self, ctx: Context, rng: random.Random) -> None:
        pool = ctx.expected["z43"]["arrays"]
        self.order = list(range(len(pool)))
        rng.shuffle(self.order)
        self.files = []
        for i in self.order:
            path = ctx.workdir / f"z43_{i:03d}.arr"
            path.write_text(pool[i])
            self.files.append(path)
        self.dir = ctx.workdir


def _pipeline_job(ctx: Context, state: Z43, index: int) -> Job:
    exp = ctx.expected["z43"]
    job = Job()
    which = state.order[index]
    out = state.dir / f"run_{index:03d}"
    rc, text = ctx.cli(job, ["pipeline", "--array", str(state.files[index]), "--trivial-R",
                             "--out", str(out)], unit=True)
    files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
    if ctx.tracer.enabled:
        ctx.tracer.counts["cli.bytes_written"] += sum(p.stat().st_size for p in files)

    def checks():
        data = json.loads(text)
        classification = (out / "classification.json").read_bytes()
        return [
            (rc == 0, f"exit code {rc}"),
            (data["solutions"] == exp["solutions"], f"solutions {data['solutions']}"),
            (data["embeddings"] == exp["solutions"], f"embeddings {data['embeddings']}"),
            (data["distinct_rotations"] == exp["solutions"], "rotation maps not distinct"),
            (data["reports_all_passed"] is True, "a biembedding report failed"),
            (data["classes"]["class_count"] == exp["class_counts"][which],
             f"class count {data['classes']['class_count']}"),
            (digest(classification) == exp["classification"][which],
             f"classification.json of array {which} differs"),
        ]

    check_command(job, "pipeline", checks)
    shutil.rmtree(out, ignore_errors=True)
    return job


# -- exhaustive 4x4 k=3 search ---------------------------------------------------------


class K3:
    """Relabelled 4x4 three-diagonal skeletons, calibrated once and kept fixed.

    Relabelling rows turns the empty diagonal into the empty cells (i, P(i))
    of a permutation P; the pool holds pairs (t, P) for v = 24 + t.  The
    search fills cells in row-major order, so each relabelling is a different
    search tree over the same arrays: 960 for t = 1.
    """

    def __init__(self, ctx: Context, rng: random.Random) -> None:
        pfarray = ctx.lib["pfarray"]
        pool = ctx.expected["k3"]["pool"]
        self.order = list(range(len(pool)))
        rng.shuffle(self.order)
        self.skeletons = []
        for i in self.order:
            t, perm = pool[i]
            filled = frozenset((r, c) for r in range(1, 5) for c in range(1, 5)
                               if c != perm[r - 1])
            self.skeletons.append((t, perm, pfarray.Skeleton(4, 4, filled)))


def searched_set_digest(arrays, perm: list[int] | None) -> str:
    """Digest of searched arrays as a set up to sign, on the cyclic skeleton.

    Row i of an array on the skeleton of ``perm`` is row (perm[i]-2) % 4 + 1 of
    the cyclic three-diagonal skeleton, whose row r is empty in column r % 4 + 1.
    """
    keys = []
    for a in arrays:
        rows = [list(r) for r in a.cells]
        if perm is not None:
            moved = [None] * 4
            for i, row in enumerate(rows):
                moved[(perm[i] - 2) % 4] = row
            rows = moved
        plus = [[None if x is None else x % a.v for x in r] for r in rows]
        minus = [[None if x is None else (-x) % a.v for x in r] for r in rows]
        keys.append(min(json.dumps(plus), json.dumps(minus)))
    return digest(json.dumps(sorted(keys)))


def _search_job(ctx: Context, state: K3, index: int) -> Job:
    job = Job()
    t, perm, skel = state.skeletons[index]
    exp = ctx.expected["k3"]["by_t"][str(t)]
    validation = ctx.lib["validation"]
    found = []
    try:
        found = ctx.timed(job, lambda: validation.search_heffter(
            4, 4, 3, 3, t, limit=1 << 30, skeleton=skel), unit=True)
    except Exception:
        job.problems.append(f"search: traceback: {traceback.format_exc()[-300:]}")
    check_command(job, "search", lambda: [
        (len(found) == exp["count"], f"{len(found)} arrays"),
        (searched_set_digest(found, perm) == exp["set_digest"], "searched array set differs"),
    ])
    return job


# -- registry --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str  # the command whose median time is cmd_ms.p50
    make: object  # (ctx, rng) -> state
    job: object  # (ctx, state, index) -> Job
    max_jobs: object  # state -> int


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "embed_h207",
            "bundled 11x11 array over Z_207: face tracing is ~90% of an embed; verify, "
            "tour-enum and a 900 KB faces --all listing ride along",
            "embed", H207, _h207_job,
            lambda st: min(len(st.plan) // ARRAYS_PER_JOB,
                           len(st.solution_order) // SOLUTIONS_PER_JOB),
        ),
        Workload(
            "pipeline_z43",
            "pipeline on searched 7x7 arrays over Z_43: iso.classify is ~90% of "
            "the job; the only workload writing files",
            "pipeline", Z43, _pipeline_job,
            lambda st: len(st.files),
        ),
        Workload(
            "search_k3",
            "exhaustive search of relabelled 4x4 k=3 skeletons: backtracking is "
            "all of the job and no other layer runs",
            "search_heffter", K3, _search_job,
            lambda st: len(st.skeletons),
        ),
    )
}
