#!/usr/bin/env python3
"""End-to-end benchmark of the heffter CLI, with an optional traced run.

    python3 perfbench/run.py --workload embed_h207 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The workload's jobs run in a closed loop for ``--seconds``
seconds (see ``workloads.py``), every output is checked against
``expected.json``, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics ``setup_s``, ``job_s``,
  ``cmd_ms.p50`` and ``peak_rss_mb``; the three times are scaled by the
  host's speed at the time (see ``REFERENCE_S``).
* ``--trace 1``: the per-layer metrics of ``spans.LAYER_METRICS``.  Jobs
  alternate untraced and traced; the layers come from the traced jobs and
  ``trace.overhead_s`` is the median traced job minus the median untraced one,
  both scaled like ``job_s``.

Lines before it give every metric with its unit and sample count, the
failure ratio and the environment.  A run record, with the spans of a traced
run, is written under ``.perfbench_work/`` in the checkout.

Only the pure-NumPy kernels are measured: the benchmark selects them, and
refuses to run when the library reports another backend, so that no two
results with different backends are ever compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5  # one in this process, the others in fresh child processes
# A shared host's speed drifts by 10-20% over seconds to minutes, alike for
# all pure-Python work.  A fixed reference loop runs after each set-up and
# between jobs (for about REFERENCE_SHARE of a job, at least REFERENCE_MIN
# times), and each time is reported scaled by REFERENCE_S / (median
# reference loop time around it): the time at the speed where the loop takes
# REFERENCE_S, about its time on the 2-core Xeon host used to make
# expected.json.
REFERENCE_S = 0.020
REFERENCE_SHARE = 0.05
REFERENCE_MIN = 3

sys.path.insert(0, str(HERE))
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up in this fresh process, print it and exit")
    p.add_argument("--expected", type=Path, default=HERE / "expected.json",
                   help="expected outputs to check against")
    return p.parse_args(argv)


def find_library() -> None:
    src = ROOT / "src"
    if not (src / "heffter" / "__init__.py").is_file():
        raise BenchError(f"no heffter sources under {src}: run from a source checkout")
    sys.path.insert(0, str(src))
    os.environ["HEFFTER_PURE_NUMPY"] = "1"


def set_up(args, workdir: Path, expected: dict, tracer: Tracer):
    """Import the library and make the workload's inputs; return (seconds, ctx, state)."""
    ctx = Context(ROOT, workdir, expected, tracer)
    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    ctx.load_library()
    state = workload.make(ctx, random.Random(f"{args.workload}:{args.seed}"))
    seconds = time.perf_counter() - t0
    heffter_file = Path(sys.modules["heffter"].__file__).resolve()
    if ROOT / "src" not in heffter_file.parents:
        raise BenchError(f"heffter was imported from {heffter_file}, not from this checkout")
    return seconds, ctx, state


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python computation: the host's speed now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def reference_time(job_s: float = 0.0) -> float:
    """Median time of reference loops run now, for REFERENCE_SHARE of ``job_s``."""
    loops = max(REFERENCE_MIN, round(REFERENCE_SHARE * job_s / REFERENCE_S))
    return median(reference_loop() for _ in range(loops))


def probe_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh process and its host scale, measured in a child."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
           "--expected", str(args.expected)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    raw, scale = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scale)


def environment(ctx: Context) -> dict:
    import numpy

    kernels = ctx.lib["kernels"]
    active = getattr(kernels, "active_backend", None)
    return {
        "backend": active() if active else "numpy",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(args) -> int:
    find_library()
    expected = json.loads(args.expected.read_text())
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer()
    try:
        if args.setup_probe:
            seconds, _, _ = set_up(args, workdir, expected, tracer)
            print(repr(seconds), repr(REFERENCE_S / reference_time()))
            return 0
        setup_samples = [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        seconds, ctx, state = set_up(args, workdir, expected, tracer)
        setup_samples.append((seconds, REFERENCE_S / reference_time()))
        env = environment(ctx)
        if env["backend"] != "numpy":
            raise BenchError(f"kernel backend is {env['backend']!r}; only the pure-NumPy "
                             "path is measured, so results stay comparable")
        return measure(args, ctx, state, setup_samples, env, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ctx: Context, state, setup_samples, env, tracer: Tracer) -> int:
    workload = WORKLOADS[args.workload]
    if args.trace:
        tracer.install(ctx.lib)
    max_jobs = workload.max_jobs(state)
    min_jobs = 2 if args.trace else 1
    jobs, traced_totals, wall_s = [], [], []
    ref_s = [reference_time()]  # before each job and after the last
    deadline = time.perf_counter() + args.seconds
    try:
        while len(jobs) < max_jobs:
            traced = bool(args.trace) and len(jobs) % 2 == 1
            tracer.enabled = traced
            mark = tracer.mark()
            t0 = time.perf_counter()
            job = workload.job(ctx, state, len(jobs))
            wall_s.append(time.perf_counter() - t0)
            tracer.enabled = False
            ref_s.append(reference_time(wall_s[-1]))
            jobs.append(job)
            if traced:
                traced_totals.append(tracer.job_totals(mark))
            # stop where the next job would end more than half a job past the deadline
            if (len(jobs) >= min_jobs
                    and time.perf_counter() + median(wall_s) / 2 >= deadline):
                break
    finally:
        tracer.uninstall()

    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    unit_s = [s for j in jobs for s in j.unit_s]
    scales = [2 * REFERENCE_S / (before + after) for before, after in zip(ref_s, ref_s[1:])]
    job_s = [j.seconds * k for j, k in zip(jobs, scales)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fail_ratio = failed / attempted if attempted else 1.0

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(jobs)} jobs, closed loop, 1 client, 1 thread")
    print("# environment " + json.dumps(env, sort_keys=True))
    for j in jobs:
        for problem in j.problems:
            print(f"# FAILED {problem}")
    print(f"# fail_ratio = {fail_ratio:.6g} ({failed} of {attempted} commands)")

    if args.trace:
        traced_s, untraced_s = job_s[1::2], job_s[0::2]  # odd jobs are traced
        overhead = median(traced_s) - median(untraced_s)
        metrics = layer_metrics(traced_totals, overhead)
        print(f"# tracing overhead: {overhead:.6g} s per job "
              f"(traced {median(traced_s):.6g} s, untraced {median(untraced_s):.6g} s)")
    else:
        metrics = {
            "setup_s": {"value": median(raw * k for raw, k in setup_samples), "unit": "s"},
            "job_s": {"value": median(job_s), "unit": "s"},
            "cmd_ms.p50": {"value": 1000.0 * median(s * k for j, k in zip(jobs, scales)
                                                    for s in j.unit_s),
                           "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        samples = {"setup_s": len(setup_samples), "job_s": len(jobs),
                   "cmd_ms.p50": len(unit_s), "peak_rss_mb": 1}
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']} (n={samples[name]})"
                  + (f" [{workload.unit}]" if name == "cmd_ms.p50" else ""))
        print(f"# times are scaled by {REFERENCE_S} s / reference loop time, median scale "
              f"{median(scales):.6g} over {len(scales)} jobs.  Unscaled: setup_s = "
              f"{median(raw for raw, _ in setup_samples):.6g} s, job_s = "
              f"{median(j.seconds for j in jobs):.6g} s, cmd_ms.p50 = "
              f"{1000.0 * median(unit_s):.6g} ms")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "setup_s": setup_samples, "job_s": [j.seconds for j in jobs], "unit_s": unit_s,
              "reference_s": ref_s, "scales": scales,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "problems": [p for j in jobs for p in j.problems],
              "spans": [list(s) for s in tracer.spans]}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
