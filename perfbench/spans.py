"""Spans around calls into the heffter layers, recorded from outside the library.

A :class:`Tracer` replaces each traced public function at the module attribute
its callers look up (``iso.find_isomorphism`` for ``classify``,
``kernels.trace_orbits`` for ``trace_faces``, ``embedding.validate_heffter``
for ``build_embedding`` ...), records one span per call in memory, and puts
the originals back on :meth:`Tracer.uninstall`.  A layer's self time is its
span's duration minus the durations of its child spans; the benchmark runs in
one thread, so child spans never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

# (module, attribute, span name).  One span name may be installed at several
# attributes when callers import the function under their own module's name.
WRAPPED = (
    ("pfarray", "parse_array", "pfarray.parse_array"),
    ("validation", "validate_heffter", "validation.validate_heffter"),
    ("embedding", "validate_heffter", "validation.validate_heffter"),
    ("iso", "validate_heffter", "validation.validate_heffter"),
    ("validation", "search_heffter", "validation.search_heffter"),
    ("knight", "enumerate_solutions", "knight.enumerate_solutions"),
    ("kernels", "scan_orientations", "kernels.scan_orientations"),
    ("embedding", "build_embedding", "embedding.build_embedding"),
    ("embedding", "trace_faces", "embedding.trace_faces"),
    ("kernels", "trace_orbits", "kernels.trace_orbits"),
    ("embedding", "biembedding_report", "embedding.biembedding_report"),
    ("iso", "classify", "iso.classify"),
    ("iso", "find_isomorphism", "iso.find_isomorphism"),
    ("iso", "stabilizer", "iso.stabilizer"),
    ("iso", "verify_map", "iso.verify_map"),
)

CLI_SPAN = "cli"

# Per-layer metric -> (unit, better, end-to-end metric it should move, workloads).
# Per-job values: each is the median, over the traced jobs of a run, of the
# job's total.  Layers that do not run on a workload report 0 there.
LAYER_METRICS = {
    "embedding.trace_faces.calls": ("count", "lower",
                                    "cmd_ms.p50, job_s", "embed_h207, pipeline_z43"),
    "embedding.trace_faces.self_s": ("s", "lower",
                                     "cmd_ms.p50, job_s", "embed_h207, pipeline_z43"),
    "embedding.trace_faces.faces": ("count", "lower",
                                    "cmd_ms.p50, job_s", "embed_h207, pipeline_z43"),
    "embedding.trace_faces.edges": ("count", "lower",
                                    "cmd_ms.p50, job_s", "embed_h207, pipeline_z43"),
    "kernels.trace_orbits.self_s": ("s", "lower", "cmd_ms.p50, job_s", "embed_h207"),
    "embedding.build_embedding.calls": ("count", "lower",
                                        "cmd_ms.p50", "embed_h207, pipeline_z43"),
    "embedding.build_embedding.self_s": ("s", "lower", "cmd_ms.p50", "embed_h207, pipeline_z43"),
    "embedding.biembedding_report.self_s": ("s", "lower",
                                            "cmd_ms.p50", "embed_h207, pipeline_z43"),
    "iso.classify.self_s": ("s", "lower", "job_s", "pipeline_z43"),
    "iso.find_isomorphism.calls": ("count", "lower", "job_s", "pipeline_z43"),
    "iso.find_isomorphism.self_s": ("s", "lower", "job_s", "pipeline_z43"),
    "iso.find_isomorphism.hit_ratio": ("ratio", "higher", "job_s", "pipeline_z43"),
    "iso.stabilizer.calls": ("count", "lower", "job_s", "pipeline_z43"),
    "iso.stabilizer.self_s": ("s", "lower", "job_s", "pipeline_z43"),
    "iso.verify_map.calls": ("count", "lower",
                             "job_s; cmd_ms.p50 (tau1 check)", "pipeline_z43; embed_h207"),
    "iso.verify_map.self_s": ("s", "lower",
                              "job_s; cmd_ms.p50 (tau1 check)", "pipeline_z43; embed_h207"),
    "validation.search_heffter.self_s": ("s", "lower", "job_s", "search_k3"),
    "validation.search_heffter.arrays": ("count", "higher", "job_s", "search_k3"),
    "validation.validate_heffter.calls": ("count", "lower",
                                          "cmd_ms.p50", "embed_h207, pipeline_z43"),
    "validation.validate_heffter.self_s": ("s", "lower", "cmd_ms.p50", "embed_h207, pipeline_z43"),
    "knight.enumerate_solutions.self_s": ("s", "lower", "job_s", "embed_h207"),
    "knight.enumerate_solutions.pairs": ("count", "lower", "job_s", "embed_h207"),
    "knight.enumerate_solutions.solutions": ("count", "higher", "job_s", "embed_h207"),
    "kernels.scan_orientations.self_s": ("s", "lower", "job_s", "embed_h207"),
    "pfarray.parse_array.calls": ("count", "lower", "setup_s, cmd_ms.p50", "all"),
    "pfarray.parse_array.self_s": ("s", "lower", "setup_s, cmd_ms.p50", "all"),
    "cli.self_s": ("s", "lower",
                   "job_s (faces --all JSON; pipeline files)", "embed_h207, pipeline_z43"),
    "cli.bytes_out": ("B", "lower", "job_s", "embed_h207"),
    "cli.bytes_written": ("B", "lower", "job_s", "pipeline_z43"),
    "trace.overhead_s": ("s", "lower", "(traced job_s minus untraced job_s)", "all"),
}


def _count_result(name: str, args: tuple, kwargs: dict, result, counts: dict) -> None:
    """Work counters taken at the layer boundary from arguments and results."""
    if name == "embedding.trace_faces":
        emb = args[0]
        counts[name + ".faces"] += result.count
        counts[name + ".edges"] += emb.v * len(emb.connection)
    elif name == "iso.find_isomorphism":
        counts[name + ".hits"] += result is not None
    elif name == "validation.search_heffter":
        counts[name + ".arrays"] += len(result)
    elif name == "knight.enumerate_solutions":
        skel = args[0]
        trivial = kwargs.get("trivial_rows", False)
        counts[name + ".pairs"] += 1 << (skel.n if trivial else skel.m + skel.n)
        counts[name + ".solutions"] += len(result)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = False
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            _count_result(name, args, kwargs, result, self.counts)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Replace every function in :data:`WRAPPED` by its traced wrapper."""
        for mod_name, attr, name in WRAPPED:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:  # the layer is gone; its metrics read 0
                continue
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    # -- per-job summaries ------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Position to pass to :meth:`job_totals` after a job has run."""
        return len(self.spans), dict(self.counts)

    def job_totals(self, since: tuple[int, dict]) -> dict[str, float]:
        """Calls, self seconds and counters of the spans recorded after ``since``."""
        first, counts_before = since
        spans = self.spans[first:]
        child_time: dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end in spans:
            child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _parent, name, start, end in spans:
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start) - child_time[sid]
        for key, value in self.counts.items():
            out[key] += value - counts_before.get(key, 0)
        return out


def layer_metrics(job_totals: list[dict[str, float]], overhead_s: float) -> dict:
    """Per-layer metrics from the totals of each traced job."""
    def med(key: str) -> float:
        return median(t.get(key, 0.0) for t in job_totals)

    values = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_s":
            values[name] = overhead_s
        elif name == "iso.find_isomorphism.hit_ratio":
            calls = sum(t.get("iso.find_isomorphism.calls", 0.0) for t in job_totals)
            hits = sum(t.get("iso.find_isomorphism.hits", 0.0) for t in job_totals)
            values[name] = hits / calls if calls else 0.0
        else:
            values[name] = med(name)
    return {name: {"value": values[name], "unit": LAYER_METRICS[name][0]}
            for name in LAYER_METRICS}
