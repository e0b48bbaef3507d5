"""Per-layer tracing from outside the program.

Each layer's public functions are wrapped at the module attribute their
callers look up (``pipeline.transform``, ``bench.generate``, ...), so nothing
in ``src/`` changes.  A wrapped call records a span -- name, start, end and
the index of the enclosing span -- in memory, plus counters for the work it
did.  Self time is a span's duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

from deconfound import bench, cli, pipeline, robust, sim

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("basis.build_basis.calls", "count"),
    ("basis.build_basis.s", "s"),
    ("basis.transform.calls", "count"),
    ("basis.transform.s", "s"),
    ("basis.inverse_transform.calls", "count"),
    ("basis.inverse_transform.s", "s"),
    ("basis.bytes_computed", "B"),
    ("sim.generate.calls", "count"),
    ("sim.generate.s", "s"),
    ("sim.generate.self_s", "s"),
    ("robust.bfs.calls", "count"),
    ("robust.bfs.s", "s"),
    ("robust.bfs.sets", "count"),
    ("robust.candidate_sets_all_of_size.calls", "count"),
    ("robust.candidate_sets_all_of_size.s", "s"),
    ("robust.infeasible", "count"),
    ("robust.torrent.calls", "count"),
    ("robust.torrent.s", "s"),
    ("robust.torrent.iterations", "count"),
    ("robust.hard_threshold.calls", "count"),
    ("robust.hard_threshold.s", "s"),
    ("robust.ols.calls", "count"),
    ("robust.ols.s", "s"),
    ("pipeline.decor_fit.calls", "count"),
    ("pipeline.decor_fit.s", "s"),
    ("pipeline.decor_fit.self_s", "s"),
    ("pipeline.basis_builds_per_fit", "ratio"),
    ("bench.run_experiment.calls", "count"),
    ("bench.run_experiment.s", "s"),
    ("bench.run_experiment.self_s", "s"),
    ("bench.replicates", "count"),
    ("bench.replicates_failed", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.read_series_csv.s", "s"),
    ("cli.bytes_in", "B"),
    ("cli.bytes_out", "B"),
    ("setup.import_s", "s"),
    ("setup.import_scipy_signal_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _dense_bytes(counts, args, kwargs, result):
    # a dense transform reads the n x n basis once: n^2 float64 values
    basis = args[1] if len(args) > 1 else kwargs["basis"]
    counts["basis.bytes_computed"] += basis.n * basis.n * 8


def _bfs_sets(counts, args, kwargs, result):
    counts["robust.bfs.sets"] += len(args[1] if len(args) > 1 else kwargs["candidate_sets"])


def _torrent_iterations(counts, args, kwargs, result):
    counts["robust.torrent.iterations"] += result.iterations


def _replicates(counts, args, kwargs, result):
    records = result[1]
    counts["bench.replicates"] += len(records)
    counts["bench.replicates_failed"] += sum(r.failed for r in records)


def _bytes_in(counts, args, kwargs, result):
    counts["cli.bytes_in"] += os.path.getsize(args[0])


def _bytes_out(counts, args, kwargs, result):
    argv = list(args[0])
    if "--out" in argv:
        counts["cli.bytes_out"] += os.path.getsize(argv[argv.index("--out") + 1])


# (module, attribute the callers look up, span name, counter hook)
WRAPPED = (
    (pipeline, "build_basis", "basis.build_basis", None),
    (bench, "build_basis", "basis.build_basis", None),
    (sim, "build_basis", "basis.build_basis", None),
    (pipeline, "transform", "basis.transform", _dense_bytes),
    (sim, "transform", "basis.transform", _dense_bytes),
    (pipeline, "inverse_transform", "basis.inverse_transform", _dense_bytes),
    (sim, "inverse_transform", "basis.inverse_transform", _dense_bytes),
    (bench, "generate", "sim.generate", None),
    (robust, "bfs", "robust.bfs", _bfs_sets),
    (robust, "candidate_sets_all_of_size", "robust.candidate_sets_all_of_size", None),
    (robust, "torrent", "robust.torrent", _torrent_iterations),
    (robust, "hard_threshold", "robust.hard_threshold", None),
    (robust, "ols", "robust.ols", None),
    (bench, "decor_fit", "pipeline.decor_fit", None),
    (cli, "decor_fit", "pipeline.decor_fit", None),
    (bench, "run_experiment", "bench.run_experiment", _replicates),
    (cli, "main", "cli.main", _bytes_out),
    (cli, "read_series_csv", "cli.read_series_csv", _bytes_in),
)


class Tracer:
    """In-memory spans and counters for the wrapped layer functions."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, hook in WRAPPED:
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))

    def restore(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Calls, total and self seconds per span name, plus the counters."""
        child_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        builds_in_fit = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_s[i]
            if name == "basis.build_basis" and self._inside(i, "pipeline.decor_fit"):
                builds_in_fit += 1
        out.update(self.counts)
        out["robust.infeasible"] = self.counts[
            "robust.candidate_sets_all_of_size.raised.FeasibilityError"
        ]
        fits = out["pipeline.decor_fit.calls"]
        out["pipeline.basis_builds_per_fit"] = builds_in_fit / fits if fits else 0.0
        return dict(out)

    def _inside(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path, pass_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([pass_index, name, start, end, parent]) + "\n")
