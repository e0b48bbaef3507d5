"""Monte Carlo experiment harness: every study is an ``ExperimentSpec`` (see ``specs/``).

Each experiment cell (sample size, method) runs a fixed number of independent
generate-then-fit replicates.  Replicate r of cell (n, method m) draws its
randomness from the substream seeded by (seed_base, n, m, r), so any cell can
be reproduced in isolation and results do not depend on execution order.
Each cell logs one INFO line to the ``deconfound.bench`` logger.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .basis import build_basis
from .errors import FeasibilityError, check_count
from .pipeline import DecorConfig, Method, check_sample_count, decor_fit
from .robust import _enumeration_count, resolve_count
from .sim import SimConfig, check_support_fits, generate

_log = logging.getLogger(__name__)

RESULT_CSV_HEADER = "n,method,sigma_eta2,conf_prob,mae,mae_stderr,mean_iter,max_iter,failed"
RECORD_CSV_HEADER = "n,method,sigma_eta2,conf_prob,replicate,abs_error,iterations,failed"


@dataclass(frozen=True)
class ExperimentSpec:
    """A grid of sample sizes crossed with a list of pipeline configurations.

    ``sim`` acts as a template; its ``n`` is overridden by each grid entry, so
    every entry must be a sample size the basis admits (Haar: a power of two).
    """

    sim: SimConfig
    n_grid: tuple[int, ...]
    methods: tuple[DecorConfig, ...] = (DecorConfig(),)
    replicates: int = 1000
    seed_base: int = 0

    def __post_init__(self):
        grid = tuple(check_count("n_grid entry", n) for n in self.n_grid)
        if not grid:
            raise ValueError("n_grid must be non-empty")
        if list(grid) != sorted(grid):
            raise ValueError("n_grid must be sorted ascending")
        if len(set(grid)) < len(grid):  # a repeated size would run its cells twice
            raise ValueError(f"n_grid must not repeat a size, got {grid}")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for name, low in ("replicates", 1), ("seed_base", 0):
            object.__setattr__(self, name, check_count(name, getattr(self, name), low))
        for n in grid:
            build_basis(self.sim.basis_kind, n)
        # every size below must fit the smallest grid entry, so no cell fails on it mid-run
        n = grid[0]
        _check_at(n, f"sim.d = {self.sim.d}", check_sample_count, n, self.sim.d)
        for i, cfg in enumerate(self.methods):
            if cfg.method is not Method.OLS_BASELINE:
                _check_at(n, f"methods[{i}].a", resolve_count, cfg.a, n)
        for name in ("eps_process", "u_process"):
            _check_at(n, f"sim.{name}", check_support_fits, getattr(self.sim, name), n)
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "methods", tuple(self.methods))


def _check_at(n: int, field: str, check, *args) -> None:
    """Apply the rule that ``check`` owns; its error is re-raised behind ``field`` and ``n``."""
    try:
        check(*args)
    except ValueError as e:
        raise ValueError(f"{field} at the smallest grid size n={n}: {e}") from None


@dataclass(frozen=True)
class _CellKey:
    """The cell an entry belongs to; its fields lead both CSV headers."""

    n: int
    method: str
    sigma_eta2: float
    conf_prob: float


@dataclass(frozen=True)
class ResultRow(_CellKey):
    """Aggregated cell result; ``failed`` replicates are excluded from the MAE."""

    mae: float
    mae_stderr: float
    mean_iterations: float
    max_iterations: int
    replicates_failed: int


@dataclass(frozen=True)
class ReplicateRecord(_CellKey):
    """Per-replicate error log entry backing the aggregated rows."""

    replicate: int
    abs_error: float
    iterations: int
    failed: bool


_METHOD_LABELS = {
    Method.TORRENT: "DecoR-Tor",
    Method.BFS: "DecoR-BFS",
    Method.OLS_BASELINE: "OLS",
}


def method_labels(methods) -> list[str]:
    """Stable display labels, disambiguated when a method kind repeats."""
    labels = []
    seen: dict[str, int] = {}
    for cfg in methods:
        base = _METHOD_LABELS[cfg.method]
        seen[base] = seen.get(base, 0) + 1
        labels.append(base if seen[base] == 1 else f"{base}#{seen[base]}")
    return labels


def _words(*values: int) -> list[int]:
    """The little-endian 32-bit words of each value in turn, 0 as one word: the words numpy
    splits a tuple of ints into when it seeds a ``SeedSequence`` from it."""
    words = []
    for v in values:
        words.append(v & 0xFFFFFFFF)
        while v := v >> 32:
            words.append(v & 0xFFFFFFFF)
    return words


def _substreams():
    """One generator and ``rekey``, which sets it to draw what ``make_rng(SeedSequence(ints))``
    draws, given the ``_words`` of ``ints``, and returns it.

    Philox is counter-based: its key and counter alone fix its stream.  So ``rekey`` sets
    the key that ``SeedSequence`` derives and a fresh state (counter 0, empty buffer, no
    half-used 32-bit word) in place of building a new ``Philox``.
    """
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    fresh = bits.state

    def rekey(words: list[int]) -> np.random.Generator:
        seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
        fresh["state"]["key"] = seq.generate_state(2, np.uint64)
        bits.state = fresh
        return rng

    return rekey


def run_experiment(spec: ExperimentSpec):
    """Run every (n, method) cell; returns ``(rows, records)``.

    An exhaustive-search cell whose C(n, a) exceeds ``robust.SUBSET_ENUMERATION_CAP`` fails
    every replicate, which is decided once per cell: it draws and fits nothing, and its
    replicates are counted in ``replicates_failed`` and excluded from the error statistics.
    The sweep itself never aborts on it.  The call draws every replicate from one generator
    of its own (``_substreams``), so calls may run in parallel threads.  It reads only the
    ``beta`` and ``iterations`` of each fit, so no replicate builds the time-domain report.
    """
    rekey = _substreams()
    labels = method_labels(spec.methods)
    rows: list[ResultRow] = []
    records: list[ReplicateRecord] = []
    for n in spec.n_grid:
        sim_n = replace(spec.sim, n=n)
        beta_true = sim_n.beta_vector()
        for m_index, (cfg, label) in enumerate(zip(spec.methods, labels)):
            start = time.perf_counter()
            key = vars(_CellKey(n, label, sim_n.sigma_eta2, sim_n.conf_prob))
            if cfg.method is not Method.OLS_BASELINE:  # the threshold as a count, once a cell
                cfg = replace(cfg, a=resolve_count(cfg.a, n))
            cell_words = _words(spec.seed_base, n, m_index)
            cell: list[ReplicateRecord] = []
            feasible = True
            if cfg.method is Method.BFS:  # (n, size) alone decides it, so once a cell
                try:
                    _enumeration_count(n, cfg.a)
                except FeasibilityError:
                    feasible = False
            for r in range(spec.replicates):
                if feasible:
                    x, y, _ = generate(sim_n, rng=rekey(cell_words + _words(r)))
                    est = decor_fit(x, y, cfg)
                    err = float(np.add.reduce(np.abs(est.beta - beta_true))) / beta_true.size
                    failed, iterations = False, est.iterations
                else:
                    failed, err, iterations = True, float("nan"), 0
                cell.append(
                    ReplicateRecord(
                        **key, replicate=r, abs_error=err, iterations=iterations, failed=failed
                    )
                )
            records.extend(cell)
            fitted = [rec for rec in cell if not rec.failed]
            if fitted:
                arr = np.asarray([rec.abs_error for rec in fitted])
                mae = float(arr.mean())
                stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
                mean_iter = float(np.mean([rec.iterations for rec in fitted]))
                max_iter = max(rec.iterations for rec in fitted)
            else:
                mae, stderr, mean_iter, max_iter = float("nan"), float("nan"), float("nan"), 0
            failed_count, wall = len(cell) - len(fitted), time.perf_counter() - start
            _log.info(
                "cell n=%d method=%s: %d replicates, %d failed, %.3g s, %.0f fits/s",
                n, label, len(cell), failed_count, wall, len(cell) / wall,
            )
            rows.append(
                ResultRow(
                    **key,
                    mae=mae,
                    mae_stderr=stderr,
                    mean_iterations=mean_iter,
                    max_iterations=max_iter,
                    replicates_failed=failed_count,
                )
            )
    return rows, records


def write_csv(path, names, rows) -> None:
    """Write ``rows`` as CSV under the header ``names``: comma separated, UTF-8, LF line endings.

    The csv module writes a float, Python's or numpy's, as its shortest round-trip repr,
    so every value reads back bit-exactly.  This is the one CSV writer of the package.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(rows)


def write_rows(path, header: str, rows) -> None:
    """Write dataclass rows as CSV under ``header``, one column per field in field order.

    A bool is written as 0 or 1; every other value as ``write_csv`` writes it.
    """
    # not dataclasses.astuple, which deep-copies every value (3x slower here)
    cells = ([getattr(row, f.name) for f in fields(row)] for row in rows)
    written = ([int(v) if isinstance(v, bool) else v for v in row] for row in cells)
    write_csv(path, header.split(","), written)
