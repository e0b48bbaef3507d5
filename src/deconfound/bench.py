"""Monte Carlo experiment harness: error sweeps, ablations, convergence stats.

Each experiment cell (sample size, method) runs a fixed number of independent
generate-then-fit replicates.  Replicate r of cell (n, method m) draws its
randomness from the substream seeded by (seed_base, n, m, r), so any cell can
be reproduced in isolation and results do not depend on execution order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np

from .basis import build_basis
from .errors import FeasibilityError
from .pipeline import DecorConfig, Method, decor_fit
from .robust import resolve_count
from .sim import SimConfig, generate, make_rng

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
        grid = tuple(int(n) for n in self.n_grid)
        if not grid:
            raise ValueError("n_grid must be non-empty")
        if list(grid) != sorted(grid):
            raise ValueError("n_grid must be sorted ascending")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        for n in grid:
            build_basis(self.sim.basis_kind, n)
        # every size below must fit the smallest grid entry, so no cell fails on it mid-run
        n = grid[0]
        if self.sim.d > n:
            raise ValueError(f"sim.d = {self.sim.d} exceeds the smallest grid size n={n}")
        for i, cfg in enumerate(self.methods):
            if cfg.method is not Method.OLS_BASELINE:
                try:
                    resolve_count(cfg.a, n)
                except ValueError as e:
                    raise ValueError(f"methods[{i}].a at the smallest grid size n={n}: {e}") from None
        for name in ("eps_process", "u_process"):
            support = getattr(getattr(self.sim, name), "support", None)
            if support and max(support) > n:
                raise ValueError(
                    f"sim.{name} band support index {max(support)} exceeds the smallest grid size n={n}"
                )
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class ResultRow:
    """Aggregated cell result; ``failed`` replicates are excluded from the MAE."""

    n: int
    method: str
    sigma_eta2: float
    conf_prob: float
    mae: float
    mae_stderr: float
    mean_iterations: float
    max_iterations: int
    replicates_failed: int


@dataclass(frozen=True)
class ReplicateRecord:
    """Per-replicate error log entry backing the aggregated rows."""

    n: int
    method: str
    sigma_eta2: float
    conf_prob: float
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
        base = _METHOD_LABELS[Method(cfg.method)]
        seen[base] = seen.get(base, 0) + 1
        labels.append(base if seen[base] == 1 else f"{base}#{seen[base]}")
    return labels


def _replicate_seed(seed_base: int, n: int, method_index: int, r: int):
    return np.random.SeedSequence(entropy=(seed_base, n, method_index, r))


def run_experiment(spec: ExperimentSpec):
    """Run every (n, method) cell; returns ``(rows, records)``.

    Replicates that raise a feasibility error (an exhaustive-search cell too
    large for its cap) are counted in ``replicates_failed`` and excluded from
    the error statistics; the sweep itself never aborts.
    """
    labels = method_labels(spec.methods)
    rows: list[ResultRow] = []
    records: list[ReplicateRecord] = []
    for n in spec.n_grid:
        sim_n = replace(spec.sim, n=n)
        beta_true = sim_n.beta_vector()
        for m_index, (cfg, label) in enumerate(zip(spec.methods, labels)):
            cell: list[ReplicateRecord] = []
            for r in range(spec.replicates):
                rng = make_rng(_replicate_seed(spec.seed_base, n, m_index, r))
                x, y, _ = generate(sim_n, rng=rng)
                try:
                    est = decor_fit(x, y, cfg)
                except FeasibilityError:
                    failed, err, iterations = True, float("nan"), 0
                else:
                    err = float(np.mean(np.abs(est.beta - beta_true)))
                    failed, iterations = False, est.iterations
                cell.append(
                    ReplicateRecord(
                        n=n,
                        method=label,
                        sigma_eta2=sim_n.sigma_eta2,
                        conf_prob=sim_n.conf_prob,
                        replicate=r,
                        abs_error=err,
                        iterations=iterations,
                        failed=failed,
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
            rows.append(
                ResultRow(
                    n=n,
                    method=label,
                    sigma_eta2=sim_n.sigma_eta2,
                    conf_prob=sim_n.conf_prob,
                    mae=mae,
                    mae_stderr=stderr,
                    mean_iterations=mean_iter,
                    max_iterations=max_iter,
                    replicates_failed=len(cell) - len(fitted),
                )
            )
    return rows, records


@dataclass(frozen=True)
class SweepVerdict:
    """Consistency-trend summary of an error-versus-n sweep.

    ``robust_halved``: the robust method's MAE at the largest n fell below
    half its value at the smallest n.  ``baseline_floor_held``: plain least
    squares stayed above ``floor`` times its smallest-n MAE, i.e. showed no
    comparable improvement.
    """

    robust_halved: bool
    baseline_floor_held: bool
    robust_first: float
    robust_last: float
    baseline_first: float
    baseline_last: float


def run_consistency_sweep(spec: ExperimentSpec, floor: float = 0.5):
    """Error-versus-n sweep of the robust pipeline against plain least squares.

    Returns ``(rows, records, verdict)``.  The method list is forced to the
    pair (robust, baseline): the first torrent entry of ``spec.methods`` is
    used as the robust configuration (defaults otherwise) and the baseline
    shares its basis.
    """
    if len(spec.n_grid) < 4:
        raise ValueError("a consistency sweep needs at least 4 grid points")
    tor = next(
        (m for m in spec.methods if Method(m.method) is Method.TORRENT),
        DecorConfig(),
    )
    ols = DecorConfig(basis_kind=tor.basis_kind, method=Method.OLS_BASELINE)
    pair_spec = replace(spec, methods=(tor, ols))
    rows, records = run_experiment(pair_spec)
    tor_by_n = {r.n: r.mae for r in rows if r.method == "DecoR-Tor"}
    ols_by_n = {r.n: r.mae for r in rows if r.method == "OLS"}
    n_lo, n_hi = spec.n_grid[0], spec.n_grid[-1]
    verdict = SweepVerdict(
        robust_halved=tor_by_n[n_hi] < 0.5 * tor_by_n[n_lo],
        baseline_floor_held=ols_by_n[n_hi] > floor * ols_by_n[n_lo],
        robust_first=tor_by_n[n_lo],
        robust_last=tor_by_n[n_hi],
        baseline_first=ols_by_n[n_lo],
        baseline_last=ols_by_n[n_hi],
    )
    return rows, records, verdict


class AblationKind(str, enum.Enum):
    OUTLIER_FRACTION = "outlier_fraction"
    DENSE_NOISE = "dense_noise"
    TWO_DIM = "two_dim"


DEFAULT_FRACTION_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


def run_ablation(
    kind: AblationKind,
    spec: ExperimentSpec,
    fraction_grid: tuple[float, ...] = DEFAULT_FRACTION_GRID,
    margin: float = 0.05,
):
    """Robustness/misspecification studies; returns ``(rows, records)``.

    * outlier_fraction — sweep the confounded fraction over ``fraction_grid``
      at the largest grid n, keeping ``ceil((1 - fraction - margin) * n)``
      rows.  The count is computed exactly from the decimals the fractions
      print as: in floats ``1.0 - 0.7 - 0.05`` exceeds 0.25 and would keep
      129 of 512 rows instead of 128.
    * dense_noise — unit-variance Gaussian noise added to the confounder path
      (the sparsity assumption is deliberately broken), swept over n.
    * two_dim — two covariate columns sharing one confounder, swept over n,
      against the least-squares baseline.
    """
    kind = AblationKind(kind)
    rows: list[ResultRow] = []
    records: list[ReplicateRecord] = []
    if kind is AblationKind.OUTLIER_FRACTION:
        n = spec.n_grid[-1]
        for q in fraction_grid:
            keep = 1 - Fraction(str(float(q))) - Fraction(str(float(margin)))
            if keep <= 0:
                raise ValueError(f"confounded fraction {q} leaves no inliers")
            sub = replace(
                spec,
                sim=replace(spec.sim, conf_prob=q),
                n_grid=(n,),
                methods=(DecorConfig(basis_kind=spec.sim.basis_kind, a=math.ceil(keep * n)),),
            )
            r, rec = run_experiment(sub)
            rows.extend(r)
            records.extend(rec)
    elif kind is AblationKind.DENSE_NOISE:
        sub = replace(
            spec,
            sim=replace(spec.sim, dense_u_noise_std=1.0),
            methods=(DecorConfig(basis_kind=spec.sim.basis_kind),),
        )
        rows, records = run_experiment(sub)
    else:
        sub = replace(
            spec,
            sim=replace(spec.sim, d=2),
            methods=(
                DecorConfig(basis_kind=spec.sim.basis_kind),
                DecorConfig(basis_kind=spec.sim.basis_kind, method=Method.OLS_BASELINE),
            ),
        )
        rows, records = run_experiment(sub)
    return rows, records


def write_rows(path, header: str, rows) -> None:
    """Write dataclass rows as CSV under ``header``, one column per field in field order.

    A float is written as its ``repr``, so it reads back bit-exactly, and a bool as 0 or 1.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            # not dataclasses.astuple, which deep-copies every value (3x slower here)
            cells = [getattr(row, f.name) for f in fields(row)]
            cells = [int(v) if isinstance(v, bool) else v for v in cells]
            fh.write(",".join(v if isinstance(v, str) else repr(v) for v in cells) + "\n")
