"""Workload inputs, timed passes and per-op correctness checks.

A workload is a fixed set of ops made from the seed, split into a *cycle* of
passes.  A pass runs its ops in a closed loop with a single client: each op
starts only after the previous one returned.  A run repeats the cycle, and a
pass repeated over the same inputs must give bit-identical estimates.

The program is driven only through its public names, looked up on the module
where the caller looks them up, so the traced run can wrap the same names:

* harness workloads call ``bench.run_experiment``; an op is one replicate,
  timed from its ``bench.generate`` call to the return of its
  ``bench.decor_fit`` call, and every estimate that ``decor_fit`` returns is
  checked;
* ``fit_varied_n`` calls ``cli.main(["fit", ...])`` on pre-written CSVs; an
  op is one call, timed from outside, and its JSON output is checked.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from deconfound import bench, cli, robust
from deconfound.pipeline import DecorConfig, Method
from deconfound.sim import SimConfig, generate, make_rng

# |fitted + residuals - y| allowed by the per-op check.
RECONSTRUCTION_TOL = 1e-9

# "cycle" is the number of passes the workload's inputs are split into, so
# that a run times many short passes; the other entries are replicates per
# cell in one pass (harness) or the CSV files of the whole cycle
# (fit_varied_n).  A cycle holds enough fits to keep the cross-seed spread of
# est_mae within a few percent; the tiny sizes exist for the smoke test.
SIZES = {
    "full": {
        "cycle": {"table1": 4, "sweep_n1000": 6, "fit_varied_n": 8, "haar_d2": 4},
        "table1": 30,
        "sweep_n1000": 100,
        "haar_n8": 40,
        "haar_n16": 10,
        "haar_large": 10,
        "fit_files": 192,
        "fit_n": (256, 1024),
    },
    "tiny": {
        "cycle": {"table1": 2, "sweep_n1000": 2, "fit_varied_n": 2, "haar_d2": 2},
        "table1": 1,
        "sweep_n1000": 1,
        "haar_n8": 1,
        "haar_n16": 1,
        "haar_large": 1,
        "fit_files": 4,
        "fit_n": (16, 64),
    },
}


@dataclass
class PassResult:
    """What one pass did: ops, failures, timings and robust-fit errors."""

    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def est_mae(self) -> float:
        return statistics.fmean(self.errors) if self.errors else float("nan")


def check_fit(beta, n_inliers, expected_inliers, fitted, residuals, y) -> str | None:
    """The per-op correctness check; returns what is wrong, or None."""
    beta = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(beta)):
        return f"non-finite beta {beta.tolist()}"
    if n_inliers != expected_inliers:
        return f"{n_inliers} inliers, expected {expected_inliers}"
    gap = float(np.max(np.abs(np.asarray(fitted) + np.asarray(residuals) - y)))
    if not gap <= RECONSTRUCTION_TOL:
        return f"fitted + residuals misses y by {gap:.3g}"
    return None


# ----------------------------------------------------------- harness workloads


def table1_specs(seed_base: int, sizes: dict) -> list[bench.ExperimentSpec]:
    """The cells of specs/table1.json (sigma^2 = 1) at reduced replicates."""
    return [
        bench.ExperimentSpec(
            sim=SimConfig(n=8, d=1, beta=3.0, sigma_eta2=1.0, conf_prob=0.25),
            n_grid=(8, 12, 16),
            methods=(
                DecorConfig(method=Method.OLS_BASELINE),
                DecorConfig(method=Method.TORRENT, a=0.7, max_iter=100),
                DecorConfig(method=Method.BFS, a=0.7),
            ),
            replicates=sizes["table1"],
            seed_base=seed_base,
        )
    ]


def sweep_specs(seed_base: int, sizes: dict) -> list[bench.ExperimentSpec]:
    """The criterion-2 sweep: Torrent at a = 0.7, cosine, n in {10, 100, 1000}."""
    return [
        bench.ExperimentSpec(
            sim=SimConfig(n=10, sigma_eta2=1.0),
            n_grid=(10, 100, 1000),
            methods=(DecorConfig(method=Method.TORRENT, a=0.7),),
            replicates=sizes["sweep_n1000"],
            seed_base=seed_base,
        )
    ]


def haar_specs(seed_base: int, sizes: dict) -> list[bench.ExperimentSpec]:
    """Haar basis, d = 2: all three methods at n in {8, 16}, Torrent at n in {256, 1024}.

    n = 8 gets more replicates than n = 16 because its errors vary most
    across seeds and its fits are cheap, while BFS at n = 16 is not.
    """
    haar = DecorConfig(basis_kind="haar")
    small = (
        DecorConfig(basis_kind="haar", method=Method.OLS_BASELINE),
        haar,
        DecorConfig(basis_kind="haar", method=Method.BFS, a=0.7),
    )
    return [
        bench.ExperimentSpec(
            sim=SimConfig(n=grid[0], d=2, basis_kind="haar", sigma_eta2=1.0),
            n_grid=grid,
            methods=methods,
            replicates=sizes[size_key],
            seed_base=seed_base,
        )
        for grid, methods, size_key in (
            ((8,), small, "haar_n8"),
            ((16,), small, "haar_n16"),
            ((256, 1024), (haar,), "haar_large"),
        )
    ]


HARNESS = {"table1": table1_specs, "sweep_n1000": sweep_specs, "haar_d2": haar_specs}


def run_harness_pass(specs: list[bench.ExperimentSpec]) -> PassResult:
    res = PassResult()
    expected_ops = sum(s.replicates * len(s.n_grid) * len(s.methods) for s in specs)
    fits: list = []
    starts: list[float] = []
    real_generate, real_fit = bench.generate, bench.decor_fit

    def timed_generate(*args, **kwargs):
        starts.append(time.perf_counter())
        return real_generate(*args, **kwargs)

    def recorded_fit(x, y, config, *args, **kwargs):
        est = real_fit(x, y, config, *args, **kwargs)
        fits.append((time.perf_counter() - starts[-1], y, config, est))
        return est

    records = []
    bench.generate, bench.decor_fit = timed_generate, recorded_fit
    try:
        t0 = time.perf_counter()
        for spec in specs:
            records += bench.run_experiment(spec)[1]
        res.wall_s = time.perf_counter() - t0
    except Exception as exc:  # the pass's ops are lost; report, do not crash
        res.ops = expected_ops
        res.fail(f"run_experiment raised {exc!r}")
        res.failed = res.ops
        return res
    finally:
        bench.generate, bench.decor_fit = real_generate, real_fit

    res.ops = len(records)
    if res.ops != expected_ops:
        res.fail(f"{res.ops} replicate records, expected {expected_ops}")
    fitted = 0
    for r in records:
        if r.failed:
            res.fail(f"replicate n={r.n} {r.method} #{r.replicate} failed")
            continue
        fitted += 1
        if r.method != "OLS":
            res.errors.append(r.abs_error)
    if len(fits) != fitted:
        res.fail(f"{len(fits)} estimates seen for {fitted} fitted replicates")
    for latency_s, y, config, est in fits:
        n = len(y)
        expected = n if config.method is Method.OLS_BASELINE else robust.resolve_count(config.a, n)
        problem = check_fit(
            est.beta, len(est.inliers), expected,
            est.fitted_time_domain, est.residuals_time_domain, y,
        )
        if problem:
            res.fail(f"n={n} {config.method.value}: {problem}")
        res.latencies_ms.append(latency_s * 1e3)
    return res


# --------------------------------------------------------------- fit_varied_n


@dataclass(frozen=True)
class FitInput:
    path: Path
    y: np.ndarray
    beta: np.ndarray


def fit_lengths(seed: int, sizes: dict) -> list[int]:
    """Distinct ascending lengths, one per equal slice of the range.

    More distinct lengths than the pipeline keeps cached bases for, so every
    call misses that cache; each pass takes every k-th file, so each pass
    and the cache's last 64 entries span the whole range, which keeps the
    peak memory steady across seeds.
    """
    count = sizes["fit_files"]
    lo, hi = sizes["fit_n"]
    step = (hi - lo) / count
    rng = np.random.default_rng(seed)
    return [lo + int(i * step) + int(rng.integers(0, int(step))) for i in range(count)]


def write_fit_inputs(seed: int, sizes: dict, workdir: Path) -> list[FitInput]:
    inputs = []
    for i, n in enumerate(fit_lengths(seed, sizes)):
        x, y, truth = generate(SimConfig(n=n), rng=make_rng(np.random.SeedSequence((seed, i))))
        path = workdir / f"series_{i:03d}_n{n}.csv"
        cli.write_series_csv(path, np.arange(1, n + 1) / n, x, y)
        inputs.append(FitInput(path=path, y=y, beta=truth.beta))
    return inputs


def run_fit_pass(inputs: list[FitInput], out_path: Path) -> PassResult:
    res = PassResult()
    for item in inputs:
        res.ops += 1
        out_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = cli.main(["fit", "--input", str(item.path), "--out", str(out_path)])
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            code = repr(exc)
        latency_s = time.perf_counter() - t0
        res.wall_s += latency_s
        res.latencies_ms.append(latency_s * 1e3)
        if code != 0:
            res.fail(f"{item.path.name}: exit {code}")
            continue
        n = len(item.y)
        try:
            doc = json.loads(out_path.read_text(encoding="utf-8"))
            beta = np.asarray(doc["beta"], dtype=float)
            problem = check_fit(
                beta, len(doc["inliers"]), robust.resolve_count(0.7, n),
                doc["fitted_time_domain"], doc["residuals_time_domain"], item.y,
            )
        except (OSError, ValueError, KeyError) as exc:
            problem = f"unreadable estimate: {exc!r}"
        if problem:
            res.fail(f"{item.path.name}: {problem}")
            continue
        res.errors.append(float(np.mean(np.abs(beta - item.beta))))
    return res


def prepare(name: str, seed: int, scale: str, workdir: Path) -> list:
    """Make the workload's inputs from the seed.

    Returns the cycle: one function per pass, each running its share of the
    inputs.  Harness passes differ in their replicate seeds; fit passes take
    every k-th file, so each covers the whole range of lengths.
    """
    sizes = SIZES[scale]
    k = sizes["cycle"][name]
    if name == "fit_varied_n":
        files = write_fit_inputs(seed, sizes, workdir)
        return [partial(run_fit_pass, files[j::k], workdir / "estimate.json") for j in range(k)]
    return [partial(run_harness_pass, HARNESS[name](seed * 1000 + j, sizes)) for j in range(k)]
