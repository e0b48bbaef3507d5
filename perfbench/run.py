"""Benchmark of the deconfound package: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0

``--workload`` is one of table1, sweep_n1000, fit_varied_n, haar_d2, or
``all`` (each workload in its own process, one after the other).  The seed
makes the inputs; ``--seconds`` is how long the timed passes run.

``--trace 0`` measures the end-to-end metrics with nothing wrapped but the
per-op correctness recorder.  After every pass it also times fixed work that
never calls the program (calibration.py); ``ops_per_ref_s`` divides each
pass's time by how much slower than the reference host that work ran, so
that a host that slows down for a minute does not read as a slower program.

``--trace 1`` alternates untraced and traced cycles over the same inputs and
reports the per-layer metrics from the traced ones (see tracing.py), plus
what tracing cost.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same metrics for people, plus the unscaled ``ops_per_s``,
``host_slowdown``, ``op_ms_p50``, ``op_ms_p90`` and ``failed_frac``, with the
environment.  A full record,
including per-pass figures and any failure messages, is written to
``perfbench/out/``.  The exit code is 0 only if every op passed its check and
``est_mae`` matched the reference in ``perfbench/reference.json``.

``--scale tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))

# One BLAS thread (at most the usable cores), set before numpy loads; child
# processes inherit it.  The load is a single client, and a second BLAS thread
# made every run depend on how busy the host kept the other core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(NPROC, BLAS_THREADS))
# numpy asks the kernel for huge pages for large arrays; whether the host has
# them free changes peak RSS from run to run, so the benchmark turns that off.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
)

WORKLOADS = ("table1", "sweep_n1000", "fit_varied_n", "haar_d2")
# The end-to-end metrics of BENCHMARK.json, in the result line.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_ref_s", "ops/ref_s"),
    ("peak_rss_mib", "MiB"),
    ("est_mae", "beta"),
)
# Printed and recorded but not in the result line: wall-clock throughput and
# per-op latency swung by a quarter to a half between runs on a shared
# machine, more than any bound allows.
REPORTED = (
    ("ops_per_s", "ops/s"),
    ("host_slowdown", "ratio"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
)

SETUP_PROBES = {"full": 5, "tiny": 2}
# What the fresh setup process does: everything the first op needs imported.
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); "
    "import deconfound, deconfound.bench, deconfound.cli; "
    "print(time.perf_counter() - t0)"
)
# est_mae of a seed listed in reference.json must match to this relative error.
EST_MAE_RTOL = 1e-6


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


# ----------------------------------------------------------------- environment


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "git_rev": _git_rev(),
        "src_sha256": _src_sha256(),
    }


# ----------------------------------------------------------------------- setup


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"{argv[1:]} failed:\n{out.stderr}")
    return out


def setup_seconds(probes: int) -> float:
    """Median time, over fresh processes, to import the package for the first op."""
    return statistics.median(
        float(_child([sys.executable, "-c", SETUP_CODE]).stdout) for _ in range(probes)
    )


def import_times() -> dict[str, float]:
    """Cumulative import time of deconfound and of scipy.signal, from -X importtime."""
    err = _child([sys.executable, "-X", "importtime", "-c", "import deconfound"]).stderr
    cumulative = {}
    for line in err.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative[parts[2]] = int(parts[1]) * 1e-6
    return {
        "setup.import_s": cumulative.get("deconfound", 0.0),
        "setup.import_scipy_signal_s": cumulative.get("scipy.signal", 0.0),
    }


# --------------------------------------------------------------------- metrics


def _percentiles(values: list[float]) -> tuple[float, float]:
    cuts = statistics.quantiles(values, n=10, method="inclusive") if len(values) > 1 else values * 9
    return statistics.median(values), cuts[8]


def end_to_end(plain, slowdowns, cycle: int, setup_s: float) -> dict[str, float]:
    """Throughput over the timed passes, raw and on the reference host; est_mae over the first cycle.

    ``slowdowns[i]`` is the host's slowdown measured right after pass i.  The
    first pass fills the program's caches and is not timed.  Latency
    percentiles are the median over passes.
    """
    timed = plain[1:] or plain
    factors = slowdowns[1:] or slowdowns
    ops = sum(p.ops for p in timed)
    wall_s = sum(p.wall_s for p in timed)
    ref_s = sum(p.wall_s / f for p, f in zip(timed, factors))
    quantiles = [_percentiles(p.latencies_ms) for p in timed if p.latencies_ms]
    errors = [e for p in plain[:cycle] for e in p.errors]
    return {
        "setup_s": setup_s,
        "ops_per_ref_s": ops / ref_s if ref_s else 0.0,  # 0 only if every pass raised
        "ops_per_s": ops / wall_s if wall_s else 0.0,
        "host_slowdown": statistics.median(factors),
        "op_ms_p50": statistics.median(q[0] for q in quantiles) if quantiles else float("nan"),
        "op_ms_p90": statistics.median(q[1] for q in quantiles) if quantiles else float("nan"),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "est_mae": statistics.fmean(errors) if errors else float("nan"),
    }


def per_layer(tracers, plain, traced) -> dict[str, float]:
    """Counts from the first traced cycle; times are the median over cycles."""
    import tracing

    layers = [t.layer_metrics() for t in tracers]
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        values = [m.get(name, 0.0) for m in layers]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0] if unit == "ratio" else int(values[0])
    metrics["trace.overhead_frac"] = statistics.median(
        t.wall_s / p.wall_s for p, t in zip(plain, traced) if p.wall_s > 0
    ) - 1
    return metrics


def reference_problems(workload: str, seed: int, est_mae: float) -> list[str]:
    """Compare est_mae with the seed-commit reference (full scale only)."""
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["est_mae"][workload]
    exact = ref["by_seed"].get(str(seed))
    if exact is not None:
        if abs(est_mae - exact) <= EST_MAE_RTOL * abs(exact):
            return []
        return [f"est_mae {est_mae!r} != reference {exact!r} for seed {seed}"]
    if abs(est_mae / ref["median"] - 1) <= ref["rel_tol"]:
        return []
    return [f"est_mae {est_mae!r} more than {ref['rel_tol']:.0%} from the reference median {ref['median']!r}"]


# ------------------------------------------------------------------------ runs


def run_one(args) -> int:
    probes = SETUP_PROBES[args.scale]
    setup = import_times() if args.trace else {"setup_s": setup_seconds(probes)}
    env = environment(args)

    import tracing
    import workloads
    from calibration import Calibration

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT))
    plain, traced, tracers = [], [], []
    try:
        cycle = workloads.prepare(args.workload, args.seed, args.scale, workdir)
        calibration = None if args.trace else Calibration()
        deadline = time.perf_counter() + args.seconds
        # whole cycles only, so that every input counts the same; a traced
        # cycle follows each untraced one, so that both meet the program's
        # caches in the same state
        while not plain or time.perf_counter() < deadline:
            for run_pass in cycle:
                plain.append(run_pass())
                if calibration:
                    calibration.measure()
            if args.trace:
                tracers.append(tracing.Tracer())
                tracers[-1].install()
                try:
                    traced += [run_pass() for run_pass in cycle]
                finally:
                    tracers[-1].restore()
    finally:
        shutil.rmtree(workdir)

    passes = plain + traced
    problems = [msg for p in passes for msg in p.problems]
    first = [p.est_mae for p in plain[: len(cycle)]]
    reruns = [*enumerate(plain), *enumerate(traced)]
    if any(p.est_mae != first[i % len(cycle)] for i, p in reruns if not p.failed):
        problems.append("passes over the same inputs gave different estimates")

    if args.trace:
        metrics = per_layer(tracers, plain, traced)
        metrics.update(setup)
        units = dict(tracing.PER_LAYER)
        spans_path = OUT / f"{stem}-spans.jsonl"
        spans_path.unlink(missing_ok=True)
        for i, tracer in enumerate(tracers):
            tracer.write_spans(spans_path, i)
    else:
        metrics = end_to_end(plain, calibration.factors, len(cycle), setup["setup_s"])
        units = dict(END_TO_END + REPORTED)
        if args.scale == "full":
            problems += reference_problems(args.workload, args.seed, metrics["est_mae"])

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and not problems
    record = {
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "op_samples_per_pass": [len(p.latencies_ms) for p in plain],
        "passes": [
            {"ops": p.ops, "failed": p.failed, "wall_s": p.wall_s, "est_mae": p.est_mae}
            for p in plain
        ],
        "host_slowdown_per_pass": calibration.factors if calibration else [],
        "kernel_slowdowns_per_pass": calibration.ratios if calibration else [],
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("env " + json.dumps(env))
    for msg in problems:
        print(f"FAILED: {msg}")
    print(f"failed_frac = {record['failed_frac']:.6g} ratio ({failed} of {attempted} ops)")
    print(f"passes = {len(plain)} untraced" + (f" + {len(traced)} traced" if args.trace else "")
          + f", cycle of {len(cycle)}, op latency samples per pass = {len(plain[-1].latencies_ms)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: m for k, m in record["metrics"].items() if k not in dict(REPORTED)},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after the other."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "deconfound" / "__init__.py").is_file():
        print(f"error: no deconfound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
