"""Write one point of the benchmark trajectory: ``BENCH_<tag>.json`` at the repo root.

Usage, from the root of a checkout:

    python3 tools/bench_trajectory.py --tag baseline --seeds 1-5

For each workload and seed this runs ``perfbench/run.py --trace 0`` and keeps
the end-to-end metrics of its last-line JSON; one ``--trace 1`` run per
workload, at the first seed, gives the per-layer split.  It then times cold
CLI commands, which ``run.py`` cannot see because it runs in one process: each
``COLD`` entry is one ``python -m deconfound.cli`` command in a fresh process,
3 times, with the child's wall time and its max RSS from ``wait4``.  A ``fit``
or ``deconfound`` entry reads a data CSV of n rows simulated at seed 1; an
``experiment`` entry runs one spec of ``specs/``.

The file holds, per workload, the median and quartiles over seeds of every
end-to-end metric, the per-layer values, and, per cold entry, the median and
quartiles of wall time and max RSS; with the git rev, core count, BLAS and the
Python, numpy and scipy versions that ``run.py`` reports.  The files are
evidence for CHANGES.md, not gates.

The checkout measured is the one that holds this script; to measure another
commit, copy the script into its checkout and point ``--out`` back here.
``--scale tiny`` and ``--seconds`` pass through to ``run.py``; ``--workloads``
picks a subset and ``--cold`` the cold entries (none with ``--cold`` alone).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table1", "sweep_n1000", "fit_varied_n", "haar_d2")
COLD_RUNS = 3
# entry name: the deconfound.cli command and its data size n or its spec name
COLD = {
    "cli_fit_n1000": ("fit", 1000),
    "cli_fit_n1048576": ("fit", 2**20),
    "cli_deconfound_n1048576": ("deconfound", 2**20),
    "cli_experiment_table1": ("experiment", "table1"),
    "cli_experiment_criterion2_iterations": ("experiment", "criterion2_iterations"),
    "cli_experiment_criterion3_ou": ("experiment", "criterion3_ou"),
}
# run.py's settings, so that cold fits are measured as the workloads are
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0",
             "PYTHONPATH": str(ROOT / "src")}


def seed_range(text: str) -> list[int]:
    """``"1-5"`` or ``"3"`` or ``"1,4,9"`` as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-5"))
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--cold", nargs="*", choices=COLD, default=list(COLD))
    p.add_argument("--out", type=Path, default=ROOT)
    return p.parse_args(argv)


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric, with the values themselves."""
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "values": values}


def bench_run(workload: str, seed: int, trace: int, args) -> tuple[dict, dict]:
    """The last-line JSON of one ``run.py`` call, and the environment it reports."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--scale", args.scale]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} wrote nothing:\n{out.stderr}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def workload_entry(workload: str, args) -> tuple[dict, dict]:
    runs, env = [], {}
    for seed in args.seeds:
        result, env = bench_run(workload, seed, 0, args)
        runs.append(result)
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()), file=sys.stderr)
    traced, _ = bench_run(workload, args.seeds[0], 1, args)
    names = runs[0]["metrics"]
    return {
        "correct": all(r["correct"] for r in runs) and traced["correct"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "end_to_end": {
            name: {"unit": names[name]["unit"],
                   **spread([r["metrics"][name]["value"] for r in runs])}
            for name in names
        },
        "per_layer": {"seed": args.seeds[0], **traced["metrics"]},
    }, env


def cold_run(args: list[str]) -> tuple[float, float]:
    """Wall seconds and max RSS in MiB of one ``deconfound.cli`` command in a fresh process."""
    cmd = [sys.executable, "-m", "deconfound.cli", *args]
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, env=CHILD_ENV, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"{' '.join(args)} exited {child.returncode}:\n{err.read().decode()}")
    return wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def cold_entries(names: list[str]) -> dict:
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        for name in names:
            command, arg = COLD[name]
            if command == "experiment":
                args, key = ["--spec", str(ROOT / "specs" / f"{arg}.json")], "spec"
            else:  # a data CSV of n rows, simulated once per n
                data = Path(tmp) / f"data_{arg}.csv"
                if not data.exists():
                    subprocess.run([sys.executable, "-m", "deconfound.cli", "simulate", "--n",
                                    str(arg), "--seed", "1", "--out", str(data)],
                                   env=CHILD_ENV, check=True, stdout=subprocess.DEVNULL)
                args, key = ["--input", str(data)], "n"
            runs = [cold_run([command, *args, "--out", out]) for _ in range(COLD_RUNS)]
            entries[name] = {
                "command": command,
                key: arg,
                "wall_s": spread([wall for wall, _ in runs]),
                "max_rss_mib": spread([rss for _, rss in runs]),
            }
            print(f"cold {name}: " + ", ".join(f"{w:.3f} s {r:.1f} MiB" for w, r in runs),
                  file=sys.stderr)
    return entries


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, env = {}, {}
    for name in args.workloads:
        workloads[name], env = workload_entry(name, args)
    record = {
        "tag": args.tag,
        "git_rev": env.get("git_rev"),
        "src_sha256": env.get("src_sha256"),
        "nproc": env.get("nproc"),
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "scipy": env.get("scipy"),
        "blas": env.get("blas"),
        "blas_threads": env.get("blas_threads"),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "scale": args.scale,
        "workloads": workloads,
        "cold": cold_entries(args.cold),
    }
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0 if all(w["correct"] and not w["failed"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
