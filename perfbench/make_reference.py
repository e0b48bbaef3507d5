"""Write perfbench/reference.json: the est_mae of every workload per seed.

Usage, from the root of a checkout, on the commit whose estimates are the
reference:

    python3 perfbench/make_reference.py --seeds 0-63

run.py compares est_mae of a listed seed with its value here to a relative
1e-6, and of any other seed with the median here to ``rel_tol``.  Rewrite the
file only in a change that means to alter the estimates, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads and puts src/ on the path, as for a benchmark run
from spread import seed_list

# How far est_mae of a seed not listed may lie from the median of the listed
# seeds.  Every listed seed must fall inside it, or the script fails.
REL_TOL = 0.3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 0-63")
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import workloads

    run.OUT.mkdir(exist_ok=True)
    reference = {}
    for name in run.WORKLOADS:
        by_seed = {}
        for seed in args.seeds:
            workdir = Path(tempfile.mkdtemp(dir=run.OUT))
            try:
                passes = [run_pass() for run_pass in workloads.prepare(name, seed, "full", workdir)]
            finally:
                shutil.rmtree(workdir)
            problems = [msg for p in passes for msg in p.problems]
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            by_seed[str(seed)] = statistics.fmean(e for p in passes for e in p.errors)
        median = statistics.median(by_seed.values())
        worst = max(abs(v / median - 1) for v in by_seed.values())
        if worst > REL_TOL:
            print(f"{name}: a listed seed lies {worst:.0%} from the median", file=sys.stderr)
            return 1
        reference[name] = {"median": median, "rel_tol": REL_TOL, "by_seed": by_seed}
        print(f"{name}: median est_mae {median:.6g} over {len(by_seed)} seeds", flush=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps({"est_mae": reference}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
