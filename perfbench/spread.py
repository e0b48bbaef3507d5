"""Run the benchmark once per seed and report each metric's median and spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload table1 --seeds 1-10 [--trace 0] [--json FILE]

The spread of a metric is the distance between the first and third quartile
of its values, as statistics.quantiles(values, n=4) gives them, as a share of
their median.  For end-to-end metrics it is compared with a third of the
bound in BENCHMARK.json.  Every run must print a correct result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path, help="also write the runs and the summary here")
    args = p.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1]) if out.stdout.strip() else {}
        if out.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}", file=sys.stderr)
            return 1
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    ok = True
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / abs(median) if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        line = f"{name:40s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}"
        if name in bounds:
            steady = spread < bounds[name] / 3 or name == "setup_s"
            ok &= spread <= bounds[name] or name == "setup_s"
            line += f"  bound {bounds[name]}  {'steady' if steady else 'UNSTEADY'}"
        print(line)
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary},
                                        indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
