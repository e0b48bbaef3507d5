"""Monte Carlo benchmark: estimation error versus sample size.

Runs the robust pipeline against the least-squares baseline over a doubling
grid of sample sizes and writes the aggregated rows to CSV.  The robust error
shrinks with n while the baseline's confounding bias does not.
"""

import sys

from deconfound import DecorConfig, ExperimentSpec, Method, SimConfig, run_experiment
from deconfound.bench import RESULT_CSV_HEADER, write_rows

out_path = sys.argv[1] if len(sys.argv) > 1 else "sweep_results.csv"

spec = ExperimentSpec(
    sim=SimConfig(n=32, sigma_eta2=1.0, conf_prob=0.25),
    n_grid=(32, 64, 128, 256),
    methods=(DecorConfig(), DecorConfig(method=Method.OLS_BASELINE)),
    replicates=200,
    seed_base=0,
)
rows, _ = run_experiment(spec)

print(f"{'n':>5s}  {'method':10s}  {'mae':>8s}  {'stderr':>8s}  {'mean iters':>10s}")
for r in rows:
    print(f"{r.n:5d}  {r.method:10s}  {r.mae:8.4f}  {r.mae_stderr:8.4f}  {r.mean_iterations:10.2f}")

robust = [r.mae for r in rows if r.method == "DecoR-Tor"]  # in ascending n
baseline = [r.mae for r in rows if r.method == "OLS"]
print(f"\nrobust error halved from smallest to largest n: {robust[-1] < 0.5 * robust[0]}")
print(f"baseline stayed flat (no comparable improvement): {baseline[-1] > 0.5 * baseline[0]}")

write_rows(out_path, RESULT_CSV_HEADER, rows)
print(f"\nwrote {out_path}")
