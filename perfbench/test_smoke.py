"""Smoke test of the benchmark itself: every workload at tiny sizes, no timing gates.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_and_correct(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = CONFIG["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    for name in ("setup_s", "ops_per_ref_s", "peak_rss_mib", "est_mae") if not trace else ():
        assert result["metrics"][name]["value"] > 0, name
    if not trace:
        for line in ("ops_per_s = ", "host_slowdown = ", "op_ms_p50 = ", "op_ms_p90 = ", "failed_frac = 0 ratio"):
            assert line in out.stdout, line


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_table1_cells_match_the_spec_file():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from deconfound.cli import load_experiment_spec

    import workloads

    (ours,) = workloads.table1_specs(2024, workloads.SIZES["tiny"])
    spec = load_experiment_spec(ROOT / "specs" / "table1.json")
    assert replace(ours, replicates=spec.replicates) == spec
