"""The benchmark trajectory writer, ``tools/bench_trajectory.py``, at its smallest run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trajectory_writes_median_and_quartiles_per_metric(tmp_path):
    cmd = [sys.executable, str(ROOT / "tools" / "bench_trajectory.py"), "--tag", "tiny",
           "--seeds", "2", "--scale", "tiny", "--seconds", "0.1", "--workloads", "table1",
           "--cold", "--out", str(tmp_path)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    record = json.loads((tmp_path / "BENCH_tiny.json").read_text(encoding="utf-8"))
    for key in ("git_rev", "nproc", "python", "numpy", "scipy"):
        assert record[key], key
    assert record["seeds"] == [2] and record["cold"] == {}
    (name, entry), = record["workloads"].items()
    assert name == "table1" and entry["correct"] and entry["failed"] == 0
    assert set(entry["end_to_end"]) == {"setup_s", "ops_per_ref_s", "peak_rss_mib", "est_mae"}
    for metric in entry["end_to_end"].values():
        assert metric["q1"] == metric["median"] == metric["q3"] == metric["values"][0] > 0
    assert entry["per_layer"]["seed"] == 2
    assert entry["per_layer"]["basis.transform.calls"]["value"] > 0
