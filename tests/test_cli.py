"""Command-line surface: flags, file formats, exit codes."""

import csv
import json
import math
import random
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from deconfound import SimConfig, decor_fit, generate, robust
from deconfound.cli import load_experiment_spec, main, write_series_csv

REPO_SPECS = Path(__file__).resolve().parent.parent / "specs"


def run_cli(*argv):
    return main([str(a) for a in argv])


def strict_json(text):
    """``json.loads`` that rejects NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def sim_csv(tmp_path):
    out = tmp_path / "data.csv"
    code = run_cli(
        "simulate", "--process", "band", "--n", "128", "--sigma2", "1",
        "--conf-prob", "0.25", "--seed", "42", "--out", out,
    )
    assert code == 0
    return out


class TestSimulate:
    def test_writes_rows_and_truth(self, sim_csv):
        with open(sim_csv) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "t,x_1,y"
        assert len(lines) == 129
        text = (sim_csv.parent / "data.csv.truth.json").read_text()
        assert text.endswith("}\n")
        truth = json.loads(text)
        assert truth["schema_version"] == "1"
        assert truth["seed"] == 42
        assert all(1 <= k <= 128 for k in truth["g_set"])

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("simulate", "--n", "64", "--seed", "7", "--out", out) == 0
        assert a.read_text() == b.read_text()

    def test_haar_requires_power_of_two(self, tmp_path):
        code = run_cli(
            "simulate", "--process", "ou", "--basis", "haar", "--n", "100",
            "--out", tmp_path / "x.csv",
        )
        assert code == 2

    def test_random_seed_announced(self, tmp_path, capsys):
        # the drawn seed is printed and recorded, and a rerun with it writes the same file
        drawn, again = tmp_path / "r.csv", tmp_path / "again.csv"
        assert run_cli("simulate", "--n", "16", "--out", drawn) == 0
        out = capsys.readouterr().out
        seed = int(re.search(r"^seed not given; using seed=(\d+)$", out, re.M)[1])
        assert json.loads(Path(f"{drawn}.truth.json").read_text())["seed"] == seed
        assert run_cli("simulate", "--n", "16", "--seed", seed, "--out", again) == 0
        assert again.read_bytes() == drawn.read_bytes()

    def test_truth_names_the_basis(self, tmp_path):
        out = tmp_path / "haar.csv"
        assert run_cli("simulate", "--basis", "haar", "--n", "16", "--seed", "2", "--out", out) == 0
        assert json.loads(Path(f"{out}.truth.json").read_text())["basis"] == "haar"

    def test_two_covariates_round_trip(self, tmp_path):
        out = tmp_path / "d2.csv"
        assert run_cli("simulate", "--n", "64", "--d", "2", "--seed", "8", "--out", out) == 0
        with open(out) as fh:
            header = fh.readline().strip()
        assert header == "t,x_1,x_2,y"
        dest = tmp_path / "d2.json"
        assert run_cli("fit", "--input", out, "--out", dest) == 0
        assert len(json.loads(dest.read_text())["beta"]) == 2


class TestFit:
    def test_fit_emits_estimate_json(self, sim_csv, tmp_path):
        out = tmp_path / "est.json"
        code = run_cli("fit", "--input", sim_csv, "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1"
        assert len(doc["beta"]) == 1
        assert doc["converged"] is True
        assert doc["stop_reason"] == "fixed_point"
        # default instance is confounded but estimable
        assert abs(doc["beta"][0] - 3.0) < 0.5

    def test_unconfounded_fit_close_to_truth(self, tmp_path):
        out = tmp_path / "clean.csv"
        run_cli("simulate", "--n", "128", "--conf-prob", "0", "--seed", "5", "--out", out)
        code = run_cli("fit", "--input", out, "--out", tmp_path / "e.json")
        assert code == 0
        doc = json.loads((tmp_path / "e.json").read_text())
        assert abs(doc["beta"][0] - 3.0) < 0.1

    def test_baseline_on_confounded_data_is_biased(self, tmp_path):
        errs = []
        for seed in range(5):
            out = tmp_path / f"c{seed}.csv"
            run_cli("simulate", "--n", "256", "--sigma2", "0", "--seed", seed, "--out", out)
            dest = tmp_path / f"e{seed}.json"
            assert run_cli(
                "fit", "--input", out, "--method", "olsbaseline", "--out", dest
            ) == 0
            errs.append(abs(json.loads(dest.read_text())["beta"][0] - 3.0))
        assert np.mean(errs) > 0.05

    def test_bfs_infeasible_exit_code(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        run_cli("simulate", "--n", "30", "--seed", "1", "--out", out)
        assert run_cli("fit", "--input", out, "--method", "bfs", "--a", "0.5") == 4
        assert capsys.readouterr().err.startswith("error: C(")

    @pytest.mark.parametrize("cap, code", [(12869, 4), (12870, 0)])
    @pytest.mark.parametrize("command", ["fit", "deconfound"])
    def test_bfs_cap_is_inclusive(self, tmp_path, monkeypatch, capsys, command, cap, code):
        # C(16, 8) = 12870 sets: fitted at a cap of 12870, exit 4 one below it
        monkeypatch.setattr(robust, "SUBSET_ENUMERATION_CAP", cap)
        data = tmp_path / "d.csv"
        assert run_cli("simulate", "--n", "16", "--seed", "1", "--out", data) == 0
        capsys.readouterr()
        argv = command, "--input", data, "--method", "bfs", "--a", "8", "--out", tmp_path / "r"
        assert run_cli(*argv) == code
        message = "error: C(16,8) = 12870 subsets exceeds the cap of 12869; too many to enumerate\n"
        assert capsys.readouterr().err == ("" if code == 0 else message)

    @pytest.mark.parametrize("a, kept", [(1, 1), (1.0, 128), (0.7, 90), (5, 5)])
    def test_threshold_means_what_the_library_means(self, sim_csv, tmp_path, a, kept):
        # "1" is the count 1 and "1.0" the fraction 1.0 (all rows), as in decor_fit
        from deconfound import DecorConfig, decor_fit
        from deconfound.cli import read_series_csv

        out = tmp_path / "a.json"
        run_cli("fit", "--input", sim_csv, "--a", str(a), "--out", out)
        _, x, y = read_series_csv(sim_csv)
        expected = decor_fit(x, y, DecorConfig(a=a)).inliers
        assert json.loads(out.read_text())["inliers"] == expected.tolist()
        assert len(expected) == kept

    def test_non_convergence_exit_code(self, sim_csv, tmp_path):
        code = run_cli(
            "fit", "--input", sim_csv, "--max-iter", "1", "--out", tmp_path / "nc.json"
        )
        assert code == 3
        doc = json.loads((tmp_path / "nc.json").read_text())
        assert (doc["converged"], doc["stop_reason"]) == (False, "max_iter")

    def test_malformed_csv_names_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x_1,y\n0.1,1.0,2.0\n0.2,oops,3.0\n")
        code = run_cli("fit", "--input", bad)
        assert code == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "x_1" in err

    def test_non_finite_cells_exit_2_under_warnings_as_errors(self, tmp_path):
        import os
        import subprocess
        import sys

        data = tmp_path / "inf.csv"
        data.write_text("t,x_1,y\n1,inf,2\n2,-inf,3\n3,1,4\n")
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "deconfound.cli", "fit", "--input", str(data)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: x and y must be finite (no NaN/Inf)\n"

    def test_estimate_at_a_huge_scale_is_valid_json(self, tmp_path):
        # at c = 1e200 the centered sums of squares overflowed, and R^2 was written as NaN
        docs = []
        for c in (1.0, 1e200):
            x, y, _ = generate(SimConfig(n=16, sigma_eta2=1.0, conf_prob=0.25, seed=29))
            data, out = tmp_path / f"c{c:g}.csv", tmp_path / f"c{c:g}.json"
            write_series_csv(data, np.arange(1, 17) / 16, c * x, c * y)
            assert run_cli("fit", "--input", data, "--out", out) == 0
            docs.append(strict_json(out.read_text()))
        assert docs[1]["r_squared"] == pytest.approx(docs[0]["r_squared"], rel=1e-9)
        assert docs[1]["beta"] == pytest.approx(docs[0]["beta"], rel=1e-9)

    def test_constant_response_writes_null_r_squared(self, tmp_path):
        # R^2 of a constant y is undefined: the library keeps -inf, the JSON writes null
        rng = np.random.default_rng(31)
        x, y = 1.0 + 0.1 * rng.normal(size=(32, 1)), np.full(32, 5.0)
        data, out, prefix = tmp_path / "flat.csv", tmp_path / "flat.json", tmp_path / "flat"
        write_series_csv(data, np.arange(1, 33) / 32, x, y)
        assert decor_fit(x, y).r_squared == -math.inf
        assert run_cli("fit", "--input", data, "--out", out) == 0
        assert strict_json(out.read_text())["r_squared"] is None
        assert run_cli("deconfound", "--input", data, "--out", prefix) == 0
        assert strict_json(Path(f"{prefix}_summary.json").read_text())["r_squared"] is None

    def test_wrong_header_rejected(self, tmp_path):
        bad = tmp_path / "bad2.csv"
        bad.write_text("a,b\n1,2\n")
        assert run_cli("fit", "--input", bad) == 2

    @pytest.mark.parametrize("header, rows", [("t,y", "0.1,2.0\n0.2,3.0\n"), ("y", "2.0\n3.0\n")])
    def test_header_without_covariate_rejected(self, tmp_path, capsys, header, rows):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{rows}")
        assert run_cli("fit", "--input", bad) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: header must be t,x_1..x_d,y or x_1..x_d,y, got {header}\n"
        )

    def test_non_utf8_file_names_path_and_offset(self, tmp_path, capsys):
        # the offset is the bad byte's in the file, a leading byte-order mark counted
        bad = tmp_path / "latin1.csv"
        for mark, offset in (b"", 24), (b"\xef\xbb\xbf", 27):
            bad.write_bytes(mark + "t,x_1,y\n0.1,1.0,2.0\n0.2,\xff1.5,3.0\n".encode("latin-1"))
            assert run_cli("fit", "--input", bad) == 2
            assert capsys.readouterr().err == (
                f"error: {bad}: not UTF-8: cannot decode byte 0xff at offset {offset}\n"
            )

    def test_byte_order_mark_is_ignored(self, sim_csv, tmp_path):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + sim_csv.read_bytes())
        for path, out in ((sim_csv, "plain.json"), (marked, "marked.json")):
            assert run_cli("fit", "--input", path, "--out", tmp_path / out) == 0
        assert (tmp_path / "marked.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_misnamed_covariate_column_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x_2,y\n1,2\n")
        assert run_cli("fit", "--input", bad) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: covariate columns must be named x_1, got x_2\n"
        )


class TestDeconfound:
    def test_report_bundle(self, tmp_path):
        data = tmp_path / "clean.csv"
        run_cli("simulate", "--n", "64", "--conf-prob", "0", "--sigma2", "0",
                "--seed", "3", "--out", data)
        prefix = tmp_path / "report"
        code = run_cli("deconfound", "--input", data, "--method", "olsbaseline",
                       "--out", prefix)
        assert code == 0
        with open(f"{prefix}_fitted.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64
        # fitted + residual reproduces y exactly
        with open(data) as fh:
            y = [float(r["y"]) for r in csv.DictReader(fh)]
        recon = [float(r["fitted"]) + float(r["residual"]) for r in rows]
        assert np.max(np.abs(np.array(recon) - np.array(y))) < 1e-12
        text = Path(f"{prefix}_summary.json").read_text()
        assert text.endswith("}\n")
        summary = json.loads(text)
        assert summary["r_squared"] == pytest.approx(1.0, abs=1e-6)
        assert (summary["converged"], summary["stop_reason"]) == (True, "one_shot")
        excluded = Path(f"{prefix}_excluded.csv").read_text().splitlines()
        assert excluded[0] == "k"

    def test_low_frequency_exclusions(self, tmp_path):
        # confounder supported on the lowest quartile: exclusions land there
        from deconfound import BandLimitedProcess, SimConfig, generate

        n = 128
        cfg = SimConfig(
            n=n, sigma_eta2=1.0, conf_prob=1.0,
            u_process=BandLimitedProcess(support=tuple(range(1, n // 4 + 1))),
            seed=9,
        )
        x, y, _ = generate(cfg)
        data = tmp_path / "low.csv"
        t = np.arange(1, n + 1) / n
        with open(data, "w") as fh:
            fh.write("t,x_1,y\n")
            for i in range(n):
                fh.write(f"{float(t[i])!r},{float(x[i, 0])!r},{float(y[i])!r}\n")
        prefix = tmp_path / "low_report"
        assert run_cli("deconfound", "--input", data, "--a", "0.9", "--out", prefix) == 0
        ks = [int(v) for v in Path(f"{prefix}_excluded.csv").read_text().splitlines()[1:]]
        assert len(ks) > 0
        assert json.loads(Path(f"{prefix}_summary.json").read_text())["n_excluded"] == len(ks)
        assert np.mean(np.array(ks) <= n // 4) >= 0.7

    @pytest.mark.parametrize("method", ["olsbaseline", "bfs"])
    def test_zero_response_writes_no_negative_zero_beta(self, tmp_path, method):
        # lstsq gives the library's beta as -0.0 on this draw, and the library keeps its bytes
        n = 16
        x, _, _ = generate(SimConfig(n=n, seed=1))
        data = tmp_path / "zero.csv"
        write_series_csv(data, np.arange(1, n + 1) / n, x, np.zeros(n))
        out, prefix = tmp_path / "est.json", tmp_path / "report"
        assert run_cli("fit", "--input", data, "--method", method, "--out", out) == 0
        assert run_cli("deconfound", "--input", data, "--method", method, "--out", prefix) == 0
        for path in (out, Path(f"{prefix}_summary.json")):
            beta = json.loads(path.read_text())["beta"]
            assert beta == [0.0] and math.copysign(1.0, beta[0]) == 1.0


    @pytest.mark.parametrize("horizon", ["0", "-1"])
    def test_nonpositive_horizon_rejected(self, sim_csv, tmp_path, capsys, horizon):
        prefix = tmp_path / "r"
        code = run_cli("deconfound", "--input", sim_csv, "--horizon", horizon, "--out", prefix)
        assert code == 2
        assert "--horizon must be positive" in capsys.readouterr().err
        assert not Path(f"{prefix}_fitted.csv").exists()

    def test_horizon_sets_t_column(self, sim_csv, tmp_path):
        prefix = tmp_path / "h"
        assert run_cli("deconfound", "--input", sim_csv, "--horizon", "2", "--out", prefix) == 0
        with open(f"{prefix}_fitted.csv") as fh:
            t = [float(r["t"]) for r in csv.DictReader(fh)]
        assert t[0] == pytest.approx(2 / 128) and t[-1] == pytest.approx(2.0)


class TestCheckBasis:
    def test_pass(self, capsys):
        assert run_cli("check-basis", "--kind", "cosine", "--n", "256", "--tol", "1e-10") == 0
        assert "pass" in capsys.readouterr().out

    def test_failed_check_exits_1(self, capsys):
        # a tiny tolerance fails on rounding alone: the deviation at n = 256 is about 1e-14
        assert run_cli("check-basis", "--kind", "cosine", "--n", "256", "--tol", "1e-300") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_haar_bad_n_usage_error(self):
        assert run_cli("check-basis", "--kind", "haar", "--n", "24") == 2

    def test_dump_csv(self, tmp_path):
        dump = tmp_path / "basis.csv"
        assert run_cli("check-basis", "--kind", "haar", "--n", "8",
                       "--dump-csv", dump) == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "j,k,value"
        assert len(lines) == 1 + 64


class TestExperiment:
    def test_tiny_spec_end_to_end(self, tmp_path):
        spec = {
            "schema_version": "1",
            "sim": {"process": "band", "basis": "cosine", "sigma_eta2": 1.0},
            "n_grid": [8, 12],
            "methods": [{"method": "torrent", "a": 0.7}, {"method": "olsbaseline"}],
            "replicates": 5,
            "seed_base": 3,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "rows.csv"
        assert run_cli("experiment", "--spec", spec_path, "--out", out) == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "n,method,sigma_eta2,conf_prob,mae,mae_stderr,mean_iter,max_iter,failed"
        assert len(lines) == 1 + 4
        assert (tmp_path / "rows.csv.replicates.csv").exists()
        # a copy of the spec that starts with a byte-order mark writes the same files
        spec_path.write_bytes(b"\xef\xbb\xbf" + spec_path.read_bytes())
        assert run_cli("experiment", "--spec", spec_path, "--out", tmp_path / "marked.csv") == 0
        for name in "rows.csv", "rows.csv.replicates.csv":
            marked = tmp_path / name.replace("rows", "marked")
            assert marked.read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("cap, failed", [(12869, 2), (12870, 0)])
    def test_bfs_cell_over_cap_counted_failed(self, tmp_path, monkeypatch, cap, failed):
        # C(16, 8) = 12870 sets: a BFS cell runs at a cap of 12870, fails one below it, exit 0
        monkeypatch.setattr(robust, "SUBSET_ENUMERATION_CAP", cap)
        spec_path = tmp_path / "spec.json"
        spec = _spec(n_grid=[16], methods=[{"method": "bfs", "a": 8}], replicates=2)
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "rows.csv"
        assert run_cli("experiment", "--spec", spec_path, "--out", out) == 0
        with open(out) as fh:
            (row,) = csv.DictReader(fh)
        assert int(row["failed"]) == failed

    def test_schema_error_pointer(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"sim": {}, "n_grid": ["x"], "methods": []}))
        assert run_cli("experiment", "--spec", spec_path, "--out", tmp_path / "o.csv") == 2
        assert "/n_grid/0" in capsys.readouterr().err

    def test_bad_method_pointer(self, tmp_path, capsys):
        spec_path = tmp_path / "bad2.json"
        spec_path.write_text(
            json.dumps({"sim": {}, "n_grid": [8], "methods": [{"method": "huber"}]})
        )
        assert run_cli("experiment", "--spec", spec_path, "--out", tmp_path / "o.csv") == 2
        assert "/methods/0" in capsys.readouterr().err

    def test_shipped_specs_validate(self):
        # every shipped spec loads, and the acceptance gate runs each one
        acceptance = (Path(__file__).parent / "test_acceptance.py").read_text()
        paths = sorted(REPO_SPECS.glob("*.json"))
        assert paths
        for path in paths:
            load_experiment_spec(path)
            assert f'"{path.name}"' in acceptance, f"{path.name} is not run by the acceptance gate"



def _spec(**top):
    """A valid one-cell spec with the top-level fields of ``top`` replaced (None drops one)."""
    doc = {"sim": {}, "n_grid": [8], "methods": [{"method": "torrent"}]}
    doc.update(top)
    return {k: v for k, v in doc.items() if v is not None}


def _sim(**fields):
    return _spec(sim=fields)


def _method(**fields):
    return _spec(methods=[{"method": "torrent", **fields}])


def _ou(**fields):
    return _sim(process="ou", **fields)


SPEC_ERRORS = {
    "top level not an object": ([1], " : top level must be an object"),
    "missing n_grid": (_spec(n_grid=None), " /n_grid: missing required field"),
    "missing sim": (_spec(sim=None), " /sim: missing required field"),
    "missing methods": (_spec(methods=None), " /methods: missing required field"),
    "missing method": (_spec(methods=[{"a": 0.5}]), " /methods/0/method: missing required field"),
    "missing ou drift": (_ou(ou_eps={"sigma": 1.0}), " /sim/ou_eps/drift: missing required field"),
    "n_grid zero": (_spec(n_grid=[8, 0]), " /n_grid/1: expected a positive integer"),
    "n_grid str": (_spec(n_grid=["x"]), " /n_grid/0: expected a positive integer"),
    "n_grid bool": (_spec(n_grid=[True]), " /n_grid/0: expected a positive integer"),
    "n_grid float": (_spec(n_grid=[8.0]), " /n_grid/0: expected a positive integer"),
    "n_grid empty": (_spec(n_grid=[]), " /n_grid: need at least one sample size"),
    "n_grid unsorted": (_spec(n_grid=[16, 8]), " : n_grid must be sorted ascending"),
    "process": (_sim(process="gauss"), " /sim/process: expected 'band' or 'ou'"),
    "basis": (_sim(basis="fourier"), " /sim/basis: expected 'cosine' or 'haar'"),
    "type n_grid": (_spec(n_grid=8), " /n_grid: expected list, got int"),
    "type sim": (_spec(sim=[]), " /sim: expected dict, got list"),
    "type methods": (_spec(methods={}), " /methods: expected list, got dict"),
    "type replicates": (_spec(replicates=1.5), " /replicates: expected int, got float"),
    "type replicates bool": (_spec(replicates=True), " /replicates: expected int, got bool"),
    "type seed_base": (_spec(seed_base="0"), " /seed_base: expected int, got str"),
    "type process": (_sim(process=1), " /sim/process: expected str, got int"),
    "type basis": (_sim(basis=None), " /sim/basis: expected str, got NoneType"),
    "type d": (_sim(d=1.0), " /sim/d: expected int, got float"),
    "type beta": (_sim(beta="3"), " /sim/beta: expected int/float/list, got str"),
    "type horizon": (_sim(horizon="1"), " /sim/horizon: expected int/float, got str"),
    "type sigma_eta2": (_sim(sigma_eta2=True), " /sim/sigma_eta2: expected int/float, got bool"),
    "type conf_prob": (_sim(conf_prob=[0.25]), " /sim/conf_prob: expected int/float, got list"),
    "type dense_u_noise_std": (
        _sim(dense_u_noise_std=None), " /sim/dense_u_noise_std: expected int/float, got NoneType"
    ),
    "type band_support": (_sim(band_support=5), " /sim/band_support: expected list, got int"),
    "type coeff_std": (_sim(coeff_std="1"), " /sim/coeff_std: expected int/float, got str"),
    "type ou_eps": (_ou(ou_eps=[]), " /sim/ou_eps: expected dict, got list"),
    "type ou_u": (_ou(ou_u=1), " /sim/ou_u: expected dict, got int"),
    "type ou sigma": (
        _ou(ou_eps={"sigma": "1", "drift": -1}), " /sim/ou_eps/sigma: expected int/float, got str"
    ),
    "type ou drift": (_ou(ou_u={"drift": "x"}), " /sim/ou_u/drift: expected int/float, got str"),
    "type method": (_spec(methods=[{"method": 1}]), " /methods/0/method: expected str, got int"),
    "type a": (_method(a="0.7"), " /methods/0/a: expected int/float, got str"),
    "type max_iter": (_method(max_iter=10.0), " /methods/0/max_iter: expected int, got float"),
    "method not an object": (_spec(methods=["torrent"]), " /methods/0: expected an object"),
    "method name": (
        _spec(methods=[{"method": "huber"}]),
        " /methods/0/method: expected 'torrent', 'bfs' or 'olsbaseline'",
    ),
    "methods empty": (_spec(methods=[]), " /methods: need at least one method"),
    "DecorConfig a": (
        _method(a=0), " /methods/0: a must be a fraction in (0,1] or a positive count, got 0"
    ),
    "DecorConfig max_iter": (_method(max_iter=0), " /methods/0: max_iter must be >= 1"),
    "SimConfig": (_sim(conf_prob=2), " /sim: conf_prob must lie in [0, 1], got 2.0"),
    "ExperimentSpec": (_spec(replicates=0), " : replicates must be >= 1"),
}

NEW_SPEC_ERRORS = {
    "unknown field": (_spec(replicate=5), " /replicate: unknown field"),
    "unknown sim field": (_sim(sigma_eta=0.5), " /sim/sigma_eta: unknown field"),
    "unknown method field": (_method(alpha=0.5), " /methods/0/alpha: unknown field"),
    "removed bfs_cap": (_method(bfs_cap=1000), " /methods/0/bfs_cap: unknown field"),
    "unknown ou field": (_ou(ou_u={"drift": -1, "mu": 0}), " /sim/ou_u/mu: unknown field"),
    "ou field with band": (
        _sim(ou_eps={"drift": -1}), " /sim/ou_eps: applies only to process 'ou'"
    ),
    "band field with ou": (_ou(coeff_std=2.0), " /sim/coeff_std: applies only to process 'band'"),
    "n_grid repeated": (_spec(n_grid=[8, 8]), " : n_grid must not repeat a size, got (8, 8)"),
    "schema_version": (_spec(schema_version="2"), " /schema_version: expected '1'"),
    "schema_version type": (_spec(schema_version=1), " /schema_version: expected str, got int"),
    "band_support float": (
        _sim(band_support=[1.5, 3.9]), " /sim/band_support/0: expected int, got float"
    ),
    "band_support bool": (_sim(band_support=[2, True]), " /sim/band_support/1: expected int, got bool"),
    "beta str": (_sim(beta=["x"]), " /sim/beta/0: expected int/float, got str"),
    "beta bool": (_sim(beta=[True]), " /sim/beta/0: expected int/float, got bool"),
    "coeff_std": (_sim(coeff_std=0), " /sim: coefficient std must be positive, got 0.0"),
    "ou sigma": (_ou(ou_eps={"sigma": -1, "drift": -1}), " /sim: OU sigma must be positive, got -1.0"),
    "sigma_eta2 nan": (_sim(sigma_eta2=float("nan")), " /sim: sigma_eta2 must be non-negative, got nan"),
    "horizon beyond float range": (
        _sim(horizon=10**400), " /sim/horizon: integer too large for a float"
    ),
    "beta beyond float range": (_sim(beta=[10**400]), " /sim/beta/0: integer too large for a float"),
}


class TestSpecErrors:
    """Every spec error path exits 2 with one stderr line naming a JSON pointer."""

    def run_spec(self, tmp_path, capsys, doc):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        out = tmp_path / "o.csv"
        code = run_cli("experiment", "--spec", spec_path, "--out", out)
        assert not out.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", SPEC_ERRORS.values(), ids=SPEC_ERRORS)
    def test_error_line(self, tmp_path, capsys, doc, message):
        assert self.run_spec(tmp_path, capsys, doc) == (2, f"error: experiment spec{message}\n")

    def test_invalid_json(self, tmp_path, capsys):
        code, err = self.run_spec(tmp_path, capsys, "not json")
        assert (code, err) == (
            2,
            f"error: experiment spec {tmp_path / 'spec.json'}: invalid JSON "
            "(Expecting value: line 1 column 1 (char 0))\n",
        )

    def test_non_utf8_file_names_path_and_offset(self, tmp_path, capsys):
        spec_path, out = tmp_path / "spec.json", tmp_path / "o.csv"
        spec_path.write_bytes('{"n_grid": [8], "sim": {"basis": "cosiné"}}'.encode("latin-1"))
        assert run_cli("experiment", "--spec", spec_path, "--out", out) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: experiment spec {spec_path}: not UTF-8: cannot decode byte 0xe9 at offset 39\n"
        )

    @pytest.mark.parametrize("doc, message", NEW_SPEC_ERRORS.values(), ids=NEW_SPEC_ERRORS)
    def test_rejected_at_load(self, tmp_path, capsys, doc, message):
        assert self.run_spec(tmp_path, capsys, doc) == (2, f"error: experiment spec{message}\n")


    @pytest.mark.parametrize(
        "doc",
        [
            _sim(beta=math.nan), _sim(beta=[1, math.inf]), _sim(horizon=math.inf),
            _sim(sigma_eta2=-math.inf), _sim(conf_prob=math.nan),
            _sim(dense_u_noise_std=math.nan), _sim(coeff_std=math.inf),
            _ou(ou_eps={"sigma": math.nan, "drift": -1}), _ou(ou_u={"drift": -math.inf}),
            _method(a=math.nan), _method(a=math.inf),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, doc):
        code, err = self.run_spec(tmp_path, capsys, doc)
        assert code == 2 and err.startswith("error: experiment spec /")

    def test_haar_grid_rejected_before_any_cell_runs(self, tmp_path, capsys, monkeypatch):
        from deconfound import bench

        def no_generate(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "generate", no_generate)
        doc = _spec(sim={"basis": "haar"}, n_grid=[8, 12], replicates=2)
        code, err = self.run_spec(tmp_path, capsys, doc)
        assert code == 2
        assert err.startswith("error: experiment spec : ") and "n=12" in err


class TestConfigDefaults:
    """Values not given on the command line or in a spec are the config classes' defaults."""

    def test_minimal_spec(self, tmp_path):
        from deconfound import DecorConfig, ExperimentSpec, SimConfig

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec(methods=[{"method": "bfs"}])))
        spec = load_experiment_spec(spec_path)
        assert spec.sim == SimConfig(n=8)
        assert spec.methods == (DecorConfig(method="bfs"),)
        assert spec == ExperimentSpec(sim=SimConfig(n=8), n_grid=(8,), methods=spec.methods)

    def test_spec_values_reach_the_configs(self, tmp_path):
        from deconfound import BandLimitedProcess, OUProcess

        spec_path = tmp_path / "spec.json"
        doc = _spec(sim={"band_support": [1, 3], "coeff_std": 2, "beta": [1, 2], "d": 2})
        spec_path.write_text(json.dumps(doc))
        sim = load_experiment_spec(spec_path).sim
        assert sim.eps_process == sim.u_process == BandLimitedProcess((1, 3), 2.0)
        assert sim.beta == (1.0, 2.0) and sim.d == 2
        spec_path.write_text(json.dumps(_ou(ou_u={"drift": -2}, horizon=3)))
        sim = load_experiment_spec(spec_path).sim
        assert (sim.eps_process, sim.u_process) == (OUProcess(drift=-0.8), OUProcess(drift=-2.0))
        assert sim.horizon == 3.0 and isinstance(sim.horizon, float)

    def test_fit_without_optional_flags(self, sim_csv, monkeypatch):
        from deconfound import DecorConfig, cli

        configs = []
        real_fit = cli.decor_fit
        monkeypatch.setattr(cli, "decor_fit", lambda x, y, c: configs.append(c) or real_fit(x, y, c))
        assert run_cli("fit", "--input", sim_csv, "--out", sim_csv.parent / "e.json") == 0
        assert run_cli("fit", "--input", sim_csv, "--a", "5", "--max-iter", "9",
                       "--basis", "haar", "--method", "bfs", "--out", sim_csv.parent / "f.json") == 4
        assert configs == [
            DecorConfig(),
            DecorConfig(basis_kind="haar", method="bfs", a=5, max_iter=9),
        ]

    def test_simulate_without_optional_flags(self, tmp_path, monkeypatch):
        from deconfound import SimConfig, cli

        configs = []
        real_generate = cli.generate
        monkeypatch.setattr(cli, "generate", lambda c: configs.append(c) or real_generate(c))
        assert run_cli("simulate", "--n", "16", "--seed", "4", "--out", tmp_path / "s.csv") == 0
        assert configs == [SimConfig(n=16, seed=4)]

    def test_simulate_rejects_nan(self, tmp_path, capsys):
        out = tmp_path / "nan.csv"
        assert run_cli("simulate", "--n", "16", "--sigma2", "nan", "--out", out) == 2
        assert "sigma_eta2 must be non-negative, got nan" in capsys.readouterr().err
        assert not out.exists()


class TestUsage:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--input", "d.csv", "--horizon", "1"],
            ["experiment", "--spec", "s.json", "--out", "o.csv", "--threads", "2"],
            ["simulate", "--n", "8", "--out", "s.csv", "--horizon", "2"],
            ["simulate", "--n", "8", "--out", "s.csv", "--dense-u-noise", "1"],
            ["fit", "--input", "d.csv", "--bfs-cap", "7"],
            ["deconfound", "--input", "d.csv", "--out", "r", "--bfs-cap", "7"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


# ------------------------------------------------ CSV reader against the row-by-row reference


def _reference_read_series_csv(path):
    """The row-by-row reader ``read_series_csv`` replaced: one ``float()`` per cell, in file order.
    Like it, it drops one leading byte-order mark."""
    from deconfound.cli import InputFormatError

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFormatError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        has_t = bool(header) and header[0] == "t"
        body = header[1:] if has_t else header
        if len(body) < 2 or body[-1] != "y":
            raise InputFormatError(
                f"{path}: header must be t,x_1..x_d,y or x_1..x_d,y, got {','.join(header)}"
            )
        x_names = body[:-1]
        expected = [f"x_{i}" for i in range(1, len(x_names) + 1)]
        if x_names != expected:
            raise InputFormatError(
                f"{path}: covariate columns must be named {','.join(expected)}, "
                f"got {','.join(x_names)}"
            )
        d = len(x_names)
        t_vals, x_vals, y_vals = [], [], []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputFormatError(
                    f"{path}: row {i}: expected {len(header)} fields, got {len(row)}"
                )
            def parse(value, name):
                try:
                    return float(value)
                except ValueError:
                    raise InputFormatError(
                        f"{path}: row {i}, column {name}: cannot parse {value!r} as a number"
                    ) from None
            k = 0
            if has_t:
                t_vals.append(parse(row[0], "t"))
                k = 1
            x_vals.append([parse(row[k + j], x_names[j]) for j in range(d)])
            y_vals.append(parse(row[k + d], "y"))
        if not y_vals:
            raise InputFormatError(f"{path}: no data rows")
    t = np.asarray(t_vals) if has_t else None
    return t, np.asarray(x_vals), np.asarray(y_vals)


def _plain_rows(count):
    return "".join(f"{i / count!r},{math.sin(i)!r},{math.cos(i)!r}\n" for i in range(1, count + 1))


def _two_bad_cells():
    # a bad y cell on row 5 comes before a bad t cell on row 7 in file order, not in column order
    lines = _plain_rows(8).splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",3.0.1"
    lines[5] = "oops," + lines[5].split(",", 1)[1]
    return "t,x_1,y\n" + "\n".join(lines) + "\n"


CSV_CASES = {
    "plain": "t,x_1,y\n0.1,1.0,2.0\n0.2,1.5,3.0\n",
    "crlf": "t,x_1,y\r\n0.1,1.0,2.0\r\n0.2,1.5,3.0\r\n",
    "quoted cells": 't,"x_1",y\n"0.1","1.0",2.0\n0.2,"1.5","3.0"\n',
    "blank lines": "t,x_1,y\n\n0.1,1.0,2.0\n\n\n0.2,1.5,3.0\n\n",
    "spaces around cells": "t , x_1 ,y\n 0.1 , 1.0 ,2.0 \n0.2,\t1.5,3.0 \n",
    "no final newline": "t,x_1,y\n0.1,1.0,2.0\n0.2,1.5,3.0",
    "no t column": "x_1,y\n1.0,2.0\n1.5,3.0\n",
    "d = 2": "t,x_1,x_2,y\n0.1,1.0,-1.0,2.0\n0.2,1.5,0.5,3.0\n",
    "nan and inf": "t,x_1,y\n0.1,nan,inf\n0.2,-Infinity,-NaN\n0.3,1e400,-0\n",
    "underscore digits": "t,x_1,y\n0.1,1_0,2.0\n",
    "arabic-indic digit": "t,x_1,y\n0.1,١٢.٥,2.0\n",
    "hex literal": "t,x_1,y\n0.1,0x1,2.0\n",
    "empty cell": "t,x_1,y\n0.1,1.0,2.0\n0.2,,3.0\n",
    "bad cell before a short row": "t,x_1,y\n0.1,1.0,2.0\n0.2,oops,3.0\n0.3,1.0\n",
    "short row before a bad cell": "t,x_1,y\n0.1,1.0,2.0\n0.2,1.0\n0.3,oops,3.0\n",
    "every row too wide": "t,x_1,y\n0.1,1.0,2.0,9\n0.2,1.5,3.0,9\n",
    "every row too short": "t,x_1,y\n0.1,1.0\n0.2,1.5\n",
    "whitespace-only row": "t,x_1,y\n0.1,1.0,2.0\n   \n0.2,1.5,3.0\n",
    "bad t cell": "t,x_1,y\n0.1,1.0,2.0\nx,1.0,2.0\n",
    "bad y cell": "t,x_1,y\n0.1,1.0,2.0\n0.2,1.0,y\n",
    "header only": "t,x_1,y\n",
    "blank lines only": "t,x_1,y\n\n\r\n\r",
    "empty file": "",
    "bad header": "a,b\n1,2\n",
    "no covariate column": "t,y\n0.1,2.0\n0.2,3.0\n",
    "response column only": "y\n2.0\n3.0\n",
    "bad cells in a plain file": _two_bad_cells(),
    # numpy strips \x1c around a number and reads 1.0; float() rejects it
    "file separator before a cell": "t,x_1,y\n0.1,\x1c1,2.0\n",
    "file separator after a cell": "t,x_1,y\n0.1,1\x1f,2.0\n",
    "quoted cell holding a newline": 't,x_1,y\n0.1,"1\n0",2.0\n',
    "quoted cell ending in a newline": 't,x_1,y\n0.1,"1\n",2.0\n',
    "cr line endings": "t,x_1,y\r0.1,1.0,2.0\r0.2,1.5,3.0\r",
    "byte-order mark": "\ufefft,x_1,y\n0.1,1.0,2.0\n",
    "two byte-order marks": "\ufeff\ufefft,x_1,y\n0.1,1.0,2.0\n",
    "nul in a cell": "t,x_1,y\n0.1,1\x000,2.0\n",
    "nul after a cell": "t,x_1,y\n0.1,1.0\x00,2.0\n",
    # the csv module rejects a field longer than its limit, also one that spans lines
    "quoted cell longer than the field limit": 't,x_1,y\n0.1,"' + "\n" * 140_000 + '1.0",2.0\n',
    # the header ends at its first line break, whichever it is, and the body may end its
    # lines another way
    "header ended by lf, body by crlf": "t,x_1,y\n0.1,1.0,2.0\r\n0.2,1.5,3.0\r\n",
    "header ended by crlf, body by lf": "t,x_1,y\r\n0.1,1.0,2.0\n0.2,1.5,3.0\n",
    "header ended by cr, body by lf": "t,x_1,y\r0.1,1.0,2.0\n0.2,1.5,3.0\n",
    "header ended by crlf, then a lone cr": "t,x_1,y\r\n0.1,1.0,2.0\r0.2,1.5,3.0\n",
    "no line break after the header": "t,x_1,y",
    "header only, crlf": "t,x_1,y\r\n",
    "header only, cr": "t,x_1,y\r",
    "blank line before the header": "\nt,x_1,y\n0.1,1.0,2.0\n",
    "file separator after the header": "t,x_1,y\x1c\n0.1,1.0,2.0\n",
    "quoted header cell": 't,"x_1",y\n0.1,1.0,2.0\n0.2,1.5,3.0\n',
    "quoted header cell spanning lines": '"t\n",x_1,y\n0.1,1.0,2.0\n0.2,1.5,3.0\n',
    "misnamed header cell spanning lines": 't,"x_\r\n1",y\r\n0.1,1.0,2.0\r\n',
    "byte-order mark before a cr-ended header": "\ufefft,x_1,y\r0.1,1.0,2.0\r0.2,1.5,3.0\r",
    "quoted cr-only file": 't,"x_1","y"\r"0.1","1.0","2.0"\r"0.2","1.5","3.0"\r',
    "quoted crlf file, a lone cr in a quoted cell": 't,x_1,y\r\n0.1,"1.0\r",2.0\r\n0.2,"1.5",3.0\r\n',
    # the lone CR turns each line end into LF; the error names the cell as the file holds it
    "quoted cell holding an unparsable cr": 't,x_1,y\n0.1,1.0,2.0\n0.2,"1\r5",3.0\n',
    "quoted body longer than the field limit, quotes balanced on each line":
        't,x_1,y\n"0.0",0.0,"1.0"\n' + _plain_rows(2**12),
}


# fixed before the first run: drawing another seed to get past a failure would hide what it found
_FUZZ_SEED = 8_314_902
# parts of odd cells: whitespace that float() and numpy may strip unalike, digits, quotes, NUL
_ODD_PARTS = ["\x0c", "\x1c", "\u2003", "\xa0", "_", "\u0661", "0x", '"', "\x00"]


def _fuzzed_cell(rng):
    """Mostly a float's repr over 1e±300, subnormal or out of range; now and then an odd cell."""
    kind = rng.random()
    if kind < 0.8:
        cell = repr(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300))
    elif kind < 0.9:
        cell = repr(rng.randrange(1, 2**52) * 5e-324)
    else:
        cell = rng.choice(("1e400", "-1e400", "1e-400", "-1e-400"))
    if rng.random() < 0.05:
        odd = rng.random()
        if odd < 0.1:
            return ""
        if odd < 0.25:
            return f'"{cell}"'
        at = rng.choice((0, len(cell), rng.randrange(len(cell) + 1)))
        return cell[:at] + rng.choice(_ODD_PARTS) + cell[at:]
    return cell


def _fuzzed_csv(rng):
    """A header and up to 8 rows, some too short or too long, with LF, CRLF or CR line ends."""
    d = rng.randint(1, 3)
    header = ["t"] * (rng.random() < 0.5) + [f"x_{i}" for i in range(1, d + 1)] + ["y"]
    lines = [",".join(header)]
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.03:
            lines.append("")
        width = len(header) + (rng.choice((-1, 1)) if rng.random() < 0.03 else 0)
        lines.append(",".join(_fuzzed_cell(rng) for _ in range(width)))
    end = rng.choice(("\n", "\r\n", "\r"))
    return end.join(lines) + end * (rng.random() < 0.7)


def _read_outcome(reader, path):
    """Shapes, dtypes and bytes of the arrays ``reader`` returns, or its exception type and message.

    A warning is raised as an error, so a reader that warns gives another outcome.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arrays = reader(path)
    except Exception as e:
        return type(e), str(e)
    return [None if a is None else (a.shape, a.dtype, a.tobytes()) for a in arrays]


def _traced_peak(path):
    """The peak of the memory ``tracemalloc`` traces while ``read_series_csv`` reads ``path``."""
    from deconfound.cli import read_series_csv

    tracemalloc.start()
    try:
        read_series_csv(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReadSeriesCsv:
    """``read_series_csv`` returns what the row-by-row reader returned, bit for bit, or its error."""

    @pytest.mark.parametrize("text", CSV_CASES.values(), ids=CSV_CASES)
    def test_matches_row_by_row_reader(self, tmp_path, text):
        from deconfound.cli import read_series_csv

        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _read_outcome(read_series_csv, path) == _read_outcome(
            _reference_read_series_csv, path
        )

    @pytest.mark.parametrize("n", [1, 257, 1024])
    @pytest.mark.parametrize("d", [1, 3])
    def test_written_files_round_trip(self, tmp_path, n, d):
        from deconfound.cli import read_series_csv, write_series_csv

        rng = np.random.default_rng(n * 10 + d)
        x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, (n, d))
        y = rng.standard_normal(n)
        t = np.arange(1, n + 1) / n
        path = tmp_path / "data.csv"
        write_series_csv(path, t, x, y)
        outcome = _read_outcome(read_series_csv, path)
        assert outcome == _read_outcome(_reference_read_series_csv, path)
        assert outcome == [(a.shape, a.dtype, a.tobytes()) for a in (t, x, y)]

    def test_fuzzed_files_match_row_by_row_reader(self, tmp_path):
        from deconfound.cli import read_series_csv

        rng = random.Random(_FUZZ_SEED)
        path = tmp_path / "data.csv"
        mismatched = []
        for _ in range(2000):
            text = _fuzzed_csv(rng)
            path.write_bytes(text.encode("utf-8"))
            outcome = _read_outcome(read_series_csv, path)
            if outcome != _read_outcome(_reference_read_series_csv, path):
                mismatched.append(text)
        assert mismatched == []

    def test_cr_ended_body_is_parsed_by_numpy(self, tmp_path, monkeypatch):
        from deconfound import cli

        tables = []
        numpy_table = cli._numpy_table
        monkeypatch.setattr(
            cli, "_numpy_table", lambda *args: tables.append(numpy_table(*args)) or tables[-1]
        )
        rows = [[0.1, 1.0, 2.0], [0.2, 1.5, 3.0], [0.3, 2.0, 4.0]]
        lines = ["t,x_1,y", *(",".join(map(repr, row)) for row in rows)]
        texts = [end.join(lines) + end * 2 for end in ("\r", "\r\n", "\n")]
        texts.append("t,x_1,y\r0.1,1.0,2.0\r0.2,1.5,3.0\r\n0.3,2.0,4.0")
        # quoted cells that hold no line break leave every line's quotes balanced
        texts.append('t,x_1,y\n0.1,"1.0",2.0\n0.2,1.5,3.0\n0.3,2.0,4.0\n')
        texts.append('t,x_1,y\r0.1,"1.0",2.0\r0.2,1.5,3.0\r0.3,2.0,4.0\r')
        path = tmp_path / "data.csv"
        for text in texts:
            path.write_bytes(text.encode("utf-8"))
            _, x, y = cli.read_series_csv(path)
            assert np.column_stack([x, y]).tolist() == [row[1:] for row in rows]
        assert [None if table is None else table.tolist() for table in tables] == [rows] * 6

    def test_peak_memory_is_bounded_by_the_file_size(self, tmp_path):
        # the text and its lines, alive together for a moment, are 3x the file; the text kept
        # alive while numpy parses the lines would be 3.5x, and two StringIO copies of it, at
        # 4 bytes a character, 9.5x
        path = tmp_path / "data.csv"
        path.write_text("t,x_1,y\n" + _plain_rows(2**16), encoding="utf-8")
        assert _traced_peak(path) < 3.25 * path.stat().st_size

    def test_peak_memory_of_a_quoted_file_is_bounded_by_the_file_size(self, tmp_path):
        # one quoted cell takes the path of a file with none
        path = tmp_path / "data.csv"
        path.write_text('t,x_1,y\n0.0,"0.0",1.0\n' + _plain_rows(2**16), encoding="utf-8")
        assert _traced_peak(path) < 3.25 * path.stat().st_size

    def test_csv_module_error_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("t,x_1,y\n0.1,1.0,2.0\n0.2,1.0," + "9" * 200_000 + "\n")
        assert run_cli("fit", "--input", path) == 2
        assert capsys.readouterr().err == "error: field larger than field limit (131072)\n"


class TestFitOutput:
    """``fit`` writes the estimate as one JSON line that parses equal to the library's dict."""

    def expected(self, path):
        from deconfound import decor_fit

        _, x, y = _reference_read_series_csv(path)
        return decor_fit(x, y).to_json_dict()

    def assert_bit_equal(self, doc, expected):
        assert doc == expected
        for key in ("beta", "fitted_time_domain", "residuals_time_domain"):
            assert np.array(doc[key]).tobytes() == np.array(expected[key]).tobytes()
        assert math.copysign(1.0, doc["r_squared"]) == math.copysign(1.0, expected["r_squared"])

    def test_out_file(self, sim_csv, tmp_path):
        out = tmp_path / "est.json"
        assert run_cli("fit", "--input", sim_csv, "--out", out) == 0
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        self.assert_bit_equal(json.loads(text), self.expected(sim_csv))

    def test_stdout(self, sim_csv, capsys):
        assert run_cli("fit", "--input", sim_csv) == 0
        text = capsys.readouterr().out
        assert text.count("\n") == 1
        self.assert_bit_equal(json.loads(text), self.expected(sim_csv))

    def test_json_dict_types(self, sim_csv):
        doc = self.expected(sim_csv)
        for key in ("beta", "fitted_time_domain", "residuals_time_domain"):
            assert all(type(v) is float for v in doc[key])
        for key in ("excluded_frequencies", "inliers"):
            assert all(type(v) is int for v in doc[key])


class TestParser:
    def test_two_calls_build_one_parser(self, sim_csv, tmp_path, monkeypatch):
        from deconfound import cli

        builds = []
        real_flags = cli._add_common_fit_flags
        monkeypatch.setattr(cli, "_add_common_fit_flags", lambda p: builds.append(p) or real_flags(p))
        cli.build_parser.cache_clear()
        assert run_cli("fit", "--input", sim_csv, "--out", tmp_path / "a.json") == 0
        assert run_cli("fit", "--input", sim_csv, "--out", tmp_path / "b.json") == 0
        assert len(builds) == 2  # the fit and deconfound subparsers of a single parser

    def test_import_builds_no_parser(self):
        import os
        import subprocess
        import sys

        src = Path(__file__).resolve().parent.parent / "src"
        code = "from deconfound import cli; print(cli.build_parser.cache_info().currsize)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout
        assert out == "0\n"


SIZE_ERRORS = {
    "sim d": (_spec(sim={"d": 12}, n_grid=[8, 16]), "sim.d = 12"),
    "method a": (_spec(methods=[{"method": "bfs", "a": 12}], n_grid=[8, 16]), "methods[0].a"),
    "band support": (_spec(sim={"band_support": [1, 12]}, n_grid=[8, 16]), "band support index 12"),
}


class TestSpecSizes:
    """Sizes that the smallest grid entry cannot hold are rejected before any cell runs."""

    run_spec = TestSpecErrors.run_spec

    @pytest.mark.parametrize("doc, field", SIZE_ERRORS.values(), ids=SIZE_ERRORS)
    def test_rejected_before_any_cell_runs(self, tmp_path, capsys, monkeypatch, doc, field):
        from deconfound import bench

        def no_generate(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(bench, "generate", no_generate)
        code, err = self.run_spec(tmp_path, capsys, doc)
        assert code == 2
        assert err.startswith("error: experiment spec : ") and field in err and "n=8" in err
