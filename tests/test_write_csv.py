"""Every CSV the package writes goes through ``bench.write_csv``, in one format."""

import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from deconfound import (
    BasisKind,
    DecorConfig,
    ExperimentSpec,
    SimConfig,
    build_basis,
    decor_fit,
    run_experiment,
)
from deconfound.bench import RECORD_CSV_HEADER, RESULT_CSV_HEADER, write_rows
from deconfound.cli import load_experiment_spec, main, read_series_csv, write_series_csv


def run_cli(*argv):
    return main([str(a) for a in argv])


# ------------------------------------------ the writers write_csv replaced, kept as the reference


def _reference_write_columns(path, names, columns):
    """Equal-length numeric columns under ``names``, each value as its float repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _reference_write_series_csv(path, t, x, y):
    names = ["t", *(f"x_{i}" for i in range(1, x.shape[1] + 1)), "y"]
    _reference_write_columns(path, names, [t, *x.T, y])


def _reference_write_excluded(path, excluded):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{k}\n" for k in ["k", *excluded.tolist()])


def _reference_write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            cells = [getattr(row, f.name) for f in fields(row)]
            cells = [int(v) if isinstance(v, bool) else v for v in cells]
            fh.write(",".join(v if isinstance(v, str) else repr(v) for v in cells) + "\n")


class TestSameBytesAsBefore:
    """Every CSV whose values were plain Python numbers is written byte for byte as before."""

    @pytest.mark.parametrize("n", [1, 257])
    @pytest.mark.parametrize("d", [1, 3])
    def test_series_csv(self, tmp_path, n, d):
        rng = np.random.default_rng(n * 10 + d)
        x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, (n, d))
        x[0, 0] = -0.0
        y = rng.standard_normal(n)
        t = np.arange(1, n + 1) / n
        write_series_csv(tmp_path / "new.csv", t, x, y)
        _reference_write_series_csv(tmp_path / "old.csv", t, x, y)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("method", ["torrent", "olsbaseline"])
    def test_report_bundle_csvs(self, tmp_path, method):
        data = tmp_path / "data.csv"
        assert run_cli("simulate", "--n", "64", "--d", "2", "--seed", "4", "--out", data) == 0
        prefix = tmp_path / "report"
        assert run_cli("deconfound", "--input", data, "--method", method,
                       "--horizon", "2", "--out", prefix) == 0
        _, x, y = read_series_csv(data)
        est = decor_fit(x, y, DecorConfig(method=method))
        t = np.arange(1, 65) * (2.0 / 64)
        columns = [t, est.fitted_time_domain, est.residuals_time_domain]
        _reference_write_columns(tmp_path / "fitted.csv", ["t", "fitted", "residual"], columns)
        _reference_write_excluded(tmp_path / "excluded.csv", est.excluded_frequencies)
        for new, old in (("report_fitted.csv", "fitted.csv"), ("report_excluded.csv", "excluded.csv")):
            assert (tmp_path / new).read_bytes() == (tmp_path / old).read_bytes()
        if method == "olsbaseline":  # the baseline excludes nothing: a header and no rows
            assert (tmp_path / "report_excluded.csv").read_bytes() == b"k\n"

    def test_experiment_csvs_with_failed_replicates(self, tmp_path):
        # the BFS cell over the cap at n = 30 fails every replicate: NaN errors and failed = 1
        spec = {
            "sim": {"sigma_eta2": 0.5},
            "n_grid": [8, 30],
            "methods": [{"method": "torrent"}, {"method": "bfs", "a": 0.5}],
            "replicates": 3,
            "seed_base": 2,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "rows.csv"
        assert run_cli("experiment", "--spec", spec_path, "--out", out) == 0
        rows, records = run_experiment(load_experiment_spec(spec_path))
        assert any(r.failed for r in records) and not all(r.failed for r in records)
        _reference_write_rows(tmp_path / "old_rows.csv", RESULT_CSV_HEADER, rows)
        _reference_write_rows(tmp_path / "old_records.csv", RECORD_CSV_HEADER, records)
        assert out.read_bytes() == (tmp_path / "old_rows.csv").read_bytes()
        records_out = tmp_path / "rows.csv.replicates.csv"
        assert records_out.read_bytes() == (tmp_path / "old_records.csv").read_bytes()


class TestNumbersReadBack:
    """Values that are numpy scalars are written as plain numbers that read back exactly."""

    @pytest.mark.parametrize("kind", ["cosine", "haar"])
    def test_basis_dump(self, tmp_path, kind):
        dump = tmp_path / "basis.csv"
        assert run_cli("check-basis", "--kind", kind, "--n", "8", "--dump-csv", dump) == 0
        with open(dump, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["j", "k", "value"]
        assert [(int(j), int(k)) for j, k, _ in rows] == [
            (j, k) for j in range(1, 9) for k in range(1, 9)
        ]
        values = np.array([float(v) for _, _, v in rows])
        matrix = build_basis(BasisKind(kind), 8).matrix
        assert values.tobytes() == matrix.ravel().tobytes()

    def _assert_numeric_cells(self, path, header):
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == header.split(",")
        for line in lines[1:]:
            for name, cell in zip(lines[0], line):
                if name != "method":
                    float(cell)
        return lines

    def test_numpy_scalar_config(self, tmp_path):
        sim = SimConfig(n=8, sigma_eta2=np.float64(0.5), conf_prob=np.float64(0.25))
        spec = ExperimentSpec(sim=sim, n_grid=(8,), replicates=2)
        rows, records = run_experiment(spec)
        write_rows(tmp_path / "rows.csv", RESULT_CSV_HEADER, rows)
        write_rows(tmp_path / "records.csv", RECORD_CSV_HEADER, records)
        lines = self._assert_numeric_cells(tmp_path / "rows.csv", RESULT_CSV_HEADER)
        assert lines[1][2:4] == ["0.5", "0.25"]
        self._assert_numeric_cells(tmp_path / "records.csv", RECORD_CSV_HEADER)
