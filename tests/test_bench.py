"""Experiment harness: determinism, aggregation, ablations, CSV output."""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest

from deconfound import (
    AblationKind,
    BandLimitedProcess,
    ConfigurationError,
    DecorConfig,
    ExperimentSpec,
    Method,
    SimConfig,
    resolve_count,
    run_ablation,
    run_consistency_sweep,
    run_experiment,
)
from deconfound import bench
from deconfound.bench import (
    DEFAULT_FRACTION_GRID,
    RECORD_CSV_HEADER,
    RESULT_CSV_HEADER,
    method_labels,
    write_rows,
)


def small_spec(**kw):
    defaults = dict(
        sim=SimConfig(n=8, sigma_eta2=1.0),
        n_grid=(8, 16),
        methods=(DecorConfig(), DecorConfig(method=Method.OLS_BASELINE)),
        replicates=20,
        seed_base=5,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestSpecSizes:
    """Every size the smallest grid entry must hold is checked when the spec is built."""

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(sim=SimConfig(n=8, d=12)), r"^sim\.d = 12 exceeds the smallest grid size n=8$"),
            (
                dict(methods=(DecorConfig(a=12),)),
                r"^methods\[0\]\.a at the smallest grid size n=8: threshold count 12 out of range",
            ),
            (
                dict(sim=SimConfig(n=8, u_process=BandLimitedProcess(support=(1, 12)))),
                r"^sim\.u_process band support index 12 exceeds the smallest grid size n=8$",
            ),
        ],
        ids=["d", "a", "support"],
    )
    def test_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            small_spec(**kw)

    def test_sizes_that_fit_accepted(self):
        spec = small_spec(
            sim=SimConfig(n=8, d=8, beta=3.0, eps_process=BandLimitedProcess(support=(1, 8))),
            methods=(DecorConfig(a=8), DecorConfig(method=Method.OLS_BASELINE, a=12)),
        )
        assert spec.n_grid == (8, 16)


class TestRunExperiment:
    def test_bit_identical_reruns(self):
        rows1, recs1 = run_experiment(small_spec())
        rows2, recs2 = run_experiment(small_spec())
        assert rows1 == rows2
        assert recs1 == recs2

    def test_rows_cover_grid_and_methods(self):
        rows, _ = run_experiment(small_spec())
        assert {(r.n, r.method) for r in rows} == {
            (8, "DecoR-Tor"),
            (8, "OLS"),
            (16, "DecoR-Tor"),
            (16, "OLS"),
        }

    def test_statistics_recomputable_from_records(self):
        rows, recs = run_experiment(small_spec())
        for row in rows:
            errs = np.array(
                [
                    r.abs_error
                    for r in recs
                    if r.n == row.n and r.method == row.method and not r.failed
                ]
            )
            assert row.mae == pytest.approx(errs.mean(), abs=1e-15)
            assert row.mae_stderr == pytest.approx(
                errs.std(ddof=1) / math.sqrt(errs.size), abs=1e-15
            )
            assert row.replicates_failed == sum(
                1 for r in recs if r.n == row.n and r.method == row.method and r.failed
            )

    def test_infeasible_cells_counted_not_fatal(self):
        spec = small_spec(
            n_grid=(30,),
            methods=(DecorConfig(method=Method.BFS, a=0.5, bfs_cap=1000),),
            replicates=3,
        )
        rows, recs = run_experiment(spec)
        assert len(rows) == 1
        assert rows[0].replicates_failed == 3
        assert math.isnan(rows[0].mae)
        assert all(r.failed for r in recs)

    def test_zero_iterations_for_one_shot_methods(self):
        rows, recs = run_experiment(small_spec())
        ols_rows = [r for r in rows if r.method == "OLS"]
        assert all(r.mean_iterations == 0 and r.max_iterations == 0 for r in ols_rows)

    def test_duplicate_method_labels_disambiguated(self):
        labels = method_labels((DecorConfig(), DecorConfig(a=0.8)))
        assert labels == ["DecoR-Tor", "DecoR-Tor#2"]

    def test_clean_noiseless_single_replicate_zero_error(self):
        spec = ExperimentSpec(
            sim=SimConfig(n=16, conf_prob=0.0, sigma_eta2=0.0),
            n_grid=(16,),
            methods=(
                DecorConfig(),
                DecorConfig(method=Method.BFS),
                DecorConfig(method=Method.OLS_BASELINE),
            ),
            replicates=1,
            seed_base=9,
        )
        rows, _ = run_experiment(spec)
        assert len(rows) == 3
        for r in rows:
            assert r.mae <= 1e-8, (r.method, r.mae)


class TestSweepAndAblation:
    def test_consistency_sweep_verdict(self):
        spec = small_spec(n_grid=(16, 32, 64, 128), replicates=40)
        rows, _, verdict = run_consistency_sweep(spec)
        assert {r.method for r in rows} == {"DecoR-Tor", "OLS"}
        assert verdict.robust_halved
        assert verdict.baseline_floor_held
        assert verdict.robust_last < verdict.robust_first

    def test_sweep_needs_four_points(self):
        with pytest.raises(ValueError):
            run_consistency_sweep(small_spec(n_grid=(8, 16)))

    def test_outlier_fraction_rows(self):
        spec = small_spec(n_grid=(64,), replicates=10)
        rows, _ = run_ablation(AblationKind.OUTLIER_FRACTION, spec, fraction_grid=(0.1, 0.3))
        assert [r.conf_prob for r in rows] == [0.1, 0.3]
        assert all(r.n == 64 for r in rows)

    @pytest.mark.parametrize("n", [64, 100, 512, 1000])
    def test_outlier_fraction_keep_counts_are_exact(self, monkeypatch, n):
        # ceil((1 - q - 0.05) n) in exact rational arithmetic; in floats
        # 1.0 - 0.7 - 0.05 is 0.25000000000000006, which keeps 129 of 512 rows
        decimals = ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7")
        assert DEFAULT_FRACTION_GRID == tuple(float(q) for q in decimals)
        seen = []

        def capture(spec):
            seen.append(resolve_count(spec.methods[0].a, spec.n_grid[0]))
            return [], []

        monkeypatch.setattr(bench, "run_experiment", capture)
        run_ablation(AblationKind.OUTLIER_FRACTION, small_spec(n_grid=(n,)), margin=0.05)
        assert seen == [
            math.ceil((1 - Fraction(q) - Fraction("0.05")) * n) for q in decimals
        ]

    def test_dense_noise_rows(self):
        spec = small_spec(n_grid=(16, 32), replicates=10)
        rows, _ = run_ablation(AblationKind.DENSE_NOISE, spec)
        assert [r.n for r in rows] == [16, 32]

    def test_two_dim_rows(self):
        spec = small_spec(n_grid=(32,), replicates=10)
        rows, _ = run_ablation(AblationKind.TWO_DIM, spec)
        assert {r.method for r in rows} == {"DecoR-Tor", "OLS"}


class TestCsvOutput:
    def test_result_rows_round_trip(self, tmp_path):
        rows, recs = run_experiment(small_spec(replicates=5))
        path = tmp_path / "rows.csv"
        write_rows(path, RESULT_CSV_HEADER, rows)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == RESULT_CSV_HEADER
        assert len(lines) == 1 + len(rows)
        parsed = list(csv.DictReader(lines))
        assert float(parsed[0]["mae"]) == pytest.approx(rows[0].mae)

    def test_record_rows_header(self, tmp_path):
        rows, recs = run_experiment(small_spec(replicates=5))
        path = tmp_path / "recs.csv"
        write_rows(path, RECORD_CSV_HEADER, recs)
        with open(path) as fh:
            first = fh.readline().strip()
        assert first == RECORD_CSV_HEADER

    def test_grid_must_be_sorted(self):
        with pytest.raises(ValueError):
            small_spec(n_grid=(16, 8))

    @pytest.mark.parametrize("n_grid, named", [((0, 8), "n=0"), ((8, 12), "n=12")])
    def test_grid_sizes_checked_against_the_basis(self, n_grid, named):
        with pytest.raises(ConfigurationError, match=named):
            small_spec(sim=SimConfig(n=8, basis_kind="haar"), n_grid=n_grid)

    def test_bytes_match_field_by_field_reference(self, tmp_path):
        # the writers as they were before one generic writer replaced them
        def reference(rows, recs):
            text = RESULT_CSV_HEADER + "\n"
            for r in rows:
                text += (
                    f"{r.n},{r.method},{r.sigma_eta2!r},{r.conf_prob!r},{r.mae!r},"
                    f"{r.mae_stderr!r},{r.mean_iterations!r},{r.max_iterations},"
                    f"{r.replicates_failed}\n"
                )
            text += RECORD_CSV_HEADER + "\n"
            for r in recs:
                text += (
                    f"{r.n},{r.method},{r.sigma_eta2!r},{r.conf_prob!r},{r.replicate},"
                    f"{r.abs_error!r},{r.iterations},{int(r.failed)}\n"
                )
            return text

        # a BFS cell over its cap fails every replicate: NaN errors and failed = 1
        methods = (DecorConfig(), DecorConfig(method=Method.BFS, a=0.5, bfs_cap=10))
        rows, recs = run_experiment(small_spec(methods=methods, replicates=3))
        assert any(r.failed for r in recs) and not all(r.failed for r in recs)
        write_rows(tmp_path / "rows.csv", RESULT_CSV_HEADER, rows)
        write_rows(tmp_path / "recs.csv", RECORD_CSV_HEADER, recs)
        written = (tmp_path / "rows.csv").read_bytes() + (tmp_path / "recs.csv").read_bytes()
        assert written == reference(rows, recs).encode()
