"""End-to-end pipeline: estimation, exclusion reports, deconfounded fits."""

import json

import numpy as np
import pytest

from deconfound import (
    BasisKind,
    ConfigurationError,
    DecorConfig,
    FeasibilityError,
    Method,
    SimConfig,
    decor_fit,
    generate,
    resolve_count,
)

ALL_METHODS = [Method.TORRENT, Method.BFS, Method.OLS_BASELINE]


class TestDecorFit:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_clean_instance_recovers_beta(self, method):
        # robust methods still exclude n - a frequencies, so their fitted
        # values match y on the kept frequencies only; the full-sample
        # baseline reproduces y pointwise
        from deconfound import build_basis, transform

        cfg = SimConfig(n=16, conf_prob=0.0, sigma_eta2=0.0, seed=21)
        x, y, truth = generate(cfg)
        est = decor_fit(x, y, DecorConfig(method=method))
        assert np.max(np.abs(est.beta - truth.beta)) < 1e-9
        basis = build_basis(BasisKind.COSINE, 16)
        f_fit = transform(est.fitted_time_domain, basis)
        f_y = transform(y, basis)
        assert np.max(np.abs((f_fit - f_y)[est.inliers - 1])) < 1e-8
        if method is Method.OLS_BASELINE:
            assert np.max(np.abs(est.fitted_time_domain - y)) < 1e-8
            assert est.r_squared == pytest.approx(1.0, abs=1e-6)

    def test_bfs_noiseless_reference_instance_is_exact(self):
        # benchmark configuration at n = 16 without noise: exhaustive search
        # point-identifies the coefficient
        cfg = SimConfig(n=16, sigma_eta2=0.0, seed=99)
        x, y, truth = generate(cfg)
        est = decor_fit(x, y, DecorConfig(method=Method.BFS, a=0.7))
        assert abs(est.beta[0] - 3.0) <= 1e-8

    def test_bfs_explicit_small_candidates_exact(self):
        # n = 8 noiseless with candidate sets of size n - ceil(0.3 n) = 5,
        # built explicitly: still point-identifies the coefficient
        import math

        from deconfound import RegressionProblem, bfs, build_basis, candidate_sets_all_of_size, transform

        n = 8
        cfg = SimConfig(n=n, sigma_eta2=0.0, seed=17)
        x, y, truth = generate(cfg)
        basis = build_basis(BasisKind.COSINE, n)
        problem = RegressionProblem(transform(x, basis), transform(y, basis))
        sets = candidate_sets_all_of_size(n, n - math.ceil(0.3 * n))
        fit = bfs(problem, sets)
        assert abs(fit.beta[0] - 3.0) <= 1e-8

    def test_baseline_equals_time_domain_least_squares(self):
        cfg = SimConfig(n=64, sigma_eta2=1.0, seed=22)
        x, y, _ = generate(cfg)
        est = decor_fit(x, y, DecorConfig(method=Method.OLS_BASELINE))
        direct, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert np.max(np.abs(est.beta - direct)) < 1e-9
        assert est.excluded_frequencies.size == 0
        assert est.iterations == 0

    def test_y_scaling_equivariance(self):
        cfg = SimConfig(n=48, sigma_eta2=1.0, seed=23)
        x, y, _ = generate(cfg)
        c = 2.5
        base = decor_fit(x, y, DecorConfig())
        scaled = decor_fit(x, c * y, DecorConfig())
        assert np.max(np.abs(scaled.beta - c * base.beta)) < 1e-8
        assert np.array_equal(scaled.excluded_frequencies, base.excluded_frequencies)

    @pytest.mark.parametrize("method, n", [(Method.TORRENT, 48), (Method.BFS, 16)])
    def test_shift_along_x_shifts_beta(self, method, n):
        # y + X b has residuals y - X beta at beta + b: same fit, beta moved by b
        x, y, _ = generate(SimConfig(n=n, sigma_eta2=1.0, seed=27))
        b = -1.7
        base = decor_fit(x, y, DecorConfig(method=method))
        shifted = decor_fit(x, y + x[:, 0] * b, DecorConfig(method=method))
        assert np.max(np.abs(shifted.beta - (base.beta + b))) < 1e-8
        assert np.array_equal(shifted.excluded_frequencies, base.excluded_frequencies)

    @pytest.mark.parametrize("method, n", [(Method.TORRENT, 48), (Method.BFS, 16)])
    @pytest.mark.parametrize("j", [0, 1])
    def test_column_scaling_scales_its_coefficient_inversely(self, method, n, j):
        x, y, _ = generate(SimConfig(n=n, d=2, beta=(3.0, -1.0), sigma_eta2=1.0, seed=28))
        c = 4.0
        x_scaled = x.copy()
        x_scaled[:, j] *= c
        base = decor_fit(x, y, DecorConfig(method=method))
        scaled = decor_fit(x_scaled, y, DecorConfig(method=method))
        expected = base.beta.copy()
        expected[j] /= c
        assert np.max(np.abs(scaled.beta - expected)) < 1e-8
        assert np.array_equal(scaled.excluded_frequencies, base.excluded_frequencies)

    @pytest.mark.parametrize("process", ["band", "ou"])
    def test_cli_simulate_then_fit_matches_library(self, tmp_path, process):
        from deconfound import OUProcess
        from deconfound.cli import main

        data, est_path = tmp_path / "data.csv", tmp_path / "est.json"
        argv = ["simulate", "--process", process, "--n", "64", "--seed", "31", "--out", data]
        assert main([str(a) for a in argv]) == 0
        assert main(["fit", "--input", str(data), "--out", str(est_path)]) == 0
        procs = {}
        if process == "ou":
            procs = dict(eps_process=OUProcess(1.0, -0.8), u_process=OUProcess(1.0, -0.5))
        x, y, _ = generate(SimConfig(n=64, seed=31, **procs))
        est = decor_fit(x, y, DecorConfig())
        doc = json.loads(est_path.read_text())
        assert doc["beta"] == est.beta.tolist()
        assert doc["inliers"] == est.inliers.tolist()

    @pytest.mark.parametrize("method", [Method.TORRENT, Method.BFS])
    def test_excluded_count_is_complement_of_threshold(self, method):
        n = 16
        cfg = SimConfig(n=n, sigma_eta2=1.0, seed=24)
        x, y, _ = generate(cfg)
        est = decor_fit(x, y, DecorConfig(method=method, a=0.7))
        assert est.excluded_frequencies.size == n - resolve_count(0.7, n)
        assert np.array_equal(
            np.sort(np.concatenate([est.inliers, est.excluded_frequencies])),
            np.arange(1, n + 1),
        )

    def test_fitted_plus_residuals_is_y(self):
        cfg = SimConfig(n=32, sigma_eta2=1.0, seed=25)
        x, y, _ = generate(cfg)
        est = decor_fit(x, y, DecorConfig())
        assert np.max(np.abs(est.fitted_time_domain + est.residuals_time_domain - y)) < 1e-12

    def test_exact_recovery_with_margin(self):
        # few confounded frequencies and no noise: exact recovery
        for seed in range(5):
            cfg = SimConfig(n=200, sigma_eta2=0.0, conf_prob=5 / 200, seed=seed)
            x, y, truth = generate(cfg)
            est = decor_fit(x, y, DecorConfig(a=200 - truth.g_set.size))
            assert np.max(np.abs(est.beta - truth.beta)) <= 1e-8

    def test_residuals_track_confounder(self):
        cors = []
        for seed in range(20):
            cfg = SimConfig(n=128, sigma_eta2=0.0, seed=seed)
            x, y, truth = generate(cfg)
            est = decor_fit(x, y, DecorConfig())
            cors.append(np.corrcoef(est.residuals_time_domain, truth.u_time)[0, 1])
        assert np.mean(cors) >= 0.5

    def test_haar_basis_pipeline(self):
        cfg = SimConfig(n=64, sigma_eta2=0.0, conf_prob=0.0, basis_kind=BasisKind.HAAR, seed=26)
        x, y, truth = generate(cfg)
        est = decor_fit(x, y, DecorConfig(basis_kind=BasisKind.HAAR))
        assert np.max(np.abs(est.beta - truth.beta)) < 1e-9

    def test_multivariate_fit(self):
        cfg = SimConfig(n=128, d=2, sigma_eta2=0.0, seed=27)
        x, y, truth = generate(cfg)
        est = decor_fit(x, y, DecorConfig())
        assert est.beta.shape == (2,)
        assert np.max(np.abs(est.beta - truth.beta)) < 0.2

    def test_bfs_cap_exceeded(self):
        rng = np.random.default_rng(28)
        x = rng.normal(size=(30, 1))
        y = rng.normal(size=30)
        with pytest.raises(FeasibilityError):
            decor_fit(x, y, DecorConfig(method=Method.BFS, a=0.5))

    def test_haar_requires_power_of_two(self):
        rng = np.random.default_rng(29)
        with pytest.raises(ConfigurationError):
            decor_fit(rng.normal(size=(24, 1)), rng.normal(size=24),
                      DecorConfig(basis_kind=BasisKind.HAAR))

    def test_more_covariates_than_samples_rejected(self):
        rng = np.random.default_rng(30)
        with pytest.raises(ValueError):
            decor_fit(rng.normal(size=(3, 4)), rng.normal(size=3), DecorConfig())

    def test_non_convergence_reported(self):
        cfg = SimConfig(n=64, sigma_eta2=4.0, seed=31)
        x, y, _ = generate(cfg)
        est = decor_fit(x, y, DecorConfig(max_iter=1))
        assert est.iterations == 1
        assert not est.converged


    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("n", [16, 1000])
    def test_excluded_is_the_complement_of_inliers(self, method, n):
        cfg = SimConfig(n=n, seed=n)
        x, y, _ = generate(cfg)
        a = n - 1 if method is Method.BFS else 0.7
        est = decor_fit(x, y, DecorConfig(method=method, a=a))
        expected = np.setdiff1d(np.arange(1, n + 1), est.inliers)
        assert est.excluded_frequencies.dtype == expected.dtype
        np.testing.assert_array_equal(est.excluded_frequencies, expected)


class TestDecorConfig:
    @pytest.mark.parametrize("a", [-3, 0, 0.0, -3.0, -0.5, float("nan"), True, False, 2.5, "0.7"])
    def test_bad_threshold_rejected_at_construction(self, a):
        with pytest.raises(ValueError, match="^a must be"):
            DecorConfig(a=a)

    @pytest.mark.parametrize("a", [1, 5, 0.7, 1.0, 12.0, np.int64(5), np.float64(0.3)])
    def test_valid_threshold_accepted(self, a):
        assert DecorConfig(a=a).a == a


class TestDeconfound:
    def test_json_document_shape(self):
        cfg = SimConfig(n=16, sigma_eta2=1.0, seed=41)
        x, y, _ = generate(cfg)
        doc = decor_fit(x, y, DecorConfig()).to_json_dict()
        assert doc["schema_version"] == "1"
        assert len(doc["beta"]) == 1
        assert len(doc["fitted_time_domain"]) == 16
        assert len(doc["residuals_time_domain"]) == 16
        assert doc["method"] == "torrent"
        assert set(doc["inliers"]).isdisjoint(doc["excluded_frequencies"])
        assert isinstance(doc["converged"], bool)

    def test_r_squared_centered_definition(self):
        cfg = SimConfig(n=64, sigma_eta2=1.0, seed=42)
        x, y, _ = generate(cfg)
        est = decor_fit(x, y, DecorConfig())
        res = est.residuals_time_domain
        expected = 1.0 - np.sum((res - res.mean()) ** 2) / np.sum((y - y.mean()) ** 2)
        assert est.r_squared == pytest.approx(expected, abs=1e-12)
