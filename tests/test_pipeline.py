"""End-to-end pipeline: estimation, exclusion reports, deconfounded fits."""

import ast
import functools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from deconfound import (
    BasisKind,
    ConfigurationError,
    DecorConfig,
    ExperimentSpec,
    FeasibilityError,
    Method,
    RegressionProblem,
    RobustFit,
    SimConfig,
    bfs,
    build_basis,
    candidate_sets_all_of_size,
    decor_fit,
    eta_condition,
    generate,
    inverse_transform,
    ols,
    resolve_count,
    robust,
    run_experiment,
    torrent,
    transform,
)

ALL_METHODS = [Method.TORRENT, Method.BFS, Method.OLS_BASELINE]


def _refused(call) -> bool:
    """Whether ``call`` raised the enumeration-cap error for C(16, 8); True or False."""
    try:
        call()
    except FeasibilityError as e:
        assert str(e).startswith("C(16,8) = 12870 subsets exceeds the cap of ")
        return True
    return False


def _cell_refused(x, y) -> bool:
    spec = ExperimentSpec(SimConfig(n=16), (16,), (DecorConfig(method=Method.BFS, a=0.5),), 2)
    (row,), records = run_experiment(spec)
    assert row.replicates_failed in (0, 2)
    return row.replicates_failed == 2


# every exhaustive path at n = 16 and a = 8, as whether it refused the C(16, 8) sets
CAP_PATHS = {
    "candidate sets": lambda x, y: _refused(lambda: candidate_sets_all_of_size(16, 8)),
    "BFS fit": lambda x, y: _refused(
        lambda: decor_fit(x, y, DecorConfig(method=Method.BFS, a=0.5))
    ),
    "eta_condition": lambda x, y: _refused(
        lambda: eta_condition(RegressionProblem(x, y), 8, range(1, 9))
    ),
    "BFS cell": _cell_refused,
}


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

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("c", [1e-200, 1e-160, 1e160, 1e200])
    def test_design_scale_gives_the_same_estimate(self, method, c):
        # (c x, c y) has the estimate of (x, y): the same beta, rows and R^2, a path times c
        x, y, _ = generate(SimConfig(n=16, sigma_eta2=1.0, conf_prob=0.25, seed=29))
        base = decor_fit(x, y, DecorConfig(method=method))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = decor_fit(c * x, c * y, DecorConfig(method=method))
        assert np.array_equal(scaled.inliers, base.inliers)
        assert np.allclose(scaled.beta, base.beta, rtol=1e-9, atol=0)
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-9)
        assert scaled.residual_norm == pytest.approx(c * base.residual_norm, rel=1e-9)
        assert np.allclose(scaled.fitted_time_domain, c * base.fitted_time_domain, rtol=1e-9)

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
        assert doc["stop_reason"] == est.stop_reason == "fixed_point"

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

    def test_one_cap_read_at_call_time(self, monkeypatch):
        # every exhaustive path reads robust.SUBSET_ENUMERATION_CAP when called, so one patch
        # makes C(16, 8) = 12870 infeasible for the sets, the fit, eta_condition and a BFS cell
        monkeypatch.setattr(robust, "SUBSET_ENUMERATION_CAP", 100)
        message = "^C\\(16,8\\) = 12870 subsets exceeds the cap of 100; too many to enumerate$"
        rng = np.random.default_rng(28)
        x, y = rng.normal(size=(16, 1)), rng.normal(size=16)
        with pytest.raises(FeasibilityError, match=message):
            candidate_sets_all_of_size(16, 8)
        with pytest.raises(FeasibilityError, match=message):
            decor_fit(x, y, DecorConfig(method=Method.BFS, a=0.5))
        with pytest.raises(FeasibilityError, match=message):
            eta_condition(RegressionProblem(x, y), 8, range(1, 9))
        spec = ExperimentSpec(SimConfig(n=16), (16,), (DecorConfig(method=Method.BFS, a=0.5),), 3)
        (row,), records = run_experiment(spec)
        assert row.replicates_failed == 3 and all(rec.failed for rec in records)

    @pytest.mark.parametrize("cap, refused", [(12869, True), (12870, False)])
    @pytest.mark.parametrize("path", CAP_PATHS)
    def test_cap_is_inclusive(self, monkeypatch, path, cap, refused):
        # C(16, 8) = 12870 sets are enumerated at a cap of 12870 and refused one below it,
        # on every exhaustive path alike
        monkeypatch.setattr(robust, "SUBSET_ENUMERATION_CAP", cap)
        rng = np.random.default_rng(28)
        x, y = rng.normal(size=(16, 1)), rng.normal(size=16)
        assert CAP_PATHS[path](x, y) is refused

    def test_haar_requires_power_of_two(self):
        rng = np.random.default_rng(29)
        with pytest.raises(ConfigurationError):
            decor_fit(rng.normal(size=(24, 1)), rng.normal(size=24),
                      DecorConfig(basis_kind=BasisKind.HAAR))

    def test_more_covariates_than_samples_rejected(self):
        rng = np.random.default_rng(30)
        with pytest.raises(ValueError):
            decor_fit(rng.normal(size=(3, 4)), rng.normal(size=3), DecorConfig())

    @pytest.mark.parametrize("basis_kind", ["cosine", "haar"])
    @pytest.mark.parametrize("n", [4, 512])
    def test_non_finite_input_rejected_before_the_transform(self, basis_kind, n):
        # a transform of inf and -inf would warn "invalid value encountered in matmul"
        # (an error under the test settings) before the finite check could run
        x = np.r_[np.inf, -np.inf, np.arange(n - 2.0)]
        with pytest.raises(ValueError, match="finite"):
            decor_fit(x, np.arange(n, dtype=float), DecorConfig(basis_kind=basis_kind))

    @pytest.mark.parametrize("shape", [(0, 1), (4, 0), (0,)])
    @pytest.mark.parametrize("entry", [decor_fit, RegressionProblem], ids=["decor_fit", "problem"])
    def test_empty_design_rejected(self, entry, shape):
        x = np.ones(shape)
        with pytest.raises(ValueError, match=r"^x must be a nonempty 2-d matrix, got shape \("):
            entry(x, np.ones(len(x)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one entry per row"):
            decor_fit(np.ones(4), np.ones(5))

    @pytest.mark.parametrize("d", [1, 2])
    def test_lists_give_the_fit_of_arrays(self, d):
        x, y, _ = generate(SimConfig(n=16, d=d, seed=45))
        listed = x[:, 0].tolist() if d == 1 else x.tolist()
        est, want = decor_fit(listed, y.tolist()), decor_fit(x, y)
        for name in "beta", "inliers", "fitted_time_domain", "residuals_time_domain":
            assert getattr(est, name).tobytes() == getattr(want, name).tobytes(), name

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

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("basis_kind, d", [(BasisKind.COSINE, 1), (BasisKind.HAAR, 2)])
    def test_estimate_is_the_robust_fit_of_the_transformed_problem(self, basis_kind, d, method):
        n = 16
        x, y, _ = generate(SimConfig(n=n, d=d, basis_kind=basis_kind, seed=43))
        config = DecorConfig(basis_kind=basis_kind, method=method)
        est = decor_fit(x, y, config)
        # x and y transformed in one call, as decor_fit does, so the problem is bit-identical
        xy = transform(np.column_stack([x, y]), build_basis(basis_kind, n))
        problem = RegressionProblem(xy[:, :d], xy[:, d])
        if method is Method.TORRENT:
            fit = torrent(problem, config.a, config.max_iter)
        elif method is Method.BFS:
            fit = bfs(problem, candidate_sets_all_of_size(n, resolve_count(config.a, n)))
        else:
            beta = ols(problem)
            norm = float(np.linalg.norm(problem.y - problem.x @ beta))
            fit = RobustFit(beta, np.arange(1, n + 1), 0, norm, True, "OLS", "one_shot")
        assert isinstance(est, RobustFit)
        for name in "beta", "inliers", "iterations", "residual_norm", "converged", "stop_reason":
            assert np.array_equal(getattr(est, name), getattr(fit, name)), name
        assert est.method is method


class TestTorrentSymmetries:
    """Relations an estimate keeps when the data are reversed in time, their covariate
    columns permuted, one column negated, or the columns mixed by an invertible matrix:
    Torrent's here, BFS's and OLS's in the subclasses below.  Draws are continuous with
    pinned seeds, and each fit's kept rows are checked to be no near-tie, so rounding cannot
    swap a row or pick another set."""

    RTOL = 1e-9
    METHOD, SIZES = Method.TORRENT, (16, 64, 512)  # dense transforms, and pyramids above 256

    @classmethod
    def draws(cls, basis_kind, d):
        for n in cls.SIZES:
            for seed in range(4):
                beta = (3.0, -1.0)[:d]
                x, y, _ = generate(SimConfig(n=n, d=d, beta=beta, basis_kind=basis_kind, seed=seed))
                yield x, y

    def fit(self, x, y, basis_kind):
        est = decor_fit(x, y, DecorConfig(basis_kind=basis_kind, method=self.METHOD))
        n, d = x.shape
        xy = transform(np.column_stack([x, y]), build_basis(basis_kind, n))
        a = resolve_count(DecorConfig().a, n)
        if self.METHOD is Method.TORRENT:
            # the a-th and (a+1)-th smallest residuals of the final fit lie well apart
            v = np.sort(np.abs(xy[:, d] - xy[:, :d] @ est.beta))
            assert v[a] - v[a - 1] > 1e-6 * v[a]
        elif self.METHOD is Method.BFS:
            # no other candidate set's least-squares score lies near the winner's
            sets = candidate_sets_all_of_size(n, a) - 1
            q, ys = np.linalg.qr(xy[sets, :d])[0], xy[sets, d]
            resid = ys - np.einsum("csi,ci->cs", q, np.einsum("csi,cs->ci", q, ys))
            scores = np.sort(np.einsum("cs,cs->c", resid, resid))
            assert scores[1] - scores[0] > 1e-6 * scores[1]
        return est

    @staticmethod
    @functools.cache
    def reversal_rows(basis_kind, n):
        """The p with coefficient k of a reversed series = +-(coefficient p(k) of the series)."""
        phi = build_basis(basis_kind, n).matrix
        return np.argmax(np.abs(phi.T @ phi[::-1]), axis=0)

    def assert_close(self, got, want):
        assert np.max(np.abs(got - want)) <= self.RTOL * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("basis_kind", [BasisKind.COSINE, BasisKind.HAAR])
    def test_time_reversal(self, basis_kind, d):
        # a reversed series has the coefficients of a signed row permutation p, so row k is
        # kept where row p(k) was.  For the cosine basis p is the identity (the DCT-II sign
        # (-1)^k), so the excluded sets are equal.
        for x, y in self.draws(basis_kind, d):
            p = self.reversal_rows(basis_kind, len(y))
            assert basis_kind is BasisKind.HAAR or np.array_equal(p, np.arange(len(y)))
            base = self.fit(x, y, basis_kind)
            rev = self.fit(x[::-1], y[::-1], basis_kind)
            self.assert_close(rev.beta, base.beta)
            self.assert_close(rev.fitted_time_domain, base.fitted_time_domain[::-1])
            assert np.array_equal(np.sort(p[rev.excluded_frequencies - 1]) + 1,
                                  base.excluded_frequencies)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("basis_kind", [BasisKind.COSINE, BasisKind.HAAR])
    def test_column_permutation(self, basis_kind, d):
        order = np.arange(d)[::-1]  # the columns reversed: a swap at d = 2, the identity at 1
        for x, y in self.draws(basis_kind, d):
            base = self.fit(x, y, basis_kind)
            permuted = self.fit(x[:, order], y, basis_kind)
            self.assert_close(permuted.beta, base.beta[order])
            assert np.array_equal(permuted.excluded_frequencies, base.excluded_frequencies)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("basis_kind", [BasisKind.COSINE, BasisKind.HAAR])
    def test_sign_flip_of_one_column(self, basis_kind, d):
        for x, y in self.draws(basis_kind, d):
            base = self.fit(x, y, basis_kind)
            for j in range(d):
                flipped_x = x.copy()
                flipped_x[:, j] *= -1.0
                flipped = self.fit(flipped_x, y, basis_kind)
                expected = base.beta.copy()
                expected[j] *= -1.0
                self.assert_close(flipped.beta, expected)
                assert np.array_equal(flipped.excluded_frequencies, base.excluded_frequencies)

    @pytest.mark.parametrize("basis_kind", [BasisKind.COSINE, BasisKind.HAAR])
    def test_invertible_reparametrisation(self, basis_kind):
        # x -> x A with A invertible and well conditioned gives beta -> A^-1 beta; a robust
        # fit excludes the same rows, and OLS excludes none
        mix = np.array([[2.0, 1.0], [-0.5, 1.5]])
        for x, y in self.draws(basis_kind, 2):
            base = self.fit(x, y, basis_kind)
            mixed = self.fit(x @ mix, y, basis_kind)
            self.assert_close(mixed.beta, np.linalg.solve(mix, base.beta))
            if self.METHOD is not Method.OLS_BASELINE:
                assert np.array_equal(mixed.excluded_frequencies, base.excluded_frequencies)


class TestBfsSymmetries(TestTorrentSymmetries):
    METHOD, SIZES = Method.BFS, (8, 16)  # C(16, 12) = 1820 candidate sets at most


class TestOlsSymmetries(TestTorrentSymmetries):
    METHOD = Method.OLS_BASELINE


class TestDecorConfig:
    @pytest.mark.parametrize("a", [-3, 0, 0.0, -3.0, -0.5, float("nan"), True, False, 2.5, "0.7"])
    def test_bad_threshold_rejected_at_construction(self, a):
        with pytest.raises(ValueError, match="^a must be"):
            DecorConfig(a=a)

    @pytest.mark.parametrize("a", [1, 5, 0.7, 1.0, 12.0, np.int64(5), np.float64(0.3)])
    def test_valid_threshold_accepted(self, a):
        assert DecorConfig(a=a).a == a

    def test_names_become_their_enums(self):
        config = DecorConfig(basis_kind="haar", method="bfs")
        assert config.basis_kind is BasisKind.HAAR and config.method is Method.BFS


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

    @pytest.mark.parametrize(
        "n, method",
        [(16, m) for m in ALL_METHODS] + [(512, Method.TORRENT), (512, Method.OLS_BASELINE)],
    )
    @pytest.mark.parametrize("basis_kind", list(BasisKind))
    @pytest.mark.parametrize("d", [1, 2])
    def test_fitted_series_has_no_excluded_frequency(self, d, basis_kind, n, method):
        # the fitted series is the covariates with their excluded frequencies zeroed, times beta
        x, y, _ = generate(SimConfig(n=n, d=d, basis_kind=basis_kind, seed=46))
        est = decor_fit(x, y, DecorConfig(basis_kind=basis_kind, method=method))
        basis = build_basis(basis_kind, n)
        fitted = transform(est.fitted_time_domain, basis)
        tol = 1e-12 * np.max(np.abs(fitted))
        assert np.max(np.abs(fitted[est.excluded_frequencies - 1]), initial=0.0) <= tol
        kept = transform(x, basis)[est.inliers - 1] @ est.beta
        assert np.max(np.abs(fitted[est.inliers - 1] - kept)) <= tol

    @pytest.mark.parametrize("scale", [1.0, 2.0**600])
    @pytest.mark.parametrize(
        "basis_kind, n, method",
        [
            (kind, n, method)
            for kind, sizes in ((BasisKind.COSINE, (12, 1000)), (BasisKind.HAAR, (16, 512)))
            for n in sizes  # each side of DENSE_MAX_N, and n not a power of two for the DCT
            for method in ALL_METHODS
            if method is not Method.BFS or n <= 16
        ],
    )
    @pytest.mark.parametrize("d", [1, 2])
    def test_time_domain_report_is_bit_identical_to_its_definition(
        self, d, basis_kind, n, method, scale
    ):
        # the report built from the public pieces, one operation at a time: the transformed x
        # copied and zeroed on the excluded rows, inverse_transform, @ beta, y - fitted, and R^2
        # from centred sums (np.add.reduce) of y and the residuals, both scaled by 2^-e first,
        # where e is y's exponent when its largest magnitude is above 2^500
        x, y, _ = generate(SimConfig(n=n, d=d, basis_kind=basis_kind, seed=47))
        x, y = x * scale, y * scale
        est = decor_fit(x, y, DecorConfig(basis_kind=basis_kind, method=method))
        basis = build_basis(basis_kind, n)
        x_clean = transform(np.column_stack([x, y]), basis)[:, :d].copy()
        excluded = np.setdiff1d(np.arange(1, n + 1), est.inliers)
        x_clean[excluded - 1] = 0.0
        fitted = inverse_transform(x_clean, basis) @ est.beta
        residuals = y - fitted
        e = math.frexp(np.abs(y).max())[1] if scale > 1.0 else 0
        sums = []
        for v in np.ldexp(y, -e), np.ldexp(residuals, -e):
            centred = v - v.sum() / n
            sums.append(float(np.add.reduce(centred * centred)))
        sst, ssr = sums
        assert est.fitted_time_domain.tobytes() == fitted.tobytes()
        assert est.residuals_time_domain.tobytes() == residuals.tobytes()
        assert est.excluded_frequencies.dtype == excluded.dtype
        assert est.excluded_frequencies.tobytes() == excluded.tobytes()
        assert est.r_squared.hex() == (1.0 - ssr / sst).hex()

    @pytest.mark.parametrize(
        "n, method",
        [(16, m) for m in ALL_METHODS] + [(1000, Method.TORRENT), (1000, Method.OLS_BASELINE)],
    )
    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_y_gives_no_negative_zero(self, d, n, method):
        # y = 0 fits beta = 0; at d = 1 the lstsq of OLS and BFS gives -0.0 on this draw, and
        # x times a zero beta entrywise is -0.0 wherever x < 0.  A product that starts from
        # +0.0, as BLAS's and matmul's do, writes +0.0 there, and so must the report.
        x, _, _ = generate(SimConfig(n=n, d=d, seed=1))
        est = decor_fit(x, np.zeros(n), DecorConfig(method=method))
        assert not np.signbit(est.fitted_time_domain).any()
        assert not np.signbit(est.residuals_time_domain).any()


def test_no_module_multiplies_arrays_with_the_matmul_operator():
    # every array product in the package goes through np.dot, which hands a one-column
    # design to BLAS, where matmul runs its own slower loop with the same bits
    found = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "deconfound").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno))
    assert not found, "use np.dot, not @, at " + ", ".join(f"{f}:{line}" for f, line in sorted(found))
