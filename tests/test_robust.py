"""Robust regression: least squares, hard thresholding, torrent, exhaustive search."""

import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from deconfound import bench, robust
from deconfound import (
    DecorConfig,
    FeasibilityError,
    Method,
    RegressionProblem,
    SimConfig,
    bfs,
    candidate_sets_all_of_size,
    decor_fit,
    eta_condition,
    generate,
    hard_threshold,
    ols,
    resolve_count,
    torrent,
)


def normal_equations_ols(x, y):
    """Textbook oracle: solve X'X beta = X'y directly."""
    return np.linalg.solve(x.T @ x, x.T @ y)


def first_within_tie_tolerance(errs, y):
    """The documented BFS tie rule: the first error within 16 eps ||y||^2 / n of the minimum."""
    errs = np.asarray(errs)
    tau = 16 * np.finfo(float).eps * float(y @ y) / len(y)
    return int(np.flatnonzero(errs <= errs.min() + tau)[0])


def listed_bfs_oracle(x, y, sets):
    """Independent per-set lstsq loop over 1-based sets, returning (best_set, best_beta)."""
    betas, errs = [], []
    for s in sets:
        rows = np.asarray(s) - 1
        beta, *_ = np.linalg.lstsq(x[rows], y[rows], rcond=None)
        resid = y[rows] - x[rows] @ beta
        betas.append(beta)
        errs.append(float(resid @ resid) / len(rows))
    best = first_within_tie_tolerance(errs, y)
    return np.sort(np.asarray(sets[best])), betas[best]


def subset_errors(x, y, sets):
    """Mean squared residual of the least-squares fit on each row set of ``sets``.

    The batched residual-kernel reference: every set of the (C, s) array of 1-based
    rows is gathered and fitted in one batch, by ``eigh`` of its Gram matrix, or by
    ``lstsq`` where ``_singular`` flags that matrix.
    """
    s, d = sets.shape[1], x.shape[1]
    rows = sets - 1
    xs, ys = x[rows], y[rows]
    lam, vec = np.linalg.eigh(np.swapaxes(xs, 1, 2) @ xs)
    singular = robust._singular(lam[:, 0], lam[:, -1], s, d)
    lam[singular] = 1.0  # refitted by _lstsq below
    proj = np.einsum("cji,cj->ci", vec, np.einsum("csi,cs->ci", xs, ys)) / lam
    coef = np.einsum("cij,cj->ci", vec, proj)
    for k in np.flatnonzero(singular):
        coef[k] = robust._lstsq(xs[k], ys[k])
    resid = ys - np.einsum("csi,ci->cs", xs, coef)
    return np.einsum("cs,cs->c", resid, resid) / s


def residual_kernel_winner(p, sets):
    """The winner of scoring every set in the residual form, as bfs did before its screen."""
    return np.sort(sets[first_within_tie_tolerance(subset_errors(p.x, p.y, sets), p.y)])


def screen_bounds(p, sets):
    """``robust._screen``'s (lower, upper) bounds on the moments ``bfs`` gives it."""
    return robust._screen(robust._moments(p.x, p.y), sets, p.d)


def exhaustive_bfs_oracle(x, y, size):
    """Independent exhaustive loop, returning (best_set, best_beta)."""
    return listed_bfs_oracle(x, y, list(combinations(range(1, len(y) + 1), size)))


def lstsq_argsort_torrent(p, a, max_iter=100):
    """Torrent as first written: lstsq refits and a stable argsort per iteration.

    Returns ``(beta, inliers, iterations, stop_reason)``.
    """
    a_count = resolve_count(a, p.n)
    x, y = p.x, p.y
    active = np.arange(1, p.n + 1)
    r_prev = float(np.linalg.norm(y))
    for iterations in range(1, max_iter + 1):
        rows = active - 1
        beta = np.linalg.lstsq(x[rows], y[rows], rcond=None)[0]
        v = np.abs(y - x @ beta)
        new_active = np.sort(np.argsort(v, kind="stable")[:a_count]) + 1
        r_new = float(np.linalg.norm(v[new_active - 1]))
        fixed_point = np.array_equal(new_active, active)
        active = new_active
        if fixed_point or r_new >= r_prev:
            return beta, active, iterations, "fixed_point" if fixed_point else "no_decrease"
        r_prev = r_new
    return beta, active, max_iter, "max_iter"


def exact_lstsq(x, y):
    """The least-squares fit of ``x`` and ``y``, solved in rationals and rounded once: the
    floats are exact ``Fraction``s, so only the final conversion rounds."""
    d = x.shape[1]
    xs = [[Fraction(v) for v in row] for row in x.tolist()]
    ys = [Fraction(v) for v in y.tolist()]
    # the normal equations [X'X | X'y], eliminated without pivoting: X'X is positive definite
    rows = [[sum(r[i] * r[j] for r in xs) for j in range(d)] for i in range(d)]
    for i in range(d):
        rows[i].append(sum(r[i] * v for r, v in zip(xs, ys)))
    for i in range(d):
        for k in range(i + 1, d):
            f = rows[k][i] / rows[i][i]
            rows[k] = [p - f * q for p, q in zip(rows[k], rows[i])]
    beta = [Fraction(0)] * d
    for i in reversed(range(d)):
        beta[i] = (rows[i][d] - sum(rows[i][j] * beta[j] for j in range(i + 1, d))) / rows[i][i]
    return np.array([float(b) for b in beta])


def eigh_solve(gram, b, s):
    """``robust._solve`` of one system by ``eigh`` of the Gram matrix, at every d."""
    d = len(b)
    lam, vec = np.linalg.eigh(np.reshape(gram, (d, d)))
    singular = robust._singular(lam[0], lam[-1], s, d)
    return lam, singular, vec @ ((vec.T @ b) / np.where(singular, 1.0, lam))


def degenerate_designs(n):
    """All-zero designs with one and two columns, and a two-column one with a zero column."""
    one_zero = np.column_stack([np.linspace(1.0, 2.0, n), np.zeros(n)])
    return [np.zeros((n, 1)), np.zeros((n, 2)), one_zero]


def planted_instance(rng, n=20, d=1, n_out=5, magnitude=10.0):
    x = rng.normal(size=(n, d))
    beta = rng.normal(size=d)
    y = x @ beta
    out_rows = rng.choice(n, size=n_out, replace=False)
    y[out_rows] += magnitude * rng.choice([-1.0, 1.0], size=n_out)
    return RegressionProblem(x, y), beta, np.sort(out_rows) + 1


class TestOls:
    def test_exact_fit(self):
        p = RegressionProblem(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
        assert ols(p, [1, 2])[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_design_pseudo_inverse(self):
        p = RegressionProblem(np.array([[1.0], [0.0]]), np.array([5.0, 7.0]))
        assert ols(p, [2])[0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        p = RegressionProblem(x, y)
        assert np.max(np.abs(ols(p) - normal_equations_ols(x, y))) < 1e-8

    def test_scale_equivariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        c = 3.7
        b1 = ols(RegressionProblem(x, c * y))
        b2 = c * ols(RegressionProblem(x, y))
        assert np.max(np.abs(b1 - b2)) < 1e-10

    def test_empty_subset_rejected(self):
        p = RegressionProblem(np.ones((3, 1)), np.ones(3))
        with pytest.raises(ValueError):
            ols(p, [])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            RegressionProblem(np.array([[np.nan]]), np.array([1.0]))

    def test_problem_arrays_are_read_only(self):
        p = RegressionProblem(np.ones((3, 1)), np.ones(3))
        for array in p.x, p.y:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0


class TestHardThreshold:
    def test_basic(self):
        assert list(hard_threshold([0.5, 3.0, 1.0], 2)) == [1, 3]

    def test_keep_all(self):
        assert list(hard_threshold([5.0, 1.0, 2.0], 3)) == [1, 2, 3]

    def test_tie_broken_by_lower_index(self):
        assert list(hard_threshold([1.0, 1.0, 2.0], 1)) == [1]

    def test_permutation_consistency(self):
        rng = np.random.default_rng(2)
        v = rng.permutation(np.linspace(0.0, 1.0, 17))  # distinct entries
        perm = rng.permutation(17)
        base = set(hard_threshold(v, 6))
        permuted = set(hard_threshold(v[perm], 6))
        mapped = {int(np.where(perm == k - 1)[0][0]) + 1 for k in base}
        assert permuted == mapped

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            hard_threshold([1.0, 2.0], 0)
        with pytest.raises(ValueError, match=r"^a must lie in 1\.\.2, got 3$"):
            hard_threshold([1.0, 2.0], 3)


class TestResolveCount:
    def test_fraction_rounds_up(self):
        assert resolve_count(0.7, 8) == 6
        assert resolve_count(0.7, 10) == 7

    def test_one_is_all(self):
        assert resolve_count(1.0, 9) == 9

    def test_int_passthrough(self):
        assert resolve_count(5, 9) == 5

    def test_fraction_uses_the_printed_decimal(self):
        assert resolve_count(0.55, 100) == 55  # 0.55 * 100 is 55.00000000000001 in floats

    def test_two_decimal_fractions_are_exact(self):
        drifted = [
            (k, n)
            for k in range(1, 100)
            for n in range(1, 1025)
            if resolve_count(k / 100, n) != math.ceil(Fraction(k, 100) * n)
        ]
        assert drifted == []

    def test_bad_values(self):
        with pytest.raises(ValueError):
            resolve_count(0, 9)
        with pytest.raises(ValueError):
            resolve_count(12, 9)

    @pytest.mark.parametrize("a", [True, False, np.True_])
    def test_bool_is_not_a_count(self, a):
        with pytest.raises(ValueError, match="bool"):
            resolve_count(a, 9)
        p = RegressionProblem(np.arange(1.0, 10.0), np.arange(1.0, 10.0))
        with pytest.raises(ValueError, match="bool"):
            torrent(p, a)


class TestTorrent:
    def test_exact_data_full_threshold(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 2))
        beta = np.array([1.5, -0.5])
        p = RegressionProblem(x, x @ beta)
        fit = torrent(p, 12)
        assert np.max(np.abs(fit.beta - beta)) < 1e-10
        assert fit.iterations <= 2
        assert fit.converged

    def test_full_threshold_equals_ols(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        p = RegressionProblem(x, y)
        fit = torrent(p, 1.0)
        assert np.max(np.abs(fit.beta - ols(p))) < 1e-10

    def test_planted_outliers_recovered(self):
        # noiseless planted outliers: the fit must match least squares on the
        # true inlier rows and reject every planted row
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            p, _, out_rows = planted_instance(rng)
            fit = torrent(p, 15)
            reference = ols(p, np.setdiff1d(np.arange(1, 21), out_rows))
            assert np.max(np.abs(fit.beta - reference)) <= 1e-8
            assert set(out_rows).isdisjoint(fit.inliers)

    def test_certified_instances_recover_exactly(self):
        # the spectral-ratio certificate below 1/sqrt(2) guarantees exact
        # recovery at zero noise; check it on every certified draw
        certified = recovered = 0
        for seed in range(40):
            rng = np.random.default_rng(500 + seed)
            p, beta, out_rows = planted_instance(rng, n_out=1, magnitude=6.0)
            inliers = np.setdiff1d(np.arange(1, 21), out_rows)
            if eta_condition(p, 19, inliers) >= 1 / math.sqrt(2):
                continue
            certified += 1
            fit = torrent(p, 19)
            if np.max(np.abs(fit.beta - beta)) <= 1e-8:
                recovered += 1
        assert certified >= 3
        assert recovered == certified

    def test_residual_norm_field_consistent(self):
        rng = np.random.default_rng(5)
        p = RegressionProblem(rng.normal(size=(30, 2)), rng.normal(size=30))
        fit = torrent(p, 0.7)
        rows = fit.inliers - 1
        recomputed = np.linalg.norm(p.y[rows] - p.x[rows] @ fit.beta)
        assert fit.residual_norm == pytest.approx(recomputed, abs=1e-9)
        assert len(fit.inliers) == resolve_count(0.7, 30)

    def test_monotone_thresholded_residuals_and_matching_result(self):
        # reference re-implementation that records the thresholded norms
        def traced_torrent(p, a_count, max_iter=100):
            x, y = p.x, p.y
            active = np.arange(p.n)
            r_prev = np.linalg.norm(y)
            norms = []
            for _ in range(max_iter):
                beta, *_ = np.linalg.lstsq(x[active], y[active], rcond=None)
                v = np.abs(y - x @ beta)
                order = np.argsort(v, kind="stable")[:a_count]
                order.sort()
                r_new = float(np.linalg.norm(v[order]))
                norms.append(r_new)
                same = np.array_equal(order, active)
                active = order
                if same or r_new >= r_prev:
                    break
                r_prev = r_new
            return beta, norms

        for seed in range(8):
            rng = np.random.default_rng(200 + seed)
            p, _, _ = planted_instance(rng, n=24, n_out=6)
            beta_ref, norms = traced_torrent(p, 17)
            fit = torrent(p, 17)
            assert np.max(np.abs(fit.beta - beta_ref)) < 1e-12
            diffs = np.diff(norms)
            assert np.all(diffs <= 1e-12), norms

    def test_warns_when_threshold_below_dimension(self):
        rng = np.random.default_rng(6)
        p = RegressionProblem(rng.normal(size=(10, 3)), rng.normal(size=10))
        with pytest.warns(UserWarning):
            torrent(p, 2)

    def test_iteration_cap_flags_non_convergence(self):
        rng = np.random.default_rng(7)
        p = RegressionProblem(rng.normal(size=(40, 1)), rng.normal(size=40))
        fit = torrent(p, 0.7, max_iter=1)
        assert fit.iterations == 1
        assert not fit.converged
        assert fit.stop_reason == "max_iter"


class TestStopReason:
    """Why a fit stopped: each of Torrent's three stops, reached by a hand-built instance,
    and the one-shot methods."""

    def test_fixed_point(self):
        rng = np.random.default_rng(7)
        p = RegressionProblem(rng.normal(size=(40, 1)), rng.normal(size=40))
        fit = torrent(p, 0.7)
        assert (fit.stop_reason, fit.converged) == ("fixed_point", True)
        assert lstsq_argsort_torrent(p, 0.7)[3] == "fixed_point"
        # one more refit on the returned rows keeps them
        again = torrent(RegressionProblem(p.x[fit.inliers - 1], p.y[fit.inliers - 1]), 1.0)
        assert (again.stop_reason, again.iterations) == ("fixed_point", 1)

    def test_no_decrease_on_a_rank_deficient_refit(self):
        # Refit 1 (every row) leaves exact zero residuals on rows 2-5, where x = y = 0, and
        # keeps them.  Their Gram matrix is 0, so refit 2 goes to lstsq, whose minimum-norm
        # beta is 0.  Row 1 (x = 1, y = 0) then fits exactly too and, as the lower index,
        # displaces row 5: the kept rows moved while their norm stayed 0.
        x = np.array([1.0, 0, 0, 0, 0, 1, 2, 3])
        y = np.array([0.0, 0, 0, 0, 0, 3, 6, 9])
        p = RegressionProblem(x, y)
        fit = torrent(p, 4)
        assert (fit.stop_reason, fit.converged, fit.iterations) == ("no_decrease", True, 2)
        assert fit.inliers.tolist() == [1, 2, 3, 4]
        assert fit.beta.tolist() == [0.0] and fit.residual_norm == 0.0
        assert lstsq_argsort_torrent(p, 4)[2:] == (2, "no_decrease")

    def test_a_stop_at_the_cap_is_not_the_cap(self):
        # a fit that stops on its last allowed refit names that stop; one refit fewer, the cap
        rng = np.random.default_rng(24)
        p = RegressionProblem(rng.normal(size=(60, 1)), rng.normal(size=60))
        k = torrent(p, 0.7).iterations
        assert k >= 3
        fit = torrent(p, 0.7, max_iter=k)
        assert (fit.stop_reason, fit.converged, fit.iterations) == ("fixed_point", True, k)
        fit = torrent(p, 0.7, max_iter=k - 1)
        assert (fit.stop_reason, fit.converged, fit.iterations) == ("max_iter", False, k - 1)

    def test_one_shot_methods(self):
        rng = np.random.default_rng(8)
        p = RegressionProblem(rng.normal(size=(8, 1)), rng.normal(size=8))
        fit = bfs(p, candidate_sets_all_of_size(8, 6))
        assert (fit.stop_reason, fit.converged, fit.iterations) == ("one_shot", True, 0)
        x, y, _ = generate(SimConfig(n=16, seed=8))
        for method in Method.BFS, Method.OLS_BASELINE:
            est = decor_fit(x, y, DecorConfig(method=method))
            assert (est.stop_reason, est.converged, est.iterations) == ("one_shot", True, 0)


class TestTorrentKernel:
    """Normal-equation refits and partition thresholding against lstsq and argsort."""

    @staticmethod
    def _noisy_instance(rng, d):
        n = int(rng.integers(3 * d + 5, 301))
        x = rng.normal(size=(n, d))
        y = x @ rng.normal(size=d) + rng.uniform(0.1, 1.0) * rng.normal(size=n)
        out = rng.random(n) < 0.2
        y[out] += rng.normal(0.0, 10.0, out.sum())
        a = float(rng.uniform(0.5, 1.0)) if rng.random() < 0.5 else int(rng.integers(n // 2, n + 1))
        return RegressionProblem(x, y), a

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_reference_on_noisy_instances(self, d):
        rng = np.random.default_rng(800 + d)
        for _ in range(150):
            p, a = self._noisy_instance(rng, d)
            fit = torrent(p, a)
            beta, inliers, iterations, stop_reason = lstsq_argsort_torrent(p, a)
            assert np.array_equal(fit.inliers, inliers)
            assert (fit.iterations, fit.stop_reason) == (iterations, stop_reason)
            assert fit.converged == (stop_reason != "max_iter")
            assert np.max(np.abs(fit.beta - beta)) <= 1e-12 * np.max(np.abs(beta))

    @pytest.mark.parametrize("eps", [1.0, 0.1])
    @pytest.mark.parametrize("d", [2, 3])
    def test_beta_is_the_exact_fit_of_its_kept_rows(self, d, eps):
        # the normal equations' error grows as about eps_machine cond(X)^2: within 1e-12 of
        # the exact least-squares fit of the kept rows up to cond(X) of about 40 (here 2-37)
        for seed in range(5):
            rng = np.random.default_rng([d, round(10 * eps), seed])
            x1 = rng.normal(size=96)
            x = np.column_stack([x1] + [x1 + eps * rng.normal(size=96) for _ in range(d - 1)])
            y = x @ np.ones(d) + 0.1 * rng.normal(size=96)
            y[rng.choice(96, 16, replace=False)] += 10.0
            fit = torrent(RegressionProblem(x, y), 80)
            rows = fit.inliers - 1
            want = exact_lstsq(x[rows], y[rows])
            assert np.max(np.abs(fit.beta - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_reference_on_noise_free_instances(self, d):
        # exact fits: the kept rows may differ by rounding, the coefficients may not
        for seed in range(30):
            rng = np.random.default_rng(900 + 10 * d + seed)
            p, planted, _ = planted_instance(rng, n=40, d=d, n_out=8)
            fit = torrent(p, 30)
            assert np.max(np.abs(fit.beta - lstsq_argsort_torrent(p, 30)[0])) <= 1e-12
            assert np.max(np.abs(fit.beta - planted)) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_residual_norm_is_the_norm_of_the_kept_residuals(self, d):
        # torrent sums the kept residuals itself; np.linalg.norm gives the same bits
        rng = np.random.default_rng(810 + d)
        for _ in range(50):
            p, a = self._noisy_instance(rng, d)
            fit = torrent(p, a)
            assert p._scale == (0, 0)  # fitted as given, so beta is the refit's own
            kept = (p.y - p.x @ fit.beta)[fit.inliers - 1]
            assert fit.residual_norm == np.linalg.norm(kept)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_system_is_its_stacked_column(self, d):
        # one system in, as a torrent refit gives it, the stacked branch's bytes out; at d = 2
        # a one-system hypot that rounds unlike np.hypot (math.hypot's) changes some of them
        rng = np.random.default_rng(970 + d)
        count = 20_000 if d < 3 else 2_000  # d = 3 runs eigh on both sides
        x = rng.normal(size=(count, 4, d)) * 10.0 ** rng.integers(-75, 76, (count, 1, 1))
        x[1::7, :, -1] = x[1::7, :, 0]  # equal columns: rank deficient for d > 1
        y = rng.normal(size=(count, 4)) * 10.0 ** rng.integers(-75, 76, (count, 1))
        gram = np.einsum("csi,csj->cij", x, x).reshape(count, d * d)
        gram[:30] = 0.0  # all-zero Gram matrices: singular
        b = np.einsum("csi,cs->ci", x, y)
        for j, s in enumerate((1, 12, 2**53)):  # s * eps >= 1 flags every system
            lam, singular, coef = robust._solve(gram.T, b.T, s)
            assert singular[:30].all() and singular.all() == (s == 2**53)
            for k in range(j, count, 3):  # each system at one s
                one = robust._solve(gram[k], b[k], s)
                assert one[0].tobytes() == lam[k].tobytes() and one[1] == singular[k]
                assert one[2].tobytes() == coef[:, k].tobytes()

    def test_hard_threshold_is_the_stable_argsort_on_ties(self):
        rng = np.random.default_rng(950)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            v = np.round(rng.normal(size=n), 1)  # many exact ties
            if rng.random() < 0.3:
                v[rng.random(n) < 0.2] = rng.choice([np.nan, np.inf, -np.inf])
            for a in range(1, n + 1):
                expected = np.sort(np.argsort(v, kind="stable")[:a]) + 1
                assert np.array_equal(hard_threshold(v, a), expected), (v, a)

    def test_duplicated_column_gives_the_lstsq_fit(self):
        rng = np.random.default_rng(960)
        c = rng.normal(size=30)
        y = 2.0 * c + 0.1 * rng.normal(size=30)
        y[:5] += 8.0
        p = RegressionProblem(np.column_stack([c, c]), y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = torrent(p, 24)
        beta, inliers, iterations, _ = lstsq_argsort_torrent(p, 24)
        assert np.array_equal(fit.inliers, inliers) and fit.iterations == iterations
        assert np.max(np.abs(fit.beta - beta)) <= 1e-12
        assert fit.beta[0] == pytest.approx(fit.beta[1], abs=1e-12)  # minimum norm

    def test_zero_covariate_gives_zero_beta(self):
        for x in degenerate_designs(12):
            p = RegressionProblem(x, np.arange(12.0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = torrent(p, 0.75)
            beta, inliers, iterations, _ = lstsq_argsort_torrent(p, 0.75)
            assert np.array_equal(fit.inliers, inliers) and fit.iterations == iterations
            assert np.max(np.abs(fit.beta - beta)) <= 1e-12
            if not x.any():
                assert fit.beta.tolist() == beta.tolist() == [0.0] * x.shape[1]
                assert list(fit.inliers) == list(range(1, 10))
            else:  # the minimum-norm fit leaves the zero column's coefficient at zero
                assert fit.beta[1] == 0.0


class TestGram2:
    """``_solve``'s closed form for d = 2 against eigh, and Torrent's d = 2 refit against eigh's."""

    @staticmethod
    def _designs(rng, s, count):
        """Random, badly scaled and nearly collinear (s, 2) designs, exact rank one included."""
        for k in range(count):
            x = rng.normal(size=(s, 2)) * 10.0 ** rng.integers(-100, 101)
            if k % 3 == 1:  # columns of very different size
                x[:, 1] *= 10.0 ** rng.integers(-9, 10)
            elif k % 3 == 2:  # nearly collinear columns, down to exactly collinear
                x[:, 1] = x[:, 0] * rng.normal() + 10.0 ** -rng.integers(3, 21) * x[:, 1]
            yield x

    def test_eigenvalues_match_eigh(self):
        rng = np.random.default_rng(1100)
        xs = np.array(list(self._designs(rng, 12, 600)))
        gram = np.swapaxes(xs, 1, 2) @ xs
        b = np.einsum("csi,cs->ci", xs, rng.normal(size=(600, 12)))
        lam, singular, coef = robust._solve(gram.reshape(-1, 4).T, b.T, 12)
        ref = np.linalg.eigvalsh(gram)
        assert np.all(np.abs(lam - ref) <= 4 * np.finfo(float).eps * ref[:, -1:])
        assert np.array_equal(singular, robust._singular(lam[:, 0], lam[:, 1], 12, 2))
        # the superset contract: every rank-deficient design is flagged
        deficient = np.array([np.linalg.matrix_rank(x) < 2 for x in xs])
        assert deficient.sum() > 20 and np.all(singular[deficient])
        # G^-1 b agrees with solve where G is well conditioned
        well = ref[:, 0] > 1e-4 * ref[:, 1]
        solved = np.linalg.solve(gram[well], b[well][..., None])[..., 0]
        assert np.allclose(np.transpose(coef)[well], solved, rtol=1e-10, atol=0)

    def test_torrent_keeps_the_rows_of_the_eigh_refit(self, monkeypatch):
        rng = np.random.default_rng(1200)
        cases = [TestTorrentKernel._noisy_instance(rng, 2) for _ in range(300)]
        fits = [torrent(p, a) for p, a in cases]
        monkeypatch.setattr(robust, "_solve", eigh_solve)
        for (p, a), fit in zip(cases, fits):
            ref = torrent(p, a)
            assert np.array_equal(fit.inliers, ref.inliers)
            assert (fit.iterations, fit.converged) == (ref.iterations, ref.converged)
            assert np.max(np.abs(fit.beta - ref.beta)) <= 1e-12 * np.max(np.abs(ref.beta))


class TestDesignScale:
    """Torrent and BFS on (c x, c y) give the fit they give on (x, y)."""

    @staticmethod
    def instances(d):
        for seed in range(4):
            rng = np.random.default_rng(1300 + 10 * d + seed)
            p, _, _ = planted_instance(rng, n=12, d=d, n_out=3, magnitude=6.0)
            yield p.x, p.y + 0.2 * rng.normal(size=12)

    @staticmethod
    def assert_same_fit(x, y, cx, cy):
        """The fits of (cx x, cy y) are those of (x, y), with beta times cy / cx and the
        residual norm times cy, under warnings as errors (no overflow, no underflow)."""
        sets = candidate_sets_all_of_size(12, 9)
        base, scaled = RegressionProblem(x, y), RegressionProblem(cx * x, cy * y)
        for method in (lambda q: torrent(q, 9), lambda q: bfs(q, sets)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                want, got = method(base), method(scaled)
            assert np.array_equal(got.inliers, want.inliers)
            assert got.iterations == want.iterations
            assert np.allclose(got.beta, want.beta * (cy / cx), rtol=1e-9, atol=0)
            assert got.residual_norm == pytest.approx(want.residual_norm * cy, rel=1e-9)

    @pytest.mark.parametrize(
        "c", [1e-200, 1e-160, 1e-150, 1e-100, 1e60, 1e100, 1e150, 1e160, 1e200]
    )
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scaled_design_gives_the_same_fit(self, d, c):
        for x, y in self.instances(d):
            self.assert_same_fit(x, y, c, c)

    @pytest.mark.parametrize("top", [-501, -500, -499, 499, 500, 501])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_each_side_of_the_unscaled_range(self, d, top):
        # x and y scaled by powers of two to a largest magnitude in [2^(top-1), 2^top):
        # inside [2^-500, 2^500] they are fitted as given, outside they are rescaled
        for x, y in self.instances(d):
            cx, cy = (2.0 ** (top - math.frexp(np.abs(a).max())[1]) for a in (x, y))
            exponents = RegressionProblem(cx * x, cy * y)._scale
            assert exponents == (0, 0) if -500 < top <= 500 else 0 not in exponents
            self.assert_same_fit(x, y, cx, cy)


class TestBfs:
    def test_single_full_candidate_equals_ols(self):
        rng = np.random.default_rng(8)
        p = RegressionProblem(rng.normal(size=(9, 2)), rng.normal(size=9))
        fit = bfs(p, [tuple(range(1, 10))])
        assert np.max(np.abs(fit.beta - ols(p))) < 1e-12
        assert fit.iterations == 0

    def test_matches_exhaustive_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            p, _, _ = planted_instance(rng, n=10, n_out=3, magnitude=6.0)
            sets = candidate_sets_all_of_size(10, 7)
            fit = bfs(p, sets)
            oracle_set, oracle_beta = exhaustive_bfs_oracle(p.x, p.y, 7)
            assert list(fit.inliers) == list(oracle_set)
            assert np.max(np.abs(fit.beta - oracle_beta)) < 1e-10

    def test_matches_exhaustive_oracle_2d(self):
        for seed in range(3):
            rng = np.random.default_rng(400 + seed)
            p, _, _ = planted_instance(rng, n=9, d=2, n_out=2, magnitude=8.0)
            sets = candidate_sets_all_of_size(9, 6)
            fit = bfs(p, sets)
            oracle_set, oracle_beta = exhaustive_bfs_oracle(p.x, p.y, 6)
            assert list(fit.inliers) == list(oracle_set)
            assert np.max(np.abs(fit.beta - oracle_beta)) < 1e-10

    def test_winner_attains_minimal_recomputed_error(self):
        rng = np.random.default_rng(9)
        p, _, _ = planted_instance(rng, n=10, n_out=3)
        sets = candidate_sets_all_of_size(10, 7)
        fit = bfs(p, sets)
        errs = []
        for s in sets:
            rows = np.asarray(s) - 1
            b, *_ = np.linalg.lstsq(p.x[rows], p.y[rows], rcond=None)
            r = p.y[rows] - p.x[rows] @ b
            errs.append(float(r @ r) / len(rows))
        rows = fit.inliers - 1
        winner_err = fit.residual_norm**2 / len(rows)
        assert winner_err == pytest.approx(min(errs), rel=1e-9)

    def test_candidate_array_is_not_copied(self):
        # C(22, 15) = 170,544 sets, a 19.5 MiB array: bfs shifts it to 0-based a chunk at a time
        sets = candidate_sets_all_of_size(22, 15)
        rng = np.random.default_rng(14)
        p = RegressionProblem(rng.normal(size=22), rng.normal(size=22))
        tracemalloc.start()
        try:
            fit = bfs(p, sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.inliers.shape == (15,)
        assert peak < sets.nbytes / 2

    def test_empty_candidates_rejected(self):
        p = RegressionProblem(np.ones((3, 1)), np.ones(3))
        with pytest.raises(ValueError):
            bfs(p, [])
        with pytest.raises(ValueError):
            bfs(p, [()])


class TestBfsKernel:
    """The batched kernel against the per-set lstsq loop it replaced."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_per_set_lstsq_on_noisy_instances(self, d):
        for seed in range(6):
            rng = np.random.default_rng(600 + 10 * d + seed)
            p, _, _ = planted_instance(rng, n=11, d=d, n_out=3, magnitude=5.0)
            p = RegressionProblem(p.x, p.y + 0.3 * rng.normal(size=11))
            fit = bfs(p, candidate_sets_all_of_size(11, 7))
            oracle_set, oracle_beta = exhaustive_bfs_oracle(p.x, p.y, 7)
            assert list(fit.inliers) == list(oracle_set)
            assert np.max(np.abs(fit.beta - oracle_beta)) < 1e-10

    @staticmethod
    def _exact_fit_instance(d):
        # rows 2 and 7 are outliers; every 6 of the other 8 rows fit exactly
        rng = np.random.default_rng(700 + d)
        x = rng.normal(size=(10, d))
        y = x @ rng.normal(size=d)
        y[[1, 6]] += 9.0
        return RegressionProblem(x, y)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_first_exact_fit_wins(self, d):
        fit = bfs(self._exact_fit_instance(d), candidate_sets_all_of_size(10, 6))
        assert list(fit.inliers) == [1, 3, 4, 5, 6, 8]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_chunking_does_not_change_the_fit(self, d, monkeypatch):
        p = self._exact_fit_instance(d)
        sets = candidate_sets_all_of_size(10, 6)
        exact = [i for i, s in enumerate(sets.tolist()) if not {2, 7} & set(s)]
        assert len({i // 7 for i in exact}) > 1  # the tie spans several chunks of 7
        whole = bfs(p, sets)
        monkeypatch.setattr(robust, "_MASK_ENTRIES", 7 * 10)  # chunks of 7 sets at n = 10
        chunked = bfs(p, sets)
        assert list(chunked.inliers) == list(whole.inliers) == [1, 3, 4, 5, 6, 8]
        assert np.array_equal(chunked.beta, whole.beta)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_first_set_wins_when_every_set_fits_exactly(self, d):
        # no outliers: all C(10, 6) sets tie, and the sums' rounding can exceed the tie
        # tolerance (at d = 3 on about 1% of these designs), so only a rescored tie is safe
        sets = candidate_sets_all_of_size(10, 6)
        for seed in range(200):
            rng = np.random.default_rng(700 + seed)
            x = rng.normal(size=(10, d))
            beta = rng.normal(size=d)
            fit = bfs(RegressionProblem(x, x @ beta), sets)
            assert list(fit.inliers) == [1, 2, 3, 4, 5, 6], seed
            assert np.max(np.abs(fit.beta - beta)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_all_exact_search_fits_one_set(self, d, monkeypatch):
        # the first set scores within the tie tolerance of 0, so it wins before any other is fitted
        calls, real = [], robust._lstsq
        monkeypatch.setattr(robust, "_lstsq", lambda x, y: calls.append(1) or real(x, y))
        sets = candidate_sets_all_of_size(10, 6)
        for seed in range(20):
            x = np.random.default_rng(700 + seed).normal(size=(10, d))
            calls.clear()
            fit = bfs(RegressionProblem(x, x @ np.ones(d)), sets)
            assert list(fit.inliers) == [1, 2, 3, 4, 5, 6]
            assert len(calls) == 1, seed

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_screen_bounds_the_residual_score(self, d):
        rng = np.random.default_rng(740 + d)
        for trial in range(40):
            n, s = (10, 6) if trial % 2 else (14, 10)
            x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
            if d > 1 and trial % 4 < 2:  # nearly collinear columns
                x[:, -1] = x[:, 0] + 10.0 ** -rng.integers(3, 7) * rng.normal(size=n)
            y = x @ rng.normal(size=d) + (trial % 3) * 0.1 * rng.normal(size=n)
            p = RegressionProblem(x, y)
            sets = candidate_sets_all_of_size(n, s)
            lo, hi = screen_bounds(p, sets)
            err = subset_errors(p.x, p.y, sets)
            assert np.all((lo <= err) & (err <= hi)), trial
            if n == 10:  # and each set's own lstsq score, the one the tie rule uses
                err = [np.sum((p.y[r] - p.x[r] @ robust._lstsq(p.x[r], p.y[r])) ** 2) / s
                       for r in sets - 1]
                assert np.all((lo <= err) & (err <= hi)), trial

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_winner_matches_the_residual_kernel_on_planted_instances(self, d):
        for seed in range(40):
            rng = np.random.default_rng(760 + 10 * d + seed)
            p, _, _ = planted_instance(rng, n=12, d=d, n_out=int(rng.integers(0, 4)))
            if d > 1 and seed % 2:  # nearly collinear columns
                x = p.x.copy()
                x[:, -1] = x[:, 0] + 1e-6 * rng.normal(size=12)
                p = RegressionProblem(x, x @ rng.normal(size=d))
            sets = candidate_sets_all_of_size(12, 9)
            assert list(bfs(p, sets).inliers) == list(residual_kernel_winner(p, sets)), seed

    def test_zero_column_gives_minimum_norm_fit(self):
        rng = np.random.default_rng(720)
        x = rng.normal(size=(8, 2))
        x[:5, 1] = 0.0  # every set inside rows 1..5 has a zero column
        y = rng.normal(size=8)
        single = bfs(RegressionProblem(x, y), [(1, 2, 3, 4)])
        assert np.array_equal(single.beta, ols(RegressionProblem(x, y), [1, 2, 3, 4]))
        assert single.beta[1] == 0.0
        # the same rank-deficient sets fit exactly and must win in a full search
        y[:5] = 2.0 * x[:5, 0]
        p = RegressionProblem(x, y)
        sets = candidate_sets_all_of_size(8, 4)
        fit = bfs(p, sets)
        oracle_set, oracle_beta = listed_bfs_oracle(x, y, sets)
        assert list(fit.inliers) == list(oracle_set) == [1, 2, 3, 4]
        assert np.max(np.abs(fit.beta - oracle_beta)) < 1e-10
        assert np.max(np.abs(fit.beta - [2.0, 0.0])) < 1e-12
        # a rank-deficient set has infinite screen bounds: it is rescored, not picked on them
        y[:5] = rng.normal(size=5)
        y[5:] = x[5:] @ [1.0, 3.0]
        sets = candidate_sets_all_of_size(8, 3)
        fit = bfs(RegressionProblem(x, y), sets)
        assert list(fit.inliers) == list(listed_bfs_oracle(x, y, sets)[0]) == [6, 7, 8]

    def test_zero_covariate_gives_zero_beta(self):
        sets = candidate_sets_all_of_size(8, 5)
        for x in degenerate_designs(8):
            y = np.arange(8.0) ** 2
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = bfs(RegressionProblem(x, y), sets)
            oracle_set, oracle_beta = listed_bfs_oracle(x, y, sets)
            assert list(fit.inliers) == list(oracle_set)
            assert np.max(np.abs(fit.beta - oracle_beta)) <= 1e-12
            if not x.any():
                assert fit.beta.tolist() == [0.0] * x.shape[1]
            else:  # the minimum-norm fit leaves the zero column's coefficient at zero
                assert fit.beta[1] == 0.0

    def test_validation_errors(self):
        p = RegressionProblem(np.ones((3, 1)), np.ones(3))
        for bad in ([(1, 4)], np.array([[0, 1]]), [(1, 2), (3, 4)]):
            with pytest.raises(ValueError, match="lie in 1..3"):
                bfs(p, bad)
        with pytest.raises(ValueError, match="candidate_sets must be non-empty"):
            bfs(p, np.empty((0, 2), dtype=int))
        with pytest.raises(ValueError, match="candidate sets must be non-empty"):
            bfs(p, [(), ()])
        with pytest.raises(ValueError, match="must form a rectangular array, got a ragged one"):
            bfs(p, [(1,), (2, 3)])

    def test_repeated_index_rejected(self):
        p = RegressionProblem(np.arange(1.0, 7.0), np.arange(1.0, 7.0))
        for bad in (
            [(1, 1, 2), (3, 4, 5)],
            np.array([[1, 2, 3], [4, 6, 4]]),  # out of order, repeat not adjacent
            [(1, 2, 6), (5, 3, 5)],
        ):
            with pytest.raises(ValueError, match="repeat an index"):
                bfs(p, bad)
        with pytest.raises(ValueError, match="ragged"):
            bfs(p, [(1, 2), (5, 3, 5)])
        with pytest.raises(ValueError, match="distinct"):
            ols(p, [1, 1, 2])
        # unordered sets without repeats are fitted as given
        assert list(bfs(p, np.array([[3, 2, 1], [6, 4, 5]])).inliers) == [1, 2, 3]
        assert np.max(np.abs(ols(p, [3, 1, 2]) - 1.0)) < 1e-12


def bfs_kernel_instances():
    """``(problem, n, size)`` for the instances of ``TestBfsKernel``: noisy and planted ones,
    exact fits, all-exact fits, nearly collinear columns and rank-deficient sets, d = 1-3."""
    for d in (1, 2, 3):
        for seed in range(6):
            rng = np.random.default_rng(600 + 10 * d + seed)
            p, _, _ = planted_instance(rng, n=11, d=d, n_out=3, magnitude=5.0)
            yield RegressionProblem(p.x, p.y + 0.3 * rng.normal(size=11)), 11, 7
        yield TestBfsKernel._exact_fit_instance(d), 10, 6
        for seed in range(20):
            x = np.random.default_rng(700 + seed).normal(size=(10, d))
            yield RegressionProblem(x, x @ np.ones(d)), 10, 6
        for seed in range(10):
            rng = np.random.default_rng(760 + 10 * d + seed)
            p, _, _ = planted_instance(rng, n=12, d=d, n_out=int(rng.integers(0, 4)))
            if d > 1 and seed % 2:
                x = p.x.copy()
                x[:, -1] = x[:, 0] + 1e-6 * rng.normal(size=12)
                p = RegressionProblem(x, x @ rng.normal(size=d))
            yield p, 12, 9
    for x in degenerate_designs(8):
        yield RegressionProblem(x, np.arange(8.0) ** 2), 8, 5
    x = np.random.default_rng(720).normal(size=(8, 2))
    x[:5, 1] = 0.0
    y = np.r_[2.0 * x[:5, 0], np.random.default_rng(721).normal(size=3)]
    yield RegressionProblem(x, y), 8, 4
    yield RegressionProblem(x, np.r_[y[:5], x[5:] @ [1.0, 3.0]]), 8, 3


def table1_and_haar_bfs_calls():
    """The (problem, candidate sets) of every ``bfs`` call that one cycle of the benchmark's
    ``table1`` and ``haar_d2`` workloads makes at seed 1: 360 + 200 calls, each through
    ``decor_fit`` and so on the memo's own array."""
    calls, real = [], robust.bfs

    def recorded(problem, candidate_sets):
        calls.append((problem, candidate_sets))
        return real(problem, candidate_sets)

    table1 = (
        DecorConfig(method=Method.OLS_BASELINE),
        DecorConfig(method=Method.TORRENT, a=0.7),
        DecorConfig(method=Method.BFS, a=0.7),
    )
    haar = tuple(DecorConfig(basis_kind="haar", method=c.method, a=c.a) for c in table1)
    robust.bfs = recorded
    try:
        for seed_base in range(1000, 1004):
            specs = [
                bench.ExperimentSpec(
                    sim=SimConfig(n=8, d=1, beta=3.0, sigma_eta2=1.0, conf_prob=0.25),
                    n_grid=(8, 12, 16),
                    methods=table1,
                    replicates=30,
                    seed_base=seed_base,
                )
            ]
            specs += [
                bench.ExperimentSpec(
                    sim=SimConfig(n=n, d=2, basis_kind="haar", sigma_eta2=1.0),
                    n_grid=(n,),
                    methods=haar,
                    replicates=replicates,
                    seed_base=seed_base,
                )
                for n, replicates in ((8, 40), (16, 10))
            ]
            for spec in specs:
                bench.run_experiment(spec)
    finally:
        robust.bfs = real
    return calls


class TestBfsMemo:
    """``bfs`` on the memo's own array (checked once, screened with the memoised mask)
    against an equal writable copy (checked, masked a chunk at a time) and the residual kernel."""

    @staticmethod
    def assert_same_fit(p, sets):
        copy = np.array(sets)
        assert copy.flags.writeable and copy is not sets
        memo, copied = bfs(p, sets), bfs(p, copy)
        assert np.array_equal(memo.inliers, copied.inliers)
        assert memo.beta.tobytes() == copied.beta.tobytes()
        assert list(memo.inliers) == list(residual_kernel_winner(p, copy))

    def test_bfs_kernel_instances(self):
        for p, n, size in bfs_kernel_instances():
            self.assert_same_fit(p, candidate_sets_all_of_size(n, size))

    def test_bfs_returns_the_ols_fit_of_its_winner(self):
        for p, n, size in bfs_kernel_instances():
            fit = bfs(p, candidate_sets_all_of_size(n, size))
            rows = fit.inliers - 1
            assert fit.beta.tobytes() == ols(p, fit.inliers).tobytes()
            assert fit.residual_norm == np.linalg.norm(p.y[rows] - p.x[rows] @ fit.beta)

    def test_table1_and_haar_d2_cycle(self, monkeypatch):
        calls = table1_and_haar_bfs_calls()
        assert len(calls) == 560
        for p, sets in calls:
            n, size = p.n, sets.shape[1]
            assert sets is candidate_sets_all_of_size(n, size) is robust._enumeration(n, size)[0]
            self.assert_same_fit(p, sets)
            with monkeypatch.context() as m:
                m.setattr(robust, "_row_mask", None)  # screened with the memoised mask: none built
                bfs(p, sets)

    def test_memoised_mask_is_the_row_mask_of_its_sets(self):
        for n, size in ((10, 6), (11, 7), (12, 9), (8, 3), (16, 12), (16, 4)):
            sets, mask = robust._enumeration(n, size)
            assert sets is candidate_sets_all_of_size(n, size)
            assert sets.shape == (math.comb(n, size), size)
            assert np.array_equal(mask, robust._row_mask(sets, n))

    def test_other_arrays_of_the_memo_shape_take_their_own_mask(self):
        # every 6 of rows {1, 3, 4, 5, 6, 8, 9, 10} fit exactly, so the order decides
        p = TestBfsKernel._exact_fit_instance(2)
        sets = candidate_sets_all_of_size(10, 6)
        rng = np.random.default_rng(5)
        for other in (sets[::-1], sets[rng.permutation(len(sets))], np.roll(sets, 7, axis=0)):
            fit = bfs(p, other)
            assert list(fit.inliers) == list(residual_kernel_winner(p, other))
            assert list(fit.inliers) == list(listed_bfs_oracle(p.x, p.y, other)[0])
        assert list(bfs(p, sets[::-1]).inliers) == [4, 5, 6, 8, 9, 10]

    def test_memo_array_of_another_n_takes_its_own_mask(self):
        rng = np.random.default_rng(6)
        p, _, _ = planted_instance(rng, n=12, d=2, n_out=3)
        sets = candidate_sets_all_of_size(10, 6)  # rows 1..10 of a 12-row problem
        self.assert_same_fit(p, sets)
        assert list(bfs(p, sets).inliers) == list(listed_bfs_oracle(p.x, p.y, sets)[0])

    def test_threads_share_the_memo(self):
        # 4 threads, more than the 2 cores of a CI runner; one clears the memo each round, so
        # threads race on misses, and a thread handed an array the memo did not keep must
        # take the checked path to the same fit
        cases = []
        for seed in (1, 2):
            for n in (8, 12, 16):
                x, y, _ = generate(SimConfig(n=n, beta=3.0, sigma_eta2=1.0, seed=seed))
                cases.append((x, y, DecorConfig(method=Method.BFS, a=0.7)))
            for n in (8, 16):
                sim = SimConfig(n=n, d=2, basis_kind="haar", sigma_eta2=1.0, seed=seed)
                x, y, _ = generate(sim)
                cases.append((x, y, DecorConfig(basis_kind="haar", method=Method.BFS, a=0.7)))
        sizes = [(len(y), resolve_count(0.7, len(y))) for _, y, _ in cases]

        def run(clears):
            fits, sets = [], []
            for _ in range(6):
                if clears:
                    robust._enumeration.cache_clear()
                for (x, y, config), (n, size) in zip(cases, sizes):
                    fit = decor_fit(x, y, config)
                    fits.append((fit.inliers.tobytes(), fit.beta.tobytes()))
                    sets.append(candidate_sets_all_of_size(n, size).tobytes())
            return fits, sets

        def started_together(clears):
            barrier.wait(timeout=10)
            return run(clears)

        serial = run(False)
        barrier, switch = threading.Barrier(4), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(started_together, k == 0) for k in range(4)]
                assert [f.result(timeout=120) for f in futures] == [serial] * 4
        finally:
            sys.setswitchinterval(switch)

    def test_memo_array_of_another_n_builds_no_memo_entry(self):
        robust._enumeration.cache_clear()
        sets = candidate_sets_all_of_size(10, 6)  # C(10, 6) = 210 rows, not C(12, 6) = 924
        p, _, _ = planted_instance(np.random.default_rng(6), n=12, d=2, n_out=3)
        before = robust._enumeration.cache_info()
        bfs(p, sets)
        bfs(p, np.array(sets))
        after = robust._enumeration.cache_info()
        assert after.currsize == before.currsize == 1 and after.misses == before.misses

    def test_bad_arrays_of_the_memo_shape_rejected(self):
        p = RegressionProblem(np.arange(1.0, 7.0), np.arange(1.0, 7.0))
        sets = candidate_sets_all_of_size(6, 3)
        for entry, message in ((0, "lie in 1..6"), (7, "lie in 1..6"), (2, "repeat an index")):
            bad = np.array(sets)
            bad[0, 0] = entry  # the first set is (1, 2, 3)
            with pytest.raises(ValueError, match=message):
                bfs(p, bad)
        with pytest.raises(ValueError, match="lie in 1..5"):
            bfs(RegressionProblem(np.ones(5), np.ones(5)), sets)

    def test_a_mask_too_large_to_memoise_is_built_per_chunk(self, monkeypatch):
        # C(200, 2) sets take 0.3 MiB but their mask 30 MiB, so neither is memoised
        before = robust._enumeration.cache_info()
        sets = candidate_sets_all_of_size(200, 2)
        assert not sets.flags.writeable and sets is not candidate_sets_all_of_size(200, 2)
        rng = np.random.default_rng(7)
        p = RegressionProblem(rng.normal(size=200), rng.normal(size=200))
        masked, row_mask = [], robust._row_mask  # the number of sets in each mask bfs builds

        def counted_row_mask(chunk, n):
            masked.append(len(chunk))
            return row_mask(chunk, n)

        monkeypatch.setattr(robust, "_row_mask", counted_row_mask)
        bfs(p, sets)
        assert sum(masked) == len(sets) and max(masked) == robust._MASK_ENTRIES // 200
        assert robust._enumeration.cache_info() == before  # neither built nor looked up
        monkeypatch.undo()
        self.assert_same_fit(p, sets)


class TestMaskBound:
    """Every 0/1 row mask that ``bfs`` or ``eta_condition`` builds holds at most
    ``_MASK_ENTRIES`` entries, or is a single row when n exceeds the bound."""

    @staticmethod
    def counted_masks(monkeypatch):
        shapes, row_mask = [], robust._row_mask  # the (sets, n) shape of each mask built

        def counted_row_mask(sets, n):
            mask = row_mask(sets, n)
            shapes.append(mask.shape)
            return mask

        monkeypatch.setattr(robust, "_row_mask", counted_row_mask)
        return shapes

    @staticmethod
    def assert_bounded(shapes, total):
        assert sum(rows for rows, _ in shapes) == total  # every set masked once
        assert all(rows * n <= robust._MASK_ENTRIES or rows == 1 for rows, n in shapes)
        assert max(rows for rows, _ in shapes) == max(1, robust._MASK_ENTRIES // shapes[0][1])

    def test_bfs_on_a_copy_of_an_enumeration(self, monkeypatch):
        sets = np.array(candidate_sets_all_of_size(400, 2))
        rng = np.random.default_rng(21)
        p = RegressionProblem(rng.normal(size=400), rng.normal(size=400))
        shapes = self.counted_masks(monkeypatch)
        fit = bfs(p, sets)
        self.assert_bounded(shapes, len(sets))
        monkeypatch.undo()
        assert list(fit.inliers) == list(residual_kernel_winner(p, sets))

    def test_eta_condition(self, monkeypatch):
        rng = np.random.default_rng(22)
        p = RegressionProblem(rng.normal(size=200), rng.normal(size=200))
        inliers = np.arange(1, 181)
        want = eta_condition(p, 2, inliers)
        shapes = self.counted_masks(monkeypatch)
        assert eta_condition(p, 2, inliers) == want
        self.assert_bounded(shapes, math.comb(200, 2))

    def test_one_set_per_mask_when_a_row_exceeds_the_bound(self, monkeypatch):
        rng = np.random.default_rng(23)
        p = RegressionProblem(rng.normal(size=(40, 2)), rng.normal(size=40))
        sets, inliers = np.array(candidate_sets_all_of_size(40, 2)), np.arange(1, 31)
        want = bfs(p, sets), eta_condition(p, 2, inliers)
        monkeypatch.setattr(robust, "_MASK_ENTRIES", 39)
        shapes = self.counted_masks(monkeypatch)
        got = bfs(p, sets), eta_condition(p, 2, inliers)
        assert shapes == [(1, 40)] * (2 * len(sets))
        assert np.array_equal(got[0].inliers, want[0].inliers)
        assert got[0].beta.tobytes() == want[0].beta.tobytes()
        assert got[1] == pytest.approx(want[1], rel=1e-12)


class TestCandidateSets:
    def test_memoised_arrays_cannot_be_made_writable(self):
        sets = candidate_sets_all_of_size(6, 3)
        memo_sets, mask = robust._enumeration(6, 3)
        assert memo_sets is sets
        for array in (sets, mask, sets.base, mask.base):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.setflags(write=True)
        assert candidate_sets_all_of_size(6, 3).tolist() == [
            list(c) for c in combinations(range(1, 7), 3)
        ]

    def test_memo_keeps_sixteen_entries_least_recently_used_first(self):
        robust._enumeration.cache_clear()
        kept, evicted = candidate_sets_all_of_size(5, 2), candidate_sets_all_of_size(6, 2)
        used_by_bfs = candidate_sets_all_of_size(7, 2)
        for n in range(8, 23):
            candidate_sets_all_of_size(n, 2)
            if n == 12:
                assert candidate_sets_all_of_size(5, 2) is kept  # used again: kept longer
            if n == 14:  # so is a bfs lookup
                bfs(RegressionProblem(np.arange(7.0), np.ones(7)), used_by_bfs)
        info = robust._enumeration.cache_info()
        assert info.currsize == info.maxsize == 16 and info.misses == 18  # (6, 2), (8, 2) evicted
        assert candidate_sets_all_of_size(5, 2) is kept
        assert candidate_sets_all_of_size(7, 2) is used_by_bfs
        assert robust._enumeration.cache_info().misses == 18
        assert candidate_sets_all_of_size(6, 2) is not evicted

    def test_readonly_lexicographic_array(self):
        for n, size in ((7, 3), (18, 9), (5, 5)):  # (18, 9) is too large to memoise
            sets = candidate_sets_all_of_size(n, size)
            assert not sets.flags.writeable
            assert sets.tolist() == [list(c) for c in combinations(range(1, n + 1), size)]
        assert candidate_sets_all_of_size(7, 3) is candidate_sets_all_of_size(7, 3)
        assert candidate_sets_all_of_size(18, 9) is not candidate_sets_all_of_size(18, 9)

    def test_size_above_n_rejected(self):
        with pytest.raises(ValueError, match=r"^size must lie in 1\.\.3, got 5$"):
            candidate_sets_all_of_size(3, 5)

    def test_three_choose_two(self):
        assert candidate_sets_all_of_size(3, 2).tolist() == [[1, 2], [1, 3], [2, 3]]

    def test_sixteen_choose_eleven_count(self):
        assert len(candidate_sets_all_of_size(16, 11)) == 4368

    def test_cap_exceeded(self):
        with pytest.raises(FeasibilityError, match="155117520"):
            candidate_sets_all_of_size(30, 15)


def eta_condition_loop_reference(p, a, inliers):
    """The per-subset loop that eta_condition replaced, kept as the reference."""
    n, d = p.n, p.d
    a_count = resolve_count(a, n)
    inl = np.unique(np.asarray(inliers, dtype=int).ravel())
    x = p.x
    worst = 0.0
    for subset in combinations(range(1, n + 1), a_count):
        s = np.asarray(subset, dtype=int)
        xs = x[s - 1]
        eigs = np.linalg.eigvalsh(xs.T @ xs)
        lam_min, lam_max = float(eigs[0]), float(eigs[-1])
        if lam_max <= 0.0 or lam_min <= lam_max * max(a_count, d) * np.finfo(float).eps:
            return float("inf")
        v = np.setxor1d(s, inl)
        if v.size == 0:
            ratio = 0.0
        else:
            ratio = float(np.linalg.norm(x[v - 1], 2) / math.sqrt(lam_min))
        worst = max(worst, ratio)
    return worst


class TestEtaCondition:
    @pytest.mark.parametrize("chunk", [None, 5, 7])
    def test_matches_loop_reference(self, chunk, monkeypatch):
        if chunk:
            monkeypatch.setattr(robust, "_MASK_ENTRIES", chunk * 9)  # chunks of that many sets
        for seed in range(12):
            rng = np.random.default_rng(800 + seed)
            n, d = 9, 1 + seed % 3
            p = RegressionProblem(rng.normal(size=(n, d)), rng.normal(size=n))
            a = 4 + seed % 4
            inliers = np.sort(rng.choice(np.arange(1, n + 1), size=6, replace=False))
            got, ref = eta_condition(p, a, inliers), eta_condition_loop_reference(p, a, inliers)
            assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_same_value_at_any_design_scale(self, d):
        # summed unscaled, the Gram matrices of c x underflowed to inf or overflowed to 0.0
        p, _, outliers = planted_instance(np.random.default_rng(0), n=10, d=d, n_out=2)
        inliers = np.setdiff1d(np.arange(1, 11), outliers)
        want = eta_condition(p, 8, inliers)
        assert 0.0 < want < float("inf")
        for c in (1e-200, 1e-170, 1e160, 1e200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = eta_condition(RegressionProblem(c * p.x, c * p.y), 8, inliers)
            assert got == pytest.approx(want, rel=1e-12), c

    def test_subsets_are_streamed_not_stored(self, monkeypatch):
        # peak memory stays far below one (C(n, a), a) array of the subsets
        monkeypatch.setattr(robust, "_MASK_ENTRIES", 64 * 18)  # chunks of 64 sets
        rng = np.random.default_rng(13)
        n, a = 18, 9
        p = RegressionProblem(rng.normal(size=(n, 2)), rng.normal(size=n))
        tracemalloc.start()
        try:
            value = eta_condition(p, a, np.arange(1, 13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < value < float("inf")
        assert peak < math.comb(n, a) * a * np.dtype(np.intp).itemsize / 10

    def test_infinite_cases_match_loop_reference(self):
        col = np.arange(1.0, 9.0)
        partly_zero = np.column_stack([col, np.r_[np.zeros(4), col[4:]]])
        for x in (np.column_stack([col, 2.0 * col]), partly_zero, np.zeros((8, 1))):
            p = RegressionProblem(x, np.ones(8))
            for a in (3, 4):
                assert eta_condition(p, a, [1, 2, 3]) == float("inf")
                assert eta_condition_loop_reference(p, a, [1, 2, 3]) == float("inf")

    @pytest.mark.parametrize("d", [2, 3])
    def test_ill_conditioned_designs_match_loop_reference(self, d):
        # nearly collinear columns: subset Gram matrices with condition numbers near 1e6,
        # where _solve's d = 2 closed form and eigh round unlike eigvalsh
        n, a = 9, 6
        for seed in range(6):
            rng = np.random.default_rng(900 + seed)
            x = rng.normal(size=(n, 1)) + 3e-3 * rng.normal(size=(n, d))
            p = RegressionProblem(x, rng.normal(size=n))
            cond = max(np.linalg.cond(x[list(s)].T @ x[list(s)]) for s in combinations(range(n), a))
            assert 1e5 < cond < 1e8
            inliers = np.sort(rng.choice(np.arange(1, n + 1), size=7, replace=False))
            got, ref = eta_condition(p, a, inliers), eta_condition_loop_reference(p, a, inliers)
            assert got == pytest.approx(ref, rel=4 * np.finfo(float).eps * cond)

    @pytest.mark.parametrize("d", [2, 3])
    def test_past_the_singular_threshold_is_infinite(self, d):
        # of full numerical rank, but with subset Gram ratios lambda_min / lambda_max near
        # 1e-18, below _singular's max(a, d) * eps
        rng = np.random.default_rng(21)
        x = rng.normal(size=(8, 1)) + 1e-9 * rng.normal(size=(8, d))
        assert np.linalg.matrix_rank(x) == d
        p = RegressionProblem(x, np.ones(8))
        assert eta_condition(p, 6, [1, 2, 3]) == float("inf")
        assert eta_condition_loop_reference(p, 6, [1, 2, 3]) == float("inf")

    def test_no_outliers_full_set_is_zero(self):
        rng = np.random.default_rng(10)
        n = 6
        p = RegressionProblem(rng.normal(size=(n, 1)), rng.normal(size=n))
        assert eta_condition(p, n, np.arange(1, n + 1)) == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        n, a = 8, 6
        x = rng.normal(size=(n, 1))
        p = RegressionProblem(x, rng.normal(size=n))
        outliers = np.array([2, 5])
        inliers = np.setdiff1d(np.arange(1, n + 1), outliers)

        worst = 0.0
        for s in combinations(range(1, n + 1), a):
            xs = x[np.asarray(s) - 1, 0]
            lam = float(xs @ xs)
            v = sorted(set(s).symmetric_difference(inliers))
            num = np.linalg.norm(x[np.asarray(v, dtype=int) - 1], 2) if v else 0.0
            worst = max(worst, num / math.sqrt(lam))
        assert eta_condition(p, a, inliers) == pytest.approx(worst, abs=1e-10)

    def test_singular_subset_gives_infinity(self):
        col = np.arange(1.0, 7.0)
        x = np.column_stack([col, 2.0 * col])  # rank one in every subset
        p = RegressionProblem(x, np.ones(6))
        assert eta_condition(p, 4, np.arange(1, 7)) == float("inf")

    def test_cap_exceeded(self):
        rng = np.random.default_rng(12)
        p = RegressionProblem(rng.normal(size=(40, 1)), rng.normal(size=40))
        with pytest.raises(FeasibilityError):
            eta_condition(p, 20, np.arange(1, 41))
