"""End-to-end estimation pipeline: transform, robust regression, deconfounded fits.

The pipeline maps the observed series into the basis domain, runs the
configured robust regression there, and interprets the rows rejected by the
robust step as the estimated confounded frequencies.  Zeroing those rows of
the transformed covariates and mapping back to the time domain yields the
deconfounded covariate path, from which fitted values and residuals are
derived.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from . import robust
from .basis import BasisKind, build_basis, inverse_transform, transform

SCHEMA_VERSION = "1"


class Method(str, enum.Enum):
    """Regression backends for the pipeline."""

    TORRENT = "torrent"
    BFS = "bfs"
    OLS_BASELINE = "olsbaseline"


@dataclass(frozen=True)
class DecorConfig:
    """Pipeline configuration.

    ``a`` is the robust threshold: the number of frequencies treated as
    unconfounded, given as an absolute count or as a fraction of n (converted
    as ``ceil(a * n)``); a value <= 0, NaN or a bool is rejected here.  For
    the exhaustive method it is the candidate-set size.  Defaults follow the
    benchmark setup: cosine basis, iterative hard thresholding, a = 0.7.
    """

    basis_kind: BasisKind = BasisKind.COSINE
    method: Method = Method.TORRENT
    a: float | int = 0.7
    max_iter: int = 100
    bfs_cap: int = robust.SUBSET_ENUMERATION_CAP

    def __post_init__(self):
        object.__setattr__(self, "basis_kind", BasisKind(self.basis_kind))
        object.__setattr__(self, "method", Method(self.method))
        a = self.a
        if (
            isinstance(a, bool)
            or not isinstance(a, numbers.Real)
            or not a > 0
            or (isinstance(a, float) and a > 1 and not a.is_integer())
        ):
            raise ValueError(f"a must be a fraction in (0,1] or a positive count, got {a!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.bfs_cap < 1:
            raise ValueError("bfs_cap must be >= 1")


@dataclass(frozen=True)
class DecorEstimate:
    """Estimate plus diagnostics.

    ``excluded_frequencies`` (the complement of ``inliers``) are the
    frequencies the robust step treated as confounded; both are 1-based.
    ``fitted_time_domain`` is the deconfounded covariate path times the
    coefficient estimate, and residuals are defined so that
    fitted + residuals = y exactly.
    """

    beta: np.ndarray
    excluded_frequencies: np.ndarray
    inliers: np.ndarray
    iterations: int
    fitted_time_domain: np.ndarray
    residuals_time_domain: np.ndarray
    r_squared: float
    converged: bool
    method: Method

    def to_json_dict(self) -> dict:
        """JSON-ready representation (schema_version "1", 1-based index arrays)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "beta": np.atleast_1d(self.beta).astype(float).tolist(),
            "excluded_frequencies": self.excluded_frequencies.tolist(),
            "inliers": self.inliers.tolist(),
            "iterations": int(self.iterations),
            "fitted_time_domain": self.fitted_time_domain.tolist(),
            "residuals_time_domain": self.residuals_time_domain.tolist(),
            "r_squared": self.r_squared,
            "converged": bool(self.converged),
            "method": self.method.value,
        }


def _r_squared(y: np.ndarray, residuals: np.ndarray) -> float:
    """Coefficient of determination with centered sums of squares."""
    sst = float(np.sum((y - y.mean()) ** 2))
    ssr = float(np.sum((residuals - residuals.mean()) ** 2))
    if sst == 0.0:
        return 1.0 if ssr == 0.0 else float("-inf")
    return 1.0 - ssr / sst


def decor_fit(
    x: np.ndarray,
    y: np.ndarray,
    config: DecorConfig = DecorConfig(),
) -> DecorEstimate:
    """Fit the causal coefficient on basis-transformed data.

    Transforms x and y, runs the configured robust regression on the
    transformed problem, and returns the coefficient estimate together with
    the excluded-frequency report, deconfounded fitted values, residuals and
    centered R^2.

    Raises
    ------
    FeasibilityError
        If the exhaustive method would need more candidate sets than
        ``config.bfs_cap``.
    ConfigurationError
        Propagated from basis construction (e.g. Haar with n not a power of
        two).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float).ravel()
    n, d = x.shape
    if y.shape[0] != n:
        raise ValueError(f"y must have {n} entries, got {y.shape[0]}")
    if n < d:
        raise ValueError(f"need at least as many samples as covariates ({n} < {d})")

    basis = build_basis(config.basis_kind, n)
    xy_freq = transform(np.column_stack([x, y]), basis)
    x_freq, y_freq = xy_freq[:, :d], xy_freq[:, d]
    problem = robust.RegressionProblem(x_freq, y_freq)

    method = Method(config.method)
    if method is Method.TORRENT:
        fit = robust.torrent(problem, config.a, max_iter=config.max_iter)
    elif method is Method.BFS:
        size = robust.resolve_count(config.a, n)
        sets = robust.candidate_sets_all_of_size(n, size, cap=config.bfs_cap)
        fit = robust.bfs(problem, sets)
    else:
        fit = robust._fit_result(problem, robust.ols(problem), np.arange(1, n + 1), "OLS")

    confounded = np.ones(n, dtype=bool)
    confounded[fit.inliers - 1] = False
    excluded = np.flatnonzero(confounded) + 1
    x_freq_clean = x_freq.copy()
    x_freq_clean[confounded] = 0.0
    x_clean = inverse_transform(x_freq_clean, basis)
    fitted = x_clean @ fit.beta
    residuals = y - fitted
    return DecorEstimate(
        beta=fit.beta,
        excluded_frequencies=excluded,
        inliers=fit.inliers,
        iterations=fit.iterations,
        fitted_time_domain=fitted,
        residuals_time_domain=residuals,
        r_squared=_r_squared(y, residuals),
        converged=fit.converged,
        method=method,
    )
