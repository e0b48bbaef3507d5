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
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import robust
from .basis import BasisKind, build_basis, inverse_transform, transform
from .errors import check_count

SCHEMA_VERSION = "1"


class Method(str, enum.Enum):
    """Regression backends for the pipeline."""

    TORRENT = "torrent"
    BFS = "bfs"
    OLS_BASELINE = "olsbaseline"


@dataclass(frozen=True)
class DecorConfig:
    """Pipeline configuration.

    ``a`` is the robust threshold: the number of frequencies treated as unconfounded, given
    as an absolute count or as a fraction of n (converted as ``ceil(a * n)``) by
    ``robust.resolve_count``'s rule, which is checked here, so whatever that rule rejects is
    rejected at construction.  For the exhaustive method it is the candidate-set size, and
    C(n, a) may not exceed ``robust.SUBSET_ENUMERATION_CAP``.  Defaults follow the
    benchmark setup: cosine basis, iterative hard thresholding, a = 0.7.
    """

    basis_kind: BasisKind = BasisKind.COSINE
    method: Method = Method.TORRENT
    a: float | int = 0.7
    max_iter: int = 100

    def __post_init__(self):
        object.__setattr__(self, "basis_kind", BasisKind(self.basis_kind))
        object.__setattr__(self, "method", Method(self.method))
        try:  # resolve_count's rule; a count's upper bound n is checked once n is known
            robust.resolve_count(self.a, sys.maxsize)
        except ValueError:
            raise ValueError(
                f"a must be a fraction in (0,1] or a positive count, got {self.a!r}"
            ) from None
        object.__setattr__(self, "max_iter", check_count("max_iter", self.max_iter))


_REPORT = ("excluded_frequencies", "fitted_time_domain", "residuals_time_domain", "r_squared")


@dataclass(frozen=True)
class DecorEstimate(robust.RobustFit):
    """The robust fit of the basis-domain problem plus its time-domain report.

    ``residual_norm`` is the fit's, in the basis domain; ``method`` is a ``Method``.
    ``excluded_frequencies`` (the complement of ``inliers``) are the frequencies
    the robust step treated as confounded; both are 1-based.  ``fitted_time_domain``
    is the deconfounded covariate path times the coefficient estimate, and
    residuals are defined so that fitted + residuals = y exactly.

    The four report names are not dataclass fields: the first read of any of them builds
    all four, from ``beta``, ``inliers`` and the inputs ``decor_fit`` kept, stores them and
    drops the inputs, so a fit whose report is never read never pays for it.
    """

    method: Method

    def __getattr__(self, name):  # reached only while the report is not yet stored
        if name not in _REPORT:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        state = self.__dict__
        inputs = state.get("_inputs")
        if inputs is not None:  # stored before the inputs go, so a thread finding none reads it
            state.setdefault("_report", _time_domain_report(self, *inputs))
            state.pop("_inputs", None)
        elif "_report" not in state:
            raise AttributeError(f"no {name!r}: only decor_fit's estimates have a report")
        state.update(zip(_REPORT, state["_report"]))
        return state[name]

    def to_json_dict(self) -> dict:
        """JSON-ready representation (schema_version "1", 1-based index arrays); an
        undefined R^2 (``-inf``, for a constant y that the fit misses) is ``None``."""
        return {
            "schema_version": SCHEMA_VERSION,
            "beta": (np.atleast_1d(self.beta).astype(float) + 0.0).tolist(),  # -0.0 + 0.0 is 0.0
            "excluded_frequencies": self.excluded_frequencies.tolist(),
            "inliers": self.inliers.tolist(),
            "iterations": int(self.iterations),
            "fitted_time_domain": self.fitted_time_domain.tolist(),
            "residuals_time_domain": self.residuals_time_domain.tolist(),
            "r_squared": self.r_squared if math.isfinite(self.r_squared) else None,
            "converged": bool(self.converged),
            "stop_reason": self.stop_reason,
            "method": self.method.value,
        }


def _r_squared(y: np.ndarray, residuals: np.ndarray, e: int) -> float:
    """Coefficient of determination with centered sums of squares.

    y and the residuals are first scaled by 2^-e, exactly (``robust._rescaled``), where e is
    y's ``robust._scale_exponent``.  A least-squares fit's residuals stay within a small
    multiple of y's largest magnitude, so no sum of squares leaves float range.  Both rows
    of the stacked (2, n) array are centred and summed as one vector each would be."""
    rows = robust._rescaled(np.array((y, residuals)), -e)  # a new array, centred in place
    rows -= (np.add.reduce(rows, axis=1) / y.shape[0])[:, None]
    sst, ssr = np.add.reduce(rows * rows, axis=1).tolist()
    if sst == 0.0:
        return 1.0 if ssr == 0.0 else float("-inf")
    return 1.0 - ssr / sst


def check_sample_count(n: int, d: int) -> None:
    """The one rule for a sample count against the covariates: at least as many samples."""
    if n < d:
        raise ValueError(f"need at least as many samples as covariates ({n} < {d})")


def decor_fit(
    x: np.ndarray,
    y: np.ndarray,
    config: DecorConfig = DecorConfig(),
) -> DecorEstimate:
    """Fit the causal coefficient on basis-transformed data.

    Transforms x and y, runs the configured robust regression on the
    transformed problem, and returns the coefficient estimate together with
    the excluded-frequency report, deconfounded fitted values, residuals and
    centered R^2: to the bit, fitted = inverse_transform(x_freq with +0.0 on the
    excluded rows) @ beta, residuals = y - fitted, and ``_r_squared``.  The report is
    built when one of its names is first read, from the estimate's own arrays of the
    transformed x and of y, so later changes to the caller's x and y do not reach it.

    Raises
    ------
    FeasibilityError
        If the exhaustive method would need more candidate sets than
        ``robust.SUBSET_ENUMERATION_CAP``.
    ConfigurationError
        Propagated from basis construction (e.g. Haar with n not a power of
        two).
    """
    # checked before the transform, so a non-finite value is rejected, never multiplied
    x, y, (_, y_exponent) = robust._design(x, y)
    n, d = x.shape
    check_sample_count(n, d)

    basis = build_basis(config.basis_kind, n)
    xy_freq = transform(np.concatenate((x, y[:, None]), axis=1), basis)
    # checked again: a finite column near the float limit can overflow in the transform
    problem = robust.RegressionProblem(xy_freq[:, :d], xy_freq[:, d])

    method = config.method
    if method is Method.TORRENT:
        fit = robust.torrent(problem, config.a, max_iter=config.max_iter)
    elif method is Method.BFS:
        size = robust.resolve_count(config.a, n)
        sets = robust.candidate_sets_all_of_size(n, size)
        fit = robust.bfs(problem, sets)
    else:
        fit = robust._fit_result(problem, robust.ols(problem), "OLS")

    est = DecorEstimate(**{**vars(fit), "method": method})
    # the transform's own x, not problem's copy: with the copy kept, glibc's heap ended 8 MiB
    # larger in a cold CLI deconfound at n = 2^20, at the same traced peak
    est.__dict__["_inputs"] = basis, xy_freq[:, :d], y, y_exponent
    return est


def _time_domain_report(fit, basis, x_freq, y, y_exponent) -> tuple:
    """``DecorEstimate``'s four report values, in its ``_REPORT`` order, by ``decor_fit``'s
    definition."""
    kept = np.zeros(y.shape[0], dtype=bool)
    kept[fit.inliers - 1] = True
    # +0.0, not x * 0, on the excluded rows, so that no -0.0 reaches the report
    fitted = np.dot(inverse_transform(np.where(kept[:, None], x_freq, 0.0), basis), fit.beta)
    residuals = y - fitted
    return (~kept).nonzero()[0] + 1, fitted, residuals, _r_squared(y, residuals, y_exponent)
