"""Causal-effect estimation for time series under spectrally sparse confounding.

The estimator maps the observed series into an orthonormal basis domain,
where a confounder that is sparse in that basis contaminates only a few
coordinates, and applies robust linear regression there.  The package also
ships the simulation and benchmark harness used to validate the estimator on
synthetic data.
"""

__version__ = "1.0.0"

import logging

from .basis import (
    BasisKind,
    BasisMatrix,
    OrthonormalityCheck,
    build_basis,
    check_orthonormality,
    inverse_transform,
    transform,
)
from .bench import (
    ExperimentSpec,
    ReplicateRecord,
    ResultRow,
    run_experiment,
)
from .errors import ConfigurationError, FeasibilityError
from .pipeline import DecorConfig, DecorEstimate, Method, decor_fit
from .robust import (
    RegressionProblem,
    RobustFit,
    bfs,
    candidate_sets_all_of_size,
    eta_condition,
    hard_threshold,
    ols,
    resolve_count,
    torrent,
)
from .sim import (
    BandLimitedProcess,
    GroundTruth,
    OUProcess,
    SimConfig,
    generate,
    make_rng,
)

# the package logs to "deconfound" and its children, silent unless an application configures it
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    "BasisKind",
    "BasisMatrix",
    "OrthonormalityCheck",
    "build_basis",
    "check_orthonormality",
    "transform",
    "inverse_transform",
    "ConfigurationError",
    "FeasibilityError",
    "RegressionProblem",
    "RobustFit",
    "ols",
    "hard_threshold",
    "resolve_count",
    "torrent",
    "bfs",
    "candidate_sets_all_of_size",
    "eta_condition",
    "DecorConfig",
    "DecorEstimate",
    "Method",
    "decor_fit",
    "OUProcess",
    "BandLimitedProcess",
    "SimConfig",
    "GroundTruth",
    "make_rng",
    "generate",
    "ExperimentSpec",
    "ResultRow",
    "ReplicateRecord",
    "run_experiment",
]
