"""Synthetic data generation: confounded linear time-series instances.

The generative model is

    X = U 1' + eps_X          (the confounder enters every covariate column)
    Y = X beta + U + eta      (eta i.i.d. centred Gaussian)

where the confounder U is made exactly sparse in the chosen basis: its basis
coefficients are zeroed off the confounded index set G.  Every process, the
confounder and each of the d covariate-noise columns eps_X, is drawn as basis
coefficients, and each process class draws its own: a band-limited process
draws them directly, an Ornstein-Uhlenbeck process samples its paths and
transforms them in one call.  A process is checked when it is constructed,
except for its band support against n (``check_support_fits``): n is known only
when a process is drawn, so each draw checks that, and ``ExperimentSpec`` checks
it at its smallest grid size.  The confounder's coefficients are copied into
an (n, 1 + d) array of zeros on G's rows only, beside the d noise columns, and
one inverse transform of that array gives U and eps_X in the time domain.

Randomness flows through a counter-based (Philox) generator so that replicate
streams can be split reproducibly; ``generate`` with the same config and seed
is bit-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .basis import BasisKind, BasisMatrix, build_basis, inverse_transform, transform
from .errors import ConfigurationError, check_count, check_positive, check_real, is_real
from .robust import _index_sets


@dataclass(frozen=True)
class OUProcess:
    """Mean-reverting Ornstein-Uhlenbeck process dV = drift * V dt + sigma dW."""

    sigma: float = 1.0
    drift: float = -0.8

    def __post_init__(self):
        check_positive("OU sigma", self.sigma)
        check_real("OU drift", self.drift)
        if not (self.drift < 0 and math.isfinite(self.drift)):
            raise ConfigurationError(
                f"OU drift must be negative (mean reversion), got {self.drift}"
            )

    def _coefficients(
        self, basis: BasisMatrix, columns: int, horizon: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Basis coefficients of ``columns`` stationary paths, shape (n, columns).

        Each path is sampled at spacing dt = horizon / n.  Its first sample is drawn
        from the stationary law N(0, sigma^2 / (-2 drift)), and the recursion is
        V_{k+1} = phi V_k + zeta_k with phi = exp(drift * dt) and
        Var(zeta) = sigma^2 (1 - phi^2) / (-2 drift), which matches the continuous
        process on the grid exactly (no Euler bias).
        """
        phi = math.exp(self.drift * (horizon / basis.n))
        stat_var = self.sigma * self.sigma / (-2.0 * self.drift)
        z = rng.normal(0.0, 1.0, (columns, basis.n))  # path by path, n draws each
        z[:, 0] *= math.sqrt(stat_var)
        z[:, 1:] *= math.sqrt(stat_var * (1.0 - phi * phi))
        # V_k = zeta_k + phi V_{k-1} from V_{-1} = 0.0 rounds the product, then the sum, as
        # lfilter([1], [1, -phi], z) does (its b_1 zeta_k term is +-0), so zeta_0 = -0.0 gives +0.0
        for row in z:
            v = 0.0
            row[:] = [v := zeta + phi * v for zeta in row.tolist()]
        return transform(np.ascontiguousarray(z.T), basis)


@dataclass(frozen=True)
class BandLimitedProcess:
    """Finite basis combination with i.i.d. Gaussian coefficients on ``support``.

    ``support=None`` means "the full band {1, ..., n}", bound when the sample
    count is known.  The covariate process must carry energy at every observed
    frequency (otherwise frequencies with an exactly-zero covariate make the
    robust step degenerate), so the default scales with n instead of pinning a
    fixed upper band edge.  An explicit support is one flat index set under the
    index-set rule of ``ols`` and ``bfs`` (integers, non-empty, 1-based, distinct),
    but raises ``ConfigurationError``.  An index above n is rejected by
    ``check_support_fits`` once n is known, rather than silently clipped.
    """

    support: tuple[int, ...] | None = None
    coeff_std: float = 1.0

    def __post_init__(self):
        check_positive("coefficient std", self.coeff_std)
        if self.support is not None:
            sup = _index_sets(self.support, "band support", error=ConfigurationError)
            object.__setattr__(self, "support", tuple(sup.tolist()))

    def _coefficients(
        self, basis: BasisMatrix, columns: int, horizon: float, rng: np.random.Generator
    ) -> np.ndarray:
        """(n, columns) coefficients ~ N(0, coeff_std^2) on the support, drawn column by column."""
        check_support_fits(self, basis.n)
        if self.support is None:
            return rng.normal(0.0, self.coeff_std, (columns, basis.n)).T
        coeffs = np.zeros((basis.n, columns))
        coeffs[np.array(self.support) - 1] = rng.normal(
            0.0, self.coeff_std, (columns, len(self.support))
        ).T
        return coeffs


ProcessKind = Union[OUProcess, BandLimitedProcess]


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one synthetic instance.

    Defaults mirror the benchmark configuration used throughout: beta = 3,
    horizon 1, a quarter of the frequencies confounded, and full-band
    processes with unit-variance coefficients.
    """

    n: int
    d: int = 1
    beta: float | tuple[float, ...] = 3.0
    horizon: float = 1.0
    sigma_eta2: float = 1.0
    conf_prob: float = 0.25
    eps_process: ProcessKind = field(default_factory=BandLimitedProcess)
    u_process: ProcessKind = field(default_factory=BandLimitedProcess)
    basis_kind: BasisKind = BasisKind.COSINE
    dense_u_noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, low in ("n", 1), ("d", 1), ("seed", 0):
            object.__setattr__(self, name, check_count(name, getattr(self, name), low))
        for process in self.eps_process, self.u_process:
            if not isinstance(process, ProcessKind):
                raise ConfigurationError(f"unknown process kind: {process!r}")
        check_positive("horizon", self.horizon)
        for name in "conf_prob", "sigma_eta2", "dense_u_noise_std":
            check_real(name, getattr(self, name))
        if not 0.0 <= self.conf_prob <= 1.0:
            raise ConfigurationError(
                f"conf_prob must lie in [0, 1], got {self.conf_prob}"
            )
        if not (self.sigma_eta2 >= 0 and math.isfinite(self.sigma_eta2)):
            raise ConfigurationError(
                f"sigma_eta2 must be non-negative, got {self.sigma_eta2}"
            )
        if not (self.dense_u_noise_std >= 0 and math.isfinite(self.dense_u_noise_std)):
            raise ConfigurationError("dense_u_noise_std must be non-negative")
        object.__setattr__(self, "basis_kind", BasisKind(self.basis_kind))
        if is_real(self.beta):
            object.__setattr__(self, "beta", check_real("beta", self.beta))
        else:
            # a str or bytes is one value, not a sequence: bytes would read as their codes
            one = isinstance(self.beta, (str, bytes)) or not np.iterable(self.beta)
            beta = (self.beta,) if one else tuple(self.beta)
            if not all(map(is_real, beta)):
                raise ConfigurationError(
                    f"beta must be a number or a sequence of numbers, got {self.beta!r}"
                )
            object.__setattr__(self, "beta", tuple(check_real("beta", b) for b in beta))
        if not np.isfinite(self.beta_vector()).all():
            raise ConfigurationError(f"beta must be finite, got {self.beta}")

    def beta_vector(self) -> np.ndarray:
        if isinstance(self.beta, float):
            return np.full(self.d, self.beta)
        beta = np.asarray(self.beta, dtype=float)
        if beta.shape != (self.d,):
            raise ConfigurationError(
                f"beta must be a scalar or a length-{self.d} vector, got shape {beta.shape}"
            )
        return beta


@dataclass(frozen=True)
class GroundTruth:
    """Latent quantities of a generated instance, kept for scoring.

    When ``dense_u_noise_std`` was zero, the basis coefficients of ``u_time``
    vanish off ``g_set`` (exact sparsity by construction).
    """

    g_set: np.ndarray
    u_time: np.ndarray
    eps_x_time: np.ndarray
    eta_time: np.ndarray
    beta: np.ndarray


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator; accepts an int seed or a SeedSequence."""
    return np.random.Generator(np.random.Philox(seed))


def check_support_fits(process: ProcessKind, n: int) -> None:
    """The one rule for a process against the sample count: no band support index above n."""
    if isinstance(process, BandLimitedProcess) and process.support and max(process.support) > n:
        raise ValueError(f"band support index {max(process.support)} is not in 1..{n}")


def confounded_set_size(conf_prob: float, n: int) -> int:
    """Number of confounded frequencies: round(conf_prob * n), half away from zero."""
    return int(math.floor(conf_prob * n + 0.5))


def generate(config: SimConfig, rng: np.random.Generator | None = None):
    """Draw one instance; returns ``(x, y, truth)``.

    ``x`` is (n, d), ``y`` is (n,).  The confounded set G is a uniformly
    random subset of the frequencies of size round(conf_prob * n), and the
    confounder's basis coefficients are kept on G only, so they are +0.0 off G
    exactly.  The confounder and the d covariate-noise columns are drawn as
    basis coefficients and synthesised by one inverse transform.  With
    ``dense_u_noise_std > 0``, i.i.d. Gaussian noise is added to the
    confounder path after sparsification (deliberate model misspecification;
    it enters Y but not X).

    The draw order (G, confounder, covariate noise columns, eta, dense
    confounder noise) is fixed, so outputs are reproducible bit-for-bit for a
    given seed.
    """
    if rng is None:
        rng = make_rng(config.seed)
    basis = build_basis(config.basis_kind, config.n)
    n, d = config.n, config.d
    beta = config.beta_vector()

    g_size = confounded_set_size(config.conf_prob, n)
    g_rows = rng.choice(n, size=g_size, replace=False)  # 0-based
    g_rows.sort()

    coeffs = np.zeros((n, 1 + d))  # the confounder's column stays +0.0 off G
    u_coeffs = config.u_process._coefficients(basis, 1, config.horizon, rng)
    coeffs[g_rows, 0] = u_coeffs[g_rows, 0]
    coeffs[:, 1:] = config.eps_process._coefficients(basis, d, config.horizon, rng)
    paths = inverse_transform(coeffs, basis)
    u_time, eps = paths[:, 0], paths[:, 1:]
    x = u_time[:, None] + eps

    # sigma 0 still consumes n draws, so streams stay aligned across noise levels
    eta = rng.normal(0.0, math.sqrt(config.sigma_eta2), n)
    if config.dense_u_noise_std > 0:
        u_time = u_time + rng.normal(0.0, config.dense_u_noise_std, n)

    y = np.dot(x, beta) + u_time + eta
    truth = GroundTruth(
        g_set=g_rows + 1,
        u_time=u_time,
        eps_x_time=eps,
        eta_time=eta,
        beta=beta,
    )
    return x, y, truth
