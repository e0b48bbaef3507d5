"""Process draws and the confounded-instance generator.

A single process path is drawn as the confounder of ``generate`` at
``conf_prob=1.0``, where no basis coefficient is zeroed, and read from the
truth's ``u_time``.
"""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from deconfound import (
    BandLimitedProcess,
    BasisKind,
    ConfigurationError,
    OUProcess,
    SimConfig,
    build_basis,
    generate,
    inverse_transform,
    make_rng,
    sim,
    transform,
)
from deconfound.sim import confounded_set_size


def per_column_reference(config):
    """``generate`` by the per-column route, kept as an independent reference.

    The confounder is masked and synthesised on its own, and each covariate-noise
    column is sampled as a path (band-limited: drawn coefficients, synthesised
    one column at a time; OU: the exact AR(1) recursion, n normals per path);
    the draw order is the documented one.
    """
    rng = make_rng(config.seed)
    basis = build_basis(config.basis_kind, config.n)
    n = config.n

    def band_coefficients(process):
        support = np.arange(1, n + 1) if process.support is None else np.asarray(process.support)
        coeffs = np.zeros(n)
        coeffs[support - 1] = rng.normal(0.0, process.coeff_std, support.size)
        return coeffs

    def ou_path(process):
        phi = math.exp(process.drift * config.horizon / n)
        stat_sd = process.sigma / math.sqrt(-2.0 * process.drift)
        z = rng.normal(0.0, 1.0, n)
        v = np.empty(n)
        v[0] = stat_sd * z[0]
        for k in range(1, n):
            v[k] = phi * v[k - 1] + stat_sd * math.sqrt(1.0 - phi * phi) * z[k]
        return v

    def path(process):
        if isinstance(process, OUProcess):
            return ou_path(process)
        return inverse_transform(band_coefficients(process), basis)

    g_size = confounded_set_size(config.conf_prob, n)
    g_set = np.sort(rng.choice(n, size=g_size, replace=False)) + 1
    if isinstance(config.u_process, BandLimitedProcess):
        coeffs = band_coefficients(config.u_process)
    else:
        coeffs = transform(path(config.u_process), basis)
    mask = np.zeros(n)
    mask[g_set - 1] = 1.0
    u_time = inverse_transform(coeffs * mask, basis)
    eps = np.column_stack([path(config.eps_process) for _ in range(config.d)])
    x = u_time[:, None] + eps
    eta = rng.normal(0.0, math.sqrt(config.sigma_eta2), n)
    y = x @ config.beta_vector() + u_time + eta
    return x, y, g_set, u_time, eps


def process_path(process, n, seed=0, rng=None):
    """One path of ``process`` on n samples: ``generate``'s confounder with nothing zeroed."""
    config = SimConfig(n=n, conf_prob=1.0, u_process=process, seed=seed)
    return generate(config, rng=rng)[2].u_time


def in_fresh_process(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports this checkout's package."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout


class FixedDraws:
    """Stands in for a generator whose ``normal`` draws are the given standard normals."""

    def __init__(self, z):
        self.z = z

    def normal(self, loc, scale, size):
        assert (loc, scale, size) == (0.0, 1.0, self.z.shape)
        return self.z.copy()


class TestOu:
    def test_lag_one_autocorrelation(self):
        # exact discretization: corr(V_k, V_{k+1}) = exp(drift * dt); pool
        # lag-1 pairs from 1000 stationary paths of 100 steps at dt = 1/100
        rng = make_rng(0)
        first, second = [], []
        for _ in range(1000):
            v = process_path(OUProcess(1.0, -50.0), 100, rng=rng)
            first.append(v[:-1])
            second.append(v[1:])
        corr = np.corrcoef(np.concatenate(first), np.concatenate(second))[0, 1]
        assert corr == pytest.approx(math.exp(-0.5), abs=0.02)

    def test_stationary_variance(self):
        # Var = sigma^2 / (-2 drift) = 0.625 for (sigma, drift) = (1, -0.8)
        rng = make_rng(1)
        ou = OUProcess(1.0, -0.8)
        samples = np.concatenate([process_path(ou, 100, rng=rng) for _ in range(1000)])
        assert samples.var() == pytest.approx(0.625, rel=0.05)

    def test_same_seed_same_path(self):
        a = process_path(OUProcess(1.0, -0.5), 64, seed=7)
        b = process_path(OUProcess(1.0, -0.5), 64, seed=7)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "seed",
        [0, 7, 2**63 - 1, np.random.SeedSequence(entropy=(5, 16, 1, 3))],
        ids=["0", "7", "2**63-1", "sequence"],
    )
    def test_make_rng_is_philox_of_the_seed_sequence(self, seed):
        entropy = seed.entropy if isinstance(seed, np.random.SeedSequence) else seed
        reference = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        assert np.array_equal(make_rng(seed).normal(size=16), reference.normal(size=16))

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            process_path(OUProcess(1.0, 0.5), 10)
        with pytest.raises(ConfigurationError):
            OUProcess(sigma=-1.0, drift=-0.5)
        with pytest.raises(ConfigurationError):
            OUProcess(sigma=1.0, drift=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 257, 4097])
    @pytest.mark.parametrize("phi_of_n", ["exp(-50/n)", "exp(-1/n)", "exp(-1e-6)"])
    def test_recursion_is_lfilter_bit_for_bit(self, monkeypatch, n, phi_of_n):
        # scipy is a test-only reference here: the path is lfilter([1], [1, -phi], zeta) by
        # bytes, a -0.0 first sample included, which lfilter's V_{-1} = 0.0 turns into +0.0
        from scipy.signal import lfilter

        drift = {"exp(-50/n)": -50.0, "exp(-1/n)": -1.0, "exp(-1e-6)": -1e-6 * n}[phi_of_n]
        phi = math.exp(drift * (1.0 / n))  # dt = horizon / n, as the draw computes it
        stat_var = 1.0 / (-2.0 * drift)
        monkeypatch.setattr(sim, "transform", lambda v, basis: v)
        basis = build_basis(BasisKind.COSINE, n)
        draws = np.random.default_rng(n)
        for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
            for columns in (1, 2, 3):
                z = draws.normal(0.0, scale, (columns, n))
                z[:, 1::7] = 0.0
                z[:, 3::11] = -0.0
                z[0, 0] = -0.0
                zeta = z.copy()
                zeta[:, 0] *= math.sqrt(stat_var)
                zeta[:, 1:] *= math.sqrt(stat_var * (1.0 - phi * phi))
                path = OUProcess(1.0, drift)._coefficients(basis, columns, 1.0, FixedDraws(z))
                assert path.shape == (n, columns)
                assert path.tobytes() == lfilter([1.0], [1.0, -phi], zeta).T.tobytes()
                assert math.copysign(1.0, path[0, 0]) == 1.0

    def test_no_scipy_import_anywhere(self, tmp_path):
        # a None entry in sys.modules makes every import of scipy, or of any of its modules,
        # raise ImportError: the package, the OU draw, a cosine fit above n = 256 on numpy.fft
        # and the CLI commands that read and write files all run without scipy
        spec = tmp_path / "ou_spec.json"
        spec.write_text(json.dumps({
            "schema_version": "1",
            "sim": {"process": "ou", "ou_eps": {"sigma": 1.0, "drift": -0.8},
                    "ou_u": {"sigma": 1.0, "drift": -0.5}},
            "n_grid": [64], "methods": [{"method": "torrent"}], "replicates": 2, "seed_base": 7,
        }))
        data, est, report, rows = (str(tmp_path / name) for name in
                                   ("ou.csv", "estimate.json", "report", "rows.csv"))
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np, deconfound, deconfound.bench, deconfound.cli as cli\n"
            "ou = deconfound.OUProcess()\n"
            "deconfound.generate(deconfound.SimConfig(4, conf_prob=1.0, u_process=ou))\n"
            "rng = np.random.default_rng(0)\n"
            "deconfound.decor_fit(rng.normal(size=512), rng.normal(size=512))\n"
            "fft = 'numpy.fft' in sys.modules\n"
            "codes = (\n"
            f"    cli.main(['simulate', '--process', 'ou', '--n', '1000', '--out', {data!r}]),\n"
            f"    cli.main(['fit', '--input', {data!r}, '--out', {est!r}]),\n"
            f"    cli.main(['deconfound', '--input', {data!r}, '--out', {report!r}]),\n"
            f"    cli.main(['experiment', '--spec', {str(spec)!r}, '--out', {rows!r}]),\n"
            ")\n"
            "print(fft, *codes)"
        )
        assert in_fresh_process(code).splitlines()[-1] == "True 0 0 0 0"
        assert len(json.loads(Path(est).read_text())["fitted_time_domain"]) == 1000
        assert len(Path(rows + ".replicates.csv").read_text().splitlines()) == 3


class TestBandLimited:
    def test_single_constant_component(self):
        basis = build_basis(BasisKind.COSINE, 16)
        v = process_path(BandLimitedProcess([1], 1.0), 16, seed=3)
        assert np.max(np.abs(v - v[0])) < 1e-12
        assert v[0] == pytest.approx(transform(v, basis)[0], abs=1e-12)

    def test_transform_support_is_contained(self):
        basis = build_basis(BasisKind.COSINE, 32)
        support = [2, 5, 11]
        v = process_path(BandLimitedProcess(support, 1.0), 32, seed=4)
        coeffs = transform(v, basis)
        off = np.setdiff1d(np.arange(1, 33), support)
        assert np.max(np.abs(coeffs[off - 1])) < 1e-10

    def test_coefficient_variance(self):
        basis = build_basis(BasisKind.COSINE, 8)
        rng = make_rng(5)
        band = BandLimitedProcess([3], 1.7)
        draws = np.array(
            [transform(process_path(band, 8, rng=rng), basis)[2] for _ in range(10_000)]
        )
        assert draws.var() == pytest.approx(1.7**2, rel=0.05)

    def test_out_of_range_support_rejected(self):
        with pytest.raises(ValueError, match="1..8"):
            process_path(BandLimitedProcess([1, 9], 1.0), 8)


class TestGenerate:
    def test_unconfounded_noiseless_is_exactly_linear(self):
        cfg = SimConfig(n=32, conf_prob=0.0, sigma_eta2=0.0, seed=11)
        x, y, truth = generate(cfg)
        assert truth.g_set.size == 0
        assert np.max(np.abs(y - x @ truth.beta)) < 1e-12

    def test_confounded_count_is_round_of_fraction(self):
        x, y, truth = generate(SimConfig(n=400, conf_prob=0.25, seed=1))
        assert truth.g_set.size == 100
        assert 60 <= truth.g_set.size <= 140

    def test_confounder_is_sparse_on_g(self):
        cfg = SimConfig(n=64, sigma_eta2=1.0, seed=2)
        basis = build_basis(BasisKind.COSINE, 64)
        x, y, truth = generate(cfg)
        coeffs = transform(truth.u_time, basis)
        off = np.setdiff1d(np.arange(1, 65), truth.g_set)
        assert np.max(np.abs(coeffs[off - 1])) < 1e-10

    def test_dense_noise_breaks_sparsity_but_model_holds(self):
        cfg = SimConfig(n=64, sigma_eta2=0.5, dense_u_noise_std=1.0, seed=3)
        basis = build_basis(BasisKind.COSINE, 64)
        x, y, truth = generate(cfg)
        coeffs = transform(truth.u_time, basis)
        off = np.setdiff1d(np.arange(1, 65), truth.g_set)
        assert np.max(np.abs(coeffs[off - 1])) > 1e-6
        resid = y - x @ truth.beta - truth.u_time - truth.eta_time
        assert np.max(np.abs(resid)) < 1e-12

    def test_frozen_draw_order(self):
        # guards the documented draw order (G, confounder, covariate noise,
        # response noise, dense noise): values frozen from a reference run;
        # tolerance absorbs BLAS summation-order differences only
        x, y, truth = generate(SimConfig(n=8, sigma_eta2=1.0, seed=12345))
        assert list(truth.g_set) == [4, 7]
        assert np.allclose(
            x[:3, 0],
            [1.0248613108311133, -0.6611449133380258, 2.5321575017482623],
            atol=1e-12,
        )
        assert np.allclose(
            y[:3],
            [6.614156441767336, -3.84131342342975, 7.936988797643717],
            atol=1e-12,
        )
        assert np.allclose(
            truth.u_time[:3],
            [2.4713227096005737, -1.940500710518041, -0.6716263845468935],
            atol=1e-12,
        )

    def test_bit_identical_reproducibility(self):
        cfg = SimConfig(n=48, seed=12345)
        x1, y1, t1 = generate(cfg)
        x2, y2, t2 = generate(cfg)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        assert np.array_equal(t1.g_set, t2.g_set)
        assert np.array_equal(t1.u_time, t2.u_time)

    def test_confounder_enters_every_column(self):
        cfg = SimConfig(n=32, d=3, seed=4)
        x, y, truth = generate(cfg)
        for c in range(3):
            assert np.allclose(x[:, c] - truth.eps_x_time[:, c], truth.u_time, atol=1e-12)

    def test_ou_confounder_masked(self):
        cfg = SimConfig(
            n=64,
            eps_process=OUProcess(1.0, -0.8),
            u_process=OUProcess(1.0, -0.5),
            seed=5,
        )
        basis = build_basis(BasisKind.COSINE, 64)
        x, y, truth = generate(cfg)
        coeffs = transform(truth.u_time, basis)
        off = np.setdiff1d(np.arange(1, 65), truth.g_set)
        assert np.max(np.abs(coeffs[off - 1])) < 1e-10

    def test_haar_power_of_two_enforced(self):
        with pytest.raises(ConfigurationError):
            generate(SimConfig(n=100, basis_kind=BasisKind.HAAR, seed=0))

    def test_explicit_support_above_n_rejected(self):
        cfg = SimConfig(n=8, u_process=BandLimitedProcess(support=tuple(range(1, 51))), seed=0)
        with pytest.raises(ValueError):
            generate(cfg)

    @pytest.mark.parametrize("process", ["band", "ou"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize(
        "kind, n",
        [(BasisKind.COSINE, n) for n in (8, 300, 1024)] + [(BasisKind.HAAR, n) for n in (8, 1024)],
    )
    def test_matches_per_column_reference(self, process, d, kind, n):
        if process == "ou":
            procs = dict(eps_process=OUProcess(1.0, -0.8), u_process=OUProcess(1.0, -0.5))
        else:
            procs = dict(u_process=BandLimitedProcess(support=tuple(range(2, n, 3))))
        cfg = SimConfig(n=n, d=d, basis_kind=kind, seed=n + d, **procs)
        x, y, truth = generate(cfg)
        ref_x, ref_y, ref_g, ref_u, ref_eps = per_column_reference(cfg)
        assert np.array_equal(truth.g_set, ref_g)
        pairs = [(x, ref_x), (y, ref_y), (truth.u_time, ref_u), (truth.eps_x_time, ref_eps)]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_synthesis_per_instance(self, monkeypatch):
        calls = []
        real = sim.inverse_transform

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sim, "inverse_transform", counted)
        generate(SimConfig(n=64, d=2, seed=8))
        assert len(calls) == 1

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.HAAR])
    @pytest.mark.parametrize("n", [8, 16, 1024])
    def test_full_band_draws_match_the_support_path(self, d, kind, n):
        # the full band draws what the explicit support 1..n draws, byte for byte
        band = BandLimitedProcess(tuple(range(1, n + 1)))
        for seed in range(20):
            config = SimConfig(n=n, d=d, basis_kind=kind, seed=seed)
            x, y, truth = generate(config)
            ref_x, ref_y, ref_truth = generate(replace(config, eps_process=band, u_process=band))
            assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()
            assert truth.u_time.tobytes() == ref_truth.u_time.tobytes()

    def test_frequency_noise_variance_shrinks(self):
        # quick version of the distributional check: component variance of the
        # transformed noise is sigma^2 / n within 10% over 5000 replicates
        n, reps = 32, 5000
        basis = build_basis(BasisKind.COSINE, n)
        rng = make_rng(6)
        eta = rng.normal(0.0, 1.0, size=(reps, n))
        comps = eta @ basis.matrix / n
        rel = np.abs(comps.var(axis=0, ddof=1) - 1.0 / n) * n
        assert rel.max() < 0.10

    def test_beta_vector_shape_checked(self):
        with pytest.raises(ConfigurationError):
            SimConfig(n=8, d=2, beta=(1.0, 2.0, 3.0)).beta_vector()

    @pytest.mark.parametrize(
        "d, beta, expected",
        [
            (2, np.int64(3), [3.0, 3.0]),
            (1, np.float32(2.0), [2.0]),
            (2, Fraction(1, 2), [0.5, 0.5]),
        ],
        ids=repr,
    )
    def test_numpy_scalar_beta_broadcasts(self, d, beta, expected):
        config = SimConfig(n=8, d=d, beta=beta)
        assert type(config.beta) is float
        assert config.beta_vector().tolist() == expected

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sigma_eta2", math.nan, "sigma_eta2 must be non-negative, got nan"),
            ("sigma_eta2", math.inf, "sigma_eta2 must be non-negative, got inf"),
            ("dense_u_noise_std", math.nan, "dense_u_noise_std must be non-negative"),
            ("horizon", math.inf, "horizon must be positive, got inf"),
            ("horizon", math.nan, "horizon must be positive, got nan"),
            ("beta", math.nan, "beta must be finite, got nan"),
            ("beta", (1.0, math.inf), "beta must be finite, got (1.0, inf)"),
            ("beta", "12", "beta must be a number or a sequence of numbers, got '12'"),
            ("beta", b"3", "beta must be a number or a sequence of numbers, got b'3'"),
            ("beta", True, "beta must be a number or a sequence of numbers, got True"),
            (
                "beta", [True, 2.0],
                "beta must be a number or a sequence of numbers, got [True, 2.0]",
            ),
            ("beta", None, "beta must be a number or a sequence of numbers, got None"),
            ("beta", np.True_, "beta must be a number or a sequence of numbers, got np.True_"),
        ],
    )
    def test_non_finite_values_rejected(self, field, value, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            SimConfig(n=8, d=2, **{field: value})

    @pytest.mark.parametrize(
        "make",
        [
            lambda: OUProcess(sigma=math.nan),
            lambda: OUProcess(sigma=math.inf),
            lambda: OUProcess(drift=math.nan),
            lambda: OUProcess(drift=-math.inf),
            lambda: BandLimitedProcess(coeff_std=math.nan),
            lambda: BandLimitedProcess(coeff_std=math.inf),
        ],
    )
    def test_non_finite_process_parameters_rejected(self, make):
        with pytest.raises(ConfigurationError):
            make()
