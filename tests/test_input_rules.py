"""Each input rule has one implementation: every entry point accepts or rejects a value alike.

The rules are the threshold ``a`` (``resolve_count``), the 1-based index sets
of ``ols``, ``bfs``, ``eta_condition`` and a band support, shape included (one
flat set, or one 2-d array of candidate sets), the band support and
coefficient std of a band-limited process, the OU parameters with the grid
horizon, the shape of ``y`` and of ``hard_threshold``'s ``v`` (``_as_vector``),
the two sizes a sample count must hold: the covariates
(``check_sample_count``) and a band support (``check_support_fits``),
every size or count (``check_count``), and the tolerance of an
orthonormality check (``check_positive``).
Each table pairs an input with its verdict, and every entry point that takes
the input must reach that verdict.  A config is rejected when it is
constructed, not when it is first used.
"""

import math
import numbers
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from deconfound import (
    BandLimitedProcess,
    BasisMatrix,
    ConfigurationError,
    DecorConfig,
    ExperimentSpec,
    Method,
    OUProcess,
    RegressionProblem,
    SimConfig,
    bfs,
    build_basis,
    candidate_sets_all_of_size,
    check_orthonormality,
    decor_fit,
    eta_condition,
    generate,
    hard_threshold,
    ols,
    resolve_count,
    torrent,
)
from deconfound.cli import main, write_series_csv
from deconfound.errors import check_count, is_real
from deconfound.pipeline import check_sample_count
from deconfound.sim import check_support_fits

N = 16

# (a, rows kept at n = 16); a count above n is left out: DecorConfig cannot know n
ACCEPTED_THRESHOLDS = [
    (1, 1),
    (5, 5),
    (np.int64(5), 5),
    (12.0, 12),
    (np.float32(12.0), 12),
    (np.float64(12.0), 12),
    (0.7, 12),
    (np.float64(0.3), 5),
    (np.float32(0.5), 8),
    (Fraction(7, 10), 12),
    (1.0, 16),
    (np.float32(1.0), 16),
]
REJECTED_THRESHOLDS = [
    0,
    -3,
    0.0,
    -0.5,
    1.5,
    2.5,
    np.float32(1.5),
    np.float32(-0.5),
    math.nan,
    np.float32(math.nan),
    math.inf,
    True,
    np.True_,
    Fraction(3, 2),
    Decimal("0.7"),
    "0.7",
    None,
    0.5j,
]


@pytest.fixture(scope="module")
def series():
    x, y, _ = generate(SimConfig(n=N, seed=5))
    return x, y


class TestThresholdRule:
    @pytest.mark.parametrize("a, count", ACCEPTED_THRESHOLDS, ids=repr)
    def test_accepted_everywhere(self, series, a, count):
        x, y = series
        assert resolve_count(a, N) == count
        assert torrent(RegressionProblem(x, y), a).inliers.size == count
        for method in Method.TORRENT, Method.BFS:
            assert decor_fit(x, y, DecorConfig(method=method, a=a)).inliers.size == count

    @pytest.mark.parametrize("a", REJECTED_THRESHOLDS, ids=repr)
    def test_rejected_everywhere(self, series, a):
        x, y = series
        with pytest.raises(ValueError, match="^a must be"):
            DecorConfig(a=a)
        with pytest.raises(ValueError):
            resolve_count(a, N)
        with pytest.raises(ValueError):
            torrent(RegressionProblem(x, y), a)
        for method in Method.TORRENT, Method.BFS:
            config = DecorConfig(method=method)
            object.__setattr__(config, "a", a)  # a config that skipped construction's check
            with pytest.raises(ValueError):
                decor_fit(x, y, config)


ACCEPTED_INDEX_SETS = [[1, 2, 3, 4, 5, 6], [6, 2, 5, 1, 4, 3], [8], np.arange(1, 9)]
# integers of any width pass, and so do whole-number floats
ACCEPTED_INDEX_SETS += [np.int32([6, 2, 5, 1, 4, 3]), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]
REJECTED_INDEX_SETS = [
    [],
    [0, 1, 2],
    [-1, 2],
    [1, 2, 9],
    [1, 1, 2],
    [1, 2, 1],
    [1, 1, 2, 3, 4, 5, 6],
]
# indices that are not integers: rejected, never truncated to integers
NON_INTEGRAL_INDEX_SETS = [
    [1.7, 2.2, 3.9],
    [1.5, 2.5, 3.5],
    [1.5, 2, 3, 4, 5, 6],
    np.array([1.5, 2.9]),
    [1, math.nan],
    [1, math.inf],
    ["2"],
    [True],
]
# (entry point, value): a set is a flat sequence and candidate sets one 2-d array, so
# no entry point flattens, groups or splits a value of another shape
WRONG_SHAPE_CALLS = {
    "ols": ols,
    "eta_condition": lambda problem, rows: eta_condition(problem, 6, rows),
    "bfs": bfs,
    "band support": lambda problem, support: BandLimitedProcess(support),
}
WRONG_SHAPE_INDEX_SETS = [
    ("ols", [[1, 2], [3, 4]]),
    ("ols", 3),
    ("eta_condition", [[1, 2], [3, 4]]),
    ("eta_condition", 3),
    ("bfs", np.array([1, 2, 3])),
    ("bfs", [1, 2, 3]),
    ("bfs", [[[1, 2, 3, 4], [5, 6, 7, 8]]]),
    ("bfs", [(1,), (2, 3)]),
    ("band support", [[1, 2]]),
    ("band support", 3),
]


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(8)
    return RegressionProblem(rng.normal(size=8), rng.normal(size=8))


class TestIndexSetRule:
    @pytest.mark.parametrize("rows", ACCEPTED_INDEX_SETS, ids=repr)
    def test_accepted_everywhere(self, problem, rows):
        assert np.isfinite(ols(problem, rows)).all()
        for sets in [rows], np.array([rows]):
            assert list(bfs(problem, sets).inliers) == sorted(rows)
        assert eta_condition(problem, 6, rows) >= 0.0

    @pytest.mark.parametrize("rows", REJECTED_INDEX_SETS, ids=repr)
    def test_rejected_everywhere(self, problem, rows):
        with pytest.raises(ValueError):
            ols(problem, rows)
        for sets in [rows], np.array([rows], dtype=int):
            with pytest.raises(ValueError):
                bfs(problem, sets)
        with pytest.raises(ValueError):
            eta_condition(problem, 6, rows)

    @pytest.mark.parametrize("rows", NON_INTEGRAL_INDEX_SETS, ids=repr)
    def test_non_integral_rejected_everywhere(self, problem, rows):
        for call in (
            lambda: ols(problem, rows),
            lambda: bfs(problem, [rows]),
            lambda: bfs(problem, np.array([rows])),
            lambda: eta_condition(problem, 6, rows),
        ):
            with pytest.raises(ValueError, match="indices must be integers"):
                call()
        with pytest.raises(ConfigurationError, match="^band support indices must be integers"):
            BandLimitedProcess(rows)

    def test_one_message_per_fault(self, problem):
        for call in (
            lambda rows: ols(problem, rows),
            lambda rows: bfs(problem, [rows]),
            lambda rows: eta_condition(problem, 6, rows),
        ):
            with pytest.raises(ValueError, match="s must be non-empty$"):
                call([])
            with pytest.raises(ValueError, match=r"indices must lie in 1\.\.8$"):
                call([1, 9])
            with pytest.raises(ValueError, match="must not repeat an index"):
                call([1, 1, 2])
        # a band support's n comes later, from check_support_fits
        for support, message in ([], "s must be non-empty$"), ([1, 1, 2], "must not repeat"):
            with pytest.raises(ConfigurationError, match=message):
                BandLimitedProcess(support)

    @pytest.mark.parametrize("entry, value", WRONG_SHAPE_INDEX_SETS, ids=repr)
    def test_wrong_shape_rejected(self, problem, entry, value):
        error = ConfigurationError if entry == "band support" else ValueError
        with pytest.raises(error, match="^[a-z ]+ indices must form a "):
            WRONG_SHAPE_CALLS[entry](problem, value)


# y, and hard_threshold's v: shape (n,), or (n, 1) read as its column; each entry point as a
# function of the vector, with one row of x per entry of it
VECTOR_CALLS = {
    "decor_fit": ("y", lambda v: decor_fit(np.arange(1.0, np.size(v) + 1), v).beta),
    "RegressionProblem": ("y", lambda v: RegressionProblem(np.ones(np.size(v)), v).y),
    "ols": ("y", lambda v: ols(RegressionProblem(np.ones((np.size(v), 1)), v))),
    "hard_threshold": ("v", lambda v: hard_threshold(v, 2)),
}
ACCEPTED_VECTORS = [np.array([[3.0], [1.0], [4.0], [1.5]]), [[3.0], [1.0], [4.0], [1.5]]]
# no other shape is flattened: a square, a row, a 3-d column and a scalar (for one row of x)
REJECTED_VECTORS = [
    np.ones((2, 2)),
    np.arange(6.0).reshape(2, 3),
    np.arange(6.0).reshape(1, 6),
    np.arange(4.0).reshape(4, 1, 1),
    np.float64(3.0),
]


class TestVectorRule:
    @pytest.mark.parametrize("value", ACCEPTED_VECTORS, ids=["array", "nested list"])
    @pytest.mark.parametrize("entry", VECTOR_CALLS)
    def test_column_read_as_its_vector_everywhere(self, entry, value):
        _, call = VECTOR_CALLS[entry]
        assert np.array_equal(call(value), call(np.ravel(value)))

    @pytest.mark.parametrize("value", REJECTED_VECTORS, ids=lambda v: f"shape{np.shape(v)}")
    @pytest.mark.parametrize("entry", VECTOR_CALLS)
    def test_rejected_everywhere(self, entry, value):
        name, call = VECTOR_CALLS[entry]
        message = f"{name} must have shape (n,) or (n, 1), got shape {np.shape(value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


# (support, coeff_std); an index above n is the n-dependent check, outside this rule
ACCEPTED_BANDS = [([1, 2], 1.0), ([8, 3], 0.5), ((2,), 1e-3), (None, 1.0)]
REJECTED_BANDS = [
    ([1, 1], 1.0),
    ([2], math.nan),
    ([], 1.0),
    ([0, 1], 1.0),
    ([-2], 1.0),
    ([1], 0.0),
    ([1], -1.0),
    ([1], math.inf),
]


class TestBandSupportRule:
    @pytest.mark.parametrize("support, coeff_std", ACCEPTED_BANDS, ids=repr)
    def test_accepted_everywhere(self, support, coeff_std):
        process = BandLimitedProcess(support, coeff_std)
        x, y, _ = generate(SimConfig(n=8, conf_prob=1.0, eps_process=process, u_process=process))
        assert np.isfinite(x).all() and np.isfinite(y).all()

    @pytest.mark.parametrize("support, coeff_std", REJECTED_BANDS, ids=repr)
    def test_rejected_everywhere(self, support, coeff_std):
        with pytest.raises(ConfigurationError):
            BandLimitedProcess(support, coeff_std)


# (horizon, sigma, drift)
ACCEPTED_OU = [(1.0, 1.0, -0.8), (2.5, 0.3, -5.0), (1e-3, 1e3, -1e-3)]
REJECTED_OU = [
    (1.0, math.nan, -0.8),
    (0.0, 1.0, -0.8),
    (-1.0, 1.0, -0.8),
    (math.inf, 1.0, -0.8),
    (math.nan, 1.0, -0.8),
    (1.0, 0.0, -0.8),
    (1.0, -1.0, -0.8),
    (1.0, math.inf, -0.8),
    (1.0, 1.0, 0.0),
    (1.0, 1.0, 0.5),
    (1.0, 1.0, -math.inf),
    (1.0, 1.0, math.nan),
]


def ou_config(horizon, sigma, drift):
    process = OUProcess(sigma, drift)
    return SimConfig(n=8, horizon=horizon, eps_process=process, u_process=process, seed=4)


class TestOUParameterRule:
    @pytest.mark.parametrize("horizon, sigma, drift", ACCEPTED_OU, ids=repr)
    def test_accepted_everywhere(self, horizon, sigma, drift):
        x, y, _ = generate(ou_config(horizon, sigma, drift))
        assert np.isfinite(x).all() and np.isfinite(y).all()

    @pytest.mark.parametrize("horizon, sigma, drift", REJECTED_OU, ids=repr)
    def test_rejected_everywhere(self, horizon, sigma, drift):
        with pytest.raises(ConfigurationError):
            ou_config(horizon, sigma, drift)


def one_cell(sim):
    """A spec of ``sim`` at its own n; its one method has no threshold to check."""
    methods = (DecorConfig(method=Method.OLS_BASELINE),)
    return ExperimentSpec(sim=sim, n_grid=(sim.n,), methods=methods)


BAND_TO_8 = BandLimitedProcess((1, 8))
# each size rule: its owner and the calls that apply it, all as functions of the sample count n;
# every call must hold d = 8 covariates, or a band support that reaches index 8
SIZE_RULES = {
    "d": (
        lambda n: check_sample_count(n, 8),
        [
            lambda n: decor_fit(np.eye(n, 8), np.ones(n), DecorConfig(method=Method.OLS_BASELINE)),
            lambda n: one_cell(SimConfig(n=n, d=8)),
        ],
    ),
    "support": (
        lambda n: check_support_fits(BAND_TO_8, n),
        [
            lambda n: generate(SimConfig(n=n, u_process=BAND_TO_8)),
            lambda n: one_cell(SimConfig(n=n, u_process=BAND_TO_8)),
        ],
    ),
}


class TestSizeRules:
    @pytest.mark.parametrize("rule", SIZE_RULES)
    def test_held_everywhere(self, rule):
        owner, calls = SIZE_RULES[rule]
        owner(8)
        for call in calls:
            call(8)

    @pytest.mark.parametrize("rule", SIZE_RULES)
    def test_broken_with_the_owners_message(self, rule):
        owner, calls = SIZE_RULES[rule]
        with pytest.raises(ValueError) as info:
            owner(7)
        for call in calls:  # ExperimentSpec puts its location in front of the message
            with pytest.raises(ValueError, match=re.escape(str(info.value)) + "$"):
                call(7)


def count_spec(**fields):
    """``one_cell`` at n = 8 with ``fields`` replaced, checked again as a new spec."""
    return replace(one_cell(SimConfig(n=8)), **fields)


COUNT_PROBLEM = RegressionProblem(np.arange(8.0), np.arange(8.0) ** 2)
# each size or count: (its name in the message, its least value, the count as the entry point
# keeps it, or for torrent the refits it ran)
COUNTS = {
    "build_basis n": ("n", 1, lambda v: build_basis("cosine", v).n),
    "BasisMatrix n": ("n", 1, lambda v: BasisMatrix("cosine", v).n),
    "SimConfig.n": ("n", 1, lambda v: SimConfig(n=v).n),
    "SimConfig.d": ("d", 1, lambda v: SimConfig(n=8, d=v).d),
    "SimConfig.seed": ("seed", 0, lambda v: SimConfig(n=8, seed=v).seed),
    "ExperimentSpec.n_grid": ("n_grid entry", 1, lambda v: count_spec(n_grid=(v,)).n_grid[0]),
    "ExperimentSpec.replicates": ("replicates", 1, lambda v: count_spec(replicates=v).replicates),
    "ExperimentSpec.seed_base": ("seed_base", 0, lambda v: count_spec(seed_base=v).seed_base),
    "DecorConfig.max_iter": ("max_iter", 1, lambda v: DecorConfig(max_iter=v).max_iter),
    "torrent max_iter": ("max_iter", 1, lambda v: torrent(COUNT_PROBLEM, 0.7, v).iterations),
    "hard_threshold a": ("a", 1, lambda v: len(hard_threshold(np.arange(9.0), v))),
    "candidate_sets_all_of_size n": ("n", 1, lambda v: len(candidate_sets_all_of_size(v, 1))),
    "candidate_sets_all_of_size size": (
        "size", 1, lambda v: candidate_sets_all_of_size(8, v).shape[1]
    ),
}
# spellings of the count 8
ACCEPTED_COUNTS = [8, np.int64(8), np.uint16(8), 8.0, np.float32(8.0), np.float64(8.0)]
# never truncated, rounded or passed on to fail later
REJECTED_COUNTS = [8.5, 1.5, np.float64(2.5), math.nan, math.inf, True, np.True_, "8", None]


class TestCountRule:
    @pytest.mark.parametrize("value", ACCEPTED_COUNTS, ids=repr)
    @pytest.mark.parametrize("entry", COUNTS)
    def test_accepted_everywhere(self, entry, value):
        _, _, call = COUNTS[entry]
        kept = call(value)
        assert type(kept) is int and kept == call(8)

    @pytest.mark.parametrize("value", REJECTED_COUNTS, ids=repr)
    @pytest.mark.parametrize("entry", COUNTS)
    def test_rejected_everywhere(self, entry, value):
        name, _, call = COUNTS[entry]
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got "):
            call(value)

    @pytest.mark.parametrize("entry", COUNTS)
    def test_least_value(self, entry):
        name, low, call = COUNTS[entry]
        assert call(low) >= low
        with pytest.raises(ConfigurationError, match=f"^{name} must be >= {low}$"):
            call(low - 1)


ACCEPTED_TOLERANCES = [1e-10, 1e-300, 0.5, np.float32(1e-3)]
REJECTED_TOLERANCES = [0.0, -1.0, math.nan, math.inf, -math.inf]


class TestToleranceRule:
    @pytest.mark.parametrize("tol", ACCEPTED_TOLERANCES, ids=repr)
    def test_accepted_everywhere(self, tol):
        check_orthonormality(build_basis("cosine", 8), tol)
        assert main(["check-basis", "--kind", "cosine", "--n", "8", f"--tol={tol}"]) in (0, 1)

    @pytest.mark.parametrize("tol", REJECTED_TOLERANCES, ids=repr)
    def test_rejected_everywhere(self, tol, capsys):
        message = f"tol must be positive, got {tol}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            check_orthonormality(build_basis("cosine", 8), tol)
        assert main(["check-basis", "--kind", "cosine", "--n", "8", f"--tol={tol}"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


# every real-valued field, checked by the one test for a real number (``is_real``) before
# its range; each call takes the value under test
REAL_FIELDS = {
    "sigma_eta2": lambda v: SimConfig(n=8, sigma_eta2=v),
    "conf_prob": lambda v: SimConfig(n=8, conf_prob=v),
    "horizon": lambda v: SimConfig(n=8, horizon=v),
    "dense_u_noise_std": lambda v: SimConfig(n=8, dense_u_noise_std=v),
    "OU sigma": lambda v: OUProcess(sigma=v),
    "OU drift": lambda v: OUProcess(drift=v),
    "coefficient std": lambda v: BandLimitedProcess(coeff_std=v),
    "tol": lambda v: check_orthonormality(build_basis("cosine", 8), tol=v),
}

# (field, value): each raised a comparison TypeError, or constructed, before the rule
NON_REALS = [
    ("sigma_eta2", "1"),
    ("conf_prob", "0.5"),
    ("horizon", "1"),
    ("dense_u_noise_std", None),
    ("OU sigma", "1"),
    ("OU drift", "-1"),
    ("tol", "1e-9"),
    ("conf_prob", True),
    ("sigma_eta2", True),
    ("coefficient std", True),
]


class TestRealNumberRule:
    @pytest.mark.parametrize("field, value", NON_REALS, ids=repr)
    def test_non_real_rejected(self, field, value):
        message = f"{field} must be a real number, got {value!r}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            REAL_FIELDS[field](value)

    @pytest.mark.parametrize("field", [*REAL_FIELDS, "beta", "beta sequence"])
    def test_int_beyond_float_range_rejected(self, field):
        # float() of the int raised a bare OverflowError
        value = -(10**400) if field == "OU drift" else 10**400
        calls = {
            **REAL_FIELDS,
            "beta": lambda v: SimConfig(n=8, beta=v),
            "beta sequence": lambda v: SimConfig(n=8, d=2, beta=(1.0, v)),
        }
        name = field.removesuffix(" sequence")
        with pytest.raises(ConfigurationError, match=f"^{name} must lie in float range$"):
            calls[field](value)

    @pytest.mark.parametrize("field", REAL_FIELDS)
    def test_numpy_real_accepted(self, field):
        value = np.float32(-0.5) if field == "OU drift" else np.float32(0.5)
        REAL_FIELDS[field](value)


class TestRejectedAtConstruction:
    @pytest.mark.parametrize("field", ["u_process", "eps_process"])
    def test_process_must_be_a_process(self, field):
        with pytest.raises(ConfigurationError, match="^unknown process kind: 'band'$"):
            SimConfig(n=8, **{field: "band"})

    def test_experiment_needs_a_method(self):
        with pytest.raises(ValueError, match="^methods must be non-empty$"):
            count_spec(methods=())

    def test_deconfound_horizon_must_be_finite(self, tmp_path, capsys):
        x, y, _ = generate(SimConfig(n=16, seed=1))
        data, prefix = tmp_path / "data.csv", tmp_path / "report"
        write_series_csv(data, np.arange(16.0), x, y)
        args = ["deconfound", "--input", str(data), "--horizon", "inf", "--out", str(prefix)]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: --horizon must be positive, got inf\n"
        assert not (tmp_path / "report_fitted.csv").exists()


# the three rules as they read with no exact-type fast path, by the numbers ABCs alone
def abc_is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def abc_check_count(name, value, low=1):
    if not (abc_is_real(value) and (
        isinstance(value, numbers.Integral) or float(value).is_integer()
    )):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigurationError(f"{name} must be >= {low}")
    return int(value)


def abc_resolve_count(a, n):
    if not abc_is_real(a):
        raise ValueError(f"threshold must be a count or a fraction, not {type(a).__name__}: {a!r}")
    if isinstance(a, numbers.Integral) or (
        isinstance(a, (float, np.floating)) and a > 1 and float(a).is_integer()
    ):
        count = int(a)
    elif 0 < a <= 1:
        num, den = Decimal(repr(float(a))).as_integer_ratio()
        count = -(-num * n // den)
    else:
        raise ValueError(f"threshold must be a count in 1..{n} or a fraction in (0,1], got {a}")
    if not 1 <= count <= n:
        raise ValueError(f"threshold count {count} out of range 1..{n}")
    return count


class Count(int):
    """An int subclass: not an exact int, so it takes the general path."""


# exact ints and floats, which take the fast paths, and values that must not
FAST_PATH_VALUES = [
    0, 1, 8, 16, 17, -3, 2**70, -(2**70),
    0.0, 0.7, 1.0, 8.0, 8.5, 1e300, -0.5, math.nan, math.inf, -math.inf,
    Count(8), Count(0), np.int64(8), np.int64(-1), np.float64(0.7), np.float32(8.0),
    True, False, np.True_, Fraction(7, 10), Decimal("8"), "8", None,
]


def outcome(call, *args):
    """``call``'s result with its type, or its error's type and message."""
    try:
        result = call(*args)
    except (ValueError, TypeError) as e:
        return type(e), str(e)
    return type(result), result


class TestExactTypeFastPaths:
    @pytest.mark.parametrize("value", FAST_PATH_VALUES, ids=repr)
    def test_same_verdict_as_the_abc_rules(self, value):
        assert is_real(value) is abc_is_real(value)
        for low in 0, 1:
            expected = outcome(abc_check_count, "n", value, low)
            assert outcome(check_count, "n", value, low) == expected
        for n in 8, 16, 2**70:
            assert outcome(resolve_count, value, n) == outcome(abc_resolve_count, value, n)

    @pytest.mark.parametrize("n", [8, 12, 16, 100])
    @pytest.mark.parametrize("a", [0.7, 0.55, 0.3, 0.05, 1.0, np.float64(0.3), Fraction(7, 10)])
    def test_a_hoisted_count_resolves_to_itself(self, a, n):
        # run_experiment hands each cell's fits resolve_count(a, n) in place of a
        count = resolve_count(a, n)
        assert type(count) is int and resolve_count(count, n) == count
