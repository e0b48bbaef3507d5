"""Basis construction, transform correctness, and orthonormality diagnostics."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from deconfound import basis as basis_module
from deconfound import (
    BasisKind,
    BasisMatrix,
    ConfigurationError,
    DecorConfig,
    SimConfig,
    build_basis,
    check_orthonormality,
    decor_fit,
    generate,
    inverse_transform,
    transform,
)

EPS = np.finfo(float).eps


def naive_transform(series, basis):
    """Independent double-loop evaluation of the analysis transform."""
    series = np.atleast_2d(np.asarray(series, dtype=float).T).T
    n, d = series.shape
    out = np.zeros((n, d))
    for k in range(n):
        for c in range(d):
            acc = 0.0
            for l in range(n):
                acc += series[l, c] * basis.matrix[l, k]
            out[k, c] = acc / n
    return out


class TestConstruction:
    def test_cosine_n1_is_identity(self):
        b = build_basis(BasisKind.COSINE, 1)
        assert b.matrix.shape == (1, 1)
        assert b.matrix[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_cosine_4_orthonormal_tight(self):
        b = build_basis(BasisKind.COSINE, 4)
        gram = b.matrix.T @ b.matrix / 4
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_cosine_first_column_is_ones(self):
        b = build_basis(BasisKind.COSINE, 16)
        assert np.allclose(b.matrix[:, 0], 1.0, atol=1e-15)

    def test_haar_8_direct_matrix_properties(self):
        b = build_basis(BasisKind.HAAR, 8)
        # scripted oracle: direct matrix computations
        gram = b.matrix.T @ b.matrix / 8
        assert np.max(np.abs(gram - np.eye(8))) < 1e-12
        sums = b.matrix[:, 1:].sum(axis=0)
        assert np.max(np.abs(sums)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 64, 120, 257, 512, 1024])
    def test_cosine_orthonormal_sweep(self, n):
        b = build_basis(BasisKind.COSINE, n)
        ok, dev = check_orthonormality(b, tol=1e-10)
        assert ok, f"n={n} deviation {dev}"

    @pytest.mark.parametrize("m", range(1, 11))
    def test_haar_orthonormal_powers_of_two(self, m):
        b = build_basis(BasisKind.HAAR, 2**m)
        ok, dev = check_orthonormality(b, tol=1e-10)
        assert ok, f"n=2^{m} deviation {dev}"

    def test_haar_rejects_non_power_of_two(self):
        for kind in BasisKind.HAAR, "haar":
            with pytest.raises(ConfigurationError, match="power of two"):
                build_basis(kind, 24)

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            build_basis(BasisKind.COSINE, 0)

    def test_basis_is_its_kind_and_size(self):
        b = build_basis(BasisKind.COSINE, 8)
        assert b == BasisMatrix("cosine", 8) and hash(b) == hash(BasisMatrix("cosine", 8))
        assert b != BasisMatrix(BasisKind.HAAR, 8)
        for name in ("kind", "n", "matrix"):
            with pytest.raises(AttributeError):
                setattr(b, name, None)

    def test_matrix_is_readonly(self):
        b = build_basis(BasisKind.COSINE, 8)
        with pytest.raises(ValueError):
            b.matrix[0, 0] = 2.0

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_shared_up_to_the_dense_cutoff_only(self, kind):
        # one object per (kind, n) up to 256 points, so its matrix is built once; above, no
        # cache keeps the basis, so its matrix goes with the last reference to it
        assert build_basis(kind, 256) is build_basis(kind.value, 256.0)
        b = build_basis(kind, 512)
        assert b.matrix.shape == (512, 512) and build_basis(kind, 512) is not b
        gone = weakref.ref(b)
        del b
        gc.collect()
        assert gone() is None

    @pytest.mark.parametrize(
        "kind, n",
        [(BasisKind.COSINE, n) for n in (1, 8, 100, 256)]
        + [(BasisKind.HAAR, n) for n in (1, 8, 256)],
    )
    def test_shared_matrix_cannot_be_made_writable(self, kind, n):
        # up to 256 points one array serves every basis of (kind, n), so a write would reach all
        v = np.arange(float(n))
        want = transform(v, build_basis(kind, n))
        m = build_basis(kind, n).matrix
        for array in (m, m.base):
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.setflags(write=True)
        assert transform(v, build_basis(kind, n)).tobytes() == want.tobytes()


class TestTransform:
    def test_constant_series_hits_first_component(self):
        b = build_basis(BasisKind.COSINE, 16)
        c = 2.75
        f = transform(np.full(16, c), b)
        assert f[0] == pytest.approx(c, abs=1e-12)
        assert np.max(np.abs(f[1:])) < 1e-12

    def test_basis_column_maps_to_unit_coordinate(self):
        b = build_basis(BasisKind.COSINE, 12)
        for k in (0, 3, 11):
            f = transform(b.matrix[:, k], b)
            e = np.zeros(12)
            e[k] = 1.0
            assert np.max(np.abs(f - e)) < 1e-12

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(42)
        b = build_basis(BasisKind.COSINE, 8)
        series = rng.normal(size=(8, 2))
        assert np.max(np.abs(transform(series, b) - naive_transform(series, b))) < 1e-12

    def test_matches_naive_double_loop_haar(self):
        rng = np.random.default_rng(43)
        b = build_basis(BasisKind.HAAR, 16)
        series = rng.normal(size=(16, 3))
        assert np.max(np.abs(transform(series, b) - naive_transform(series, b))) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(7)
        b = build_basis(BasisKind.COSINE, 32)
        u, v = rng.normal(size=32), rng.normal(size=32)
        a, c = rng.normal(), rng.normal()
        lhs = transform(a * u + c * v, b)
        rhs = a * transform(u, b) + c * transform(v, b)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(8)
        for kind, n in [(BasisKind.COSINE, 50), (BasisKind.HAAR, 64)]:
            b = build_basis(kind, n)
            v = rng.normal(size=n)
            lhs = np.sum(transform(v, b) ** 2)
            rhs = np.sum(v**2) / n
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(9)
        b = build_basis(BasisKind.COSINE, 16)
        v = rng.normal(size=(16, 1))
        assert np.max(np.abs(inverse_transform(transform(v, b), b) - v)) < 1e-9

    def test_inverse_of_first_unit_vector_is_ones(self):
        b = build_basis(BasisKind.COSINE, 10)
        e1 = np.zeros(10)
        e1[0] = 1.0
        assert np.allclose(inverse_transform(e1, b), 1.0, atol=1e-12)

    def test_sparse_coefficients_round_trip_support(self):
        b = build_basis(BasisKind.COSINE, 16)
        freq = np.zeros(16)
        freq[[1, 4]] = [1.3, -0.7]  # 1-based support {2, 5}
        back = transform(inverse_transform(freq, b), b)
        support = np.where(np.abs(back) > 1e-10)[0]
        assert list(support) == [1, 4]

    def test_dimension_mismatch_rejected(self):
        b = build_basis(BasisKind.COSINE, 8)
        with pytest.raises(ValueError):
            transform(np.zeros(7), b)
        with pytest.raises(ValueError):
            inverse_transform(np.zeros((9, 2)), b)
        # above 256 points the DCT takes any length, so only the row check rejects these
        b = build_basis(BasisKind.COSINE, 512)
        for rows in 511, 513:
            for apply in transform, inverse_transform:
                with pytest.raises(ValueError, match="must have 512 rows"):
                    apply(np.zeros(rows), b)


class TestDiagnostics:
    def test_zeroed_column_detected(self):
        b = BasisMatrix(BasisKind.COSINE, 8)  # its own object, not the one build_basis shares
        m = b.matrix.copy()
        m[:, 3] = 0.0
        vars(b)["matrix"] = m  # where the cached matrix lives
        ok, dev = check_orthonormality(b, tol=1e-10)
        assert not ok
        assert dev == pytest.approx(1.0, abs=1e-12)


class TestFastTransforms:
    """Above 256 points the transforms use no matrix; the dense product is the reference."""

    @pytest.mark.parametrize(
        "kind, n",
        [(BasisKind.COSINE, n)
         for n in [*range(250, 263), 300, 511, 512, 513, 1000, 1009, 1023, 1024, 1031]]
        + [(BasisKind.HAAR, n) for n in (512, 1024, 2048)],
    )
    def test_parity_with_dense_product(self, kind, n):
        rng = np.random.default_rng(n)
        b = build_basis(kind, n)
        m = b.matrix
        for shape in [(n,), (n, 1), (n, 3)]:
            v = rng.normal(size=shape)
            for fast, dense in [(transform(v, b), m.T @ v / n), (inverse_transform(v, b), m @ v)]:
                assert fast.shape == dense.shape
                assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n", [2**k for k in range(1, 13)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_haar_synthesis_matches_the_stacked_pyramid_bit_for_bit(self, n, d):
        # the kernel writes each level's sums and differences into the even and odd rows of
        # one array; the pyramid as first written stacked them, with the same arithmetic
        def stacked(c):
            path = c[:1]
            while len(path) < c.shape[0]:
                half = len(path)
                detail = c[half : 2 * half] * 2.0 ** ((half.bit_length() - 1) / 2.0)
                path = np.stack([path + detail, path - detail], axis=1).reshape(2 * half, -1)
            return path

        c = np.random.default_rng(n + d).normal(size=(n, d))
        got = basis_module._haar_synthesis(c)
        assert got.shape == (n, d) and got.tobytes() == stacked(c).tobytes()

    @pytest.mark.parametrize("n", [257, 1000, 1009, 2**15])
    def test_cosine_kernels_match_scipy_dct(self, n):
        # an independent FFT's orthonormal DCT-II / DCT-III, rescaled to this basis
        import scipy.fft

        v = np.random.default_rng(n).normal(size=(n, 2))
        b = build_basis(BasisKind.COSINE, n)
        for fast, oracle in [
            (transform(v, b), scipy.fft.dct(v, type=2, norm="ortho", axis=0) / np.sqrt(n)),
            (inverse_transform(v, b), scipy.fft.idct(v, type=2, norm="ortho", axis=0) * np.sqrt(n)),
        ]:
            assert np.max(np.abs(fast - oracle)) <= 64 * EPS * np.max(np.abs(oracle))

    @pytest.mark.parametrize("exponent", [600, -600])
    @pytest.mark.parametrize("n", [1000, 1009])
    def test_cosine_kernels_scale_exactly_by_a_power_of_two(self, n, exponent):
        v = np.random.default_rng(n).normal(size=(n, 2))
        b = build_basis(BasisKind.COSINE, n)
        m = b.matrix
        for f, dense in [(transform, m.T @ v / n), (inverse_transform, m @ v)]:
            plain = f(v, b)
            assert np.max(np.abs(plain - dense)) <= 1e-12 * np.max(np.abs(dense))
            assert f(2.0**exponent * v, b).tobytes() == (2.0**exponent * plain).tobytes()

    def test_rotation_cache_keeps_two_sizes(self):
        assert basis_module._rotations.cache_info().maxsize == 2
        basis_module._rotations.cache_clear()
        for n in (300, 301, 302, 300):
            b = build_basis(BasisKind.COSINE, n)
            v = np.random.default_rng(n).normal(size=n)
            for f, dense in [(transform, b.matrix.T @ v / n), (inverse_transform, b.matrix @ v)]:
                assert np.max(np.abs(f(v, b) - dense)) <= 1e-12 * np.max(np.abs(dense))
            assert basis_module._rotations.cache_info().currsize <= 2
        # 302 evicted 300, so 300 was built again: four misses, and a hit per inverse
        assert basis_module._rotations.cache_info()[:2] == (4, 4)

    def test_kind_given_by_name(self):
        # a kind given by its name is that kind: above 256 points a transform reads the kind
        v = np.random.default_rng(5).normal(size=(512, 2))
        want = transform(v, build_basis(BasisKind.COSINE, 512))
        assert transform(v, build_basis("cosine", 512)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", [BasisKind.COSINE, BasisKind.HAAR])
    def test_fit_at_4096_forms_no_dense_matrix(self, kind):
        # one 4096 x 4096 matrix of doubles is 128 MiB
        x, y, _ = generate(SimConfig(n=4096, basis_kind=kind, seed=3))
        tracemalloc.start()
        try:
            decor_fit(x, y, DecorConfig(basis_kind=kind))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_matrix_built_on_first_read(self):
        b = build_basis(BasisKind.COSINE, 2048)
        tracemalloc.start()
        try:
            b.matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak >= 2048 * 2048 * 8
        assert b.matrix is b.matrix and not b.matrix.flags.writeable

    @pytest.mark.parametrize("kind, n", [(BasisKind.COSINE, 1000), (BasisKind.HAAR, 1024)])
    def test_rerun_from_seed_is_bit_identical(self, kind, n):
        runs = []
        for _ in range(2):
            x, y, truth = generate(SimConfig(n=n, basis_kind=kind, seed=11))
            est = decor_fit(x, y, DecorConfig(basis_kind=kind))
            runs.append((x, y, truth.u_time, est.beta, est.inliers, est.fitted_time_domain))
        for first, second in zip(*runs):
            assert np.array_equal(first, second)
