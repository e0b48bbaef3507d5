"""Orthonormal bases and the forward/inverse analysis transform.

The basis matrix ``Phi`` holds one basis function per column, evaluated at the
n sample points, and is normalized so that ``(1/n) Phi.T @ Phi = I`` exactly
(orthonormality under the empirical inner product ``<u, v> = (1/n) sum u_l v_l``).
The analysis transform of a series ``v`` is ``(1/n) Phi.T @ v``; synthesis is
``Phi @ coeffs``.

Two basis families are provided:

* cosine — the type-II discrete cosine system,
  ``Phi[j, k] = c_k cos(pi k (j + 1/2) / n)`` with ``c_0 = 1`` and
  ``c_k = sqrt(2)`` for ``k >= 1`` (0-based ``j, k``).  Sampling the continuous
  cosine functions on a regular grid instead would violate discrete
  orthonormality at order 1/n, so the discrete system is used directly.
* haar — the full orthonormal Haar wavelet system (constant function plus all
  dyadic dilates and translates of the mother wavelet); requires n to be a
  power of two.

Transform cost: up to ``DENSE_MAX_N`` = 256 points the transforms multiply by the matrix of the
basis ``build_basis`` shares per (kind, n), by ``np.dot`` (see ``robust``).  Above that no n x n
matrix is formed: the cosine transforms are a DCT-II/DCT-III computed by one real FFT of
``numpy.fft`` on the reordered series (Makhoul 1980), O(n log n), and the Haar transforms are a
pairwise sum/difference pyramid (Mallat 1989), O(n), whose synthesis fills one array per level
(38 µs at n = 1024, d = 1).  The cutoff is where the two cost the same: below it the FFT's fixed
cost of about 10 µs per call dominates, at n = 1024 it is 35-70x faster than the product.  Only
the FFT's per-frequency factors are kept, for the last two sizes.

A basis is its kind and its size n and nothing else: ``build_basis(kind, n)``
is O(1), and ``BasisMatrix.matrix`` is built only when it is read.

Frequency indices are 1-based everywhere in the public API: index 1 is the
constant (lowest-frequency) function.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, check_count, check_positive, frozen

DENSE_MAX_N = 256  # largest n transformed by a matrix product; see the module docstring


class BasisKind(str, enum.Enum):
    """Supported orthonormal basis families."""

    COSINE = "cosine"
    HAAR = "haar"


@dataclass(frozen=True)
class BasisMatrix:
    """The n-point orthonormal basis of one kind; the pair ``(kind, n)`` is all of it.

    Immutable.  ``matrix`` is the n x n matrix ``Phi``, built when first read and
    kept on this object.

    Raises
    ------
    ConfigurationError
        If ``n < 1``, or ``kind`` is Haar and ``n`` is not a power of two.
    """

    kind: BasisKind
    n: int

    def __post_init__(self):
        object.__setattr__(self, "kind", BasisKind(self.kind))
        object.__setattr__(self, "n", check_count("n", self.n))
        if self.kind is BasisKind.HAAR and not _is_power_of_two(self.n):
            raise ConfigurationError(
                f"the Haar basis requires the sample count to be a power of two, got n={self.n}"
            )

    @cached_property
    def matrix(self) -> np.ndarray:
        """The n x n matrix ``Phi``, read-only, and frozen where ``build_basis`` shares it."""
        m = _haar_matrix(self.n) if self.kind is BasisKind.HAAR else _cosine_matrix(self.n)
        m.setflags(write=False)
        return frozen(m) if self.n <= DENSE_MAX_N else m


class OrthonormalityCheck(NamedTuple):
    """Result of an orthonormality diagnostic."""

    ok: bool
    max_deviation: float


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _cosine_matrix(n: int) -> np.ndarray:
    j = np.arange(n) + 0.5
    k = np.arange(n)
    m = np.cos(np.pi * np.outer(j, k) / n)
    m[:, 1:] *= np.sqrt(2.0)
    return m


def _haar_amplitude(level: int) -> float:
    return 2.0 ** (level / 2.0)


def _haar_matrix(n: int) -> np.ndarray:
    m = np.empty((n, n))
    m[:, 0] = 1.0
    col = 1
    level = 0
    while (1 << level) < n:
        width = n >> level
        half = width // 2
        amp = _haar_amplitude(level)
        for q in range(1 << level):
            lo = q * width
            m[:, col] = 0.0
            m[lo : lo + half, col] = amp
            m[lo + half : lo + width, col] = -amp
            col += 1
        level += 1
    return m


def build_basis(kind: BasisKind, n: int) -> BasisMatrix:
    """The n-point basis of the given kind; O(1), the matrix is built on first read.

    Up to ``DENSE_MAX_N`` one object per (kind, n) is shared, the last 64 asked for kept;
    a larger basis is new on every call, so no cache keeps a matrix above 256 x 256.

    Raises
    ------
    ConfigurationError
        If ``n < 1``, or ``kind`` is Haar and ``n`` is not a power of two.
    """
    kind, n = BasisKind(kind), check_count("n", n)  # checked before the lookup
    return _small_basis(kind, n) if n <= DENSE_MAX_N else BasisMatrix(kind, n)


@lru_cache(maxsize=64)  # at most 64 matrices, once read, of at most 512 KiB each
def _small_basis(kind: BasisKind, n: int) -> BasisMatrix:
    return BasisMatrix(kind, n)


def _as_columns(series: np.ndarray, n: int, what: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(series, dtype=float)
    was_1d = arr.ndim == 1
    if was_1d:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ValueError(
            f"{what} must have {n} rows to match the basis, got shape {np.shape(series)}"
        )
    return arr, was_1d


def _haar_analysis(v: np.ndarray) -> np.ndarray:
    """``(1/n) Phi.T @ v`` for the Haar matrix: a pairwise sum/difference pyramid.

    Each pass turns block sums of width w into the wavelet coefficients of
    width 2w (difference of neighbouring sums) and the block sums of width 2w.
    """
    n = v.shape[0]
    out = np.empty_like(v)
    sums = v
    while len(sums) > 1:
        half = len(sums) // 2  # 2**level wavelets at this level
        amp = _haar_amplitude(half.bit_length() - 1)
        out[half : 2 * half] = (sums[0::2] - sums[1::2]) * (amp / n)
        sums = sums[0::2] + sums[1::2]
    out[0] = sums[0] / n
    return out


def _haar_synthesis(c: np.ndarray) -> np.ndarray:
    """``Phi @ c`` for the Haar matrix: the pyramid of :func:`_haar_analysis` reversed."""
    path = c[:1]
    while len(path) < c.shape[0]:
        half = len(path)
        detail = c[half : 2 * half] * _haar_amplitude(half.bit_length() - 1)
        path, prev = np.empty((2 * half, c.shape[1])), path
        np.add(prev, detail, out=path[0::2])
        np.subtract(prev, detail, out=path[1::2])
    return path


@lru_cache(maxsize=2)  # O(n) each; a sweep or a CLI fit reuses one n
def _rotations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-frequency factors of the cosine kernels for k = 0..n//2, scalings folded in.

    ``forward[k] = c_k / n * exp(-i pi k / 2n)`` turns the FFT of the reordered
    series into the analysis coefficients; ``inverse[k] = exp(i pi k / 2n) / c_k``
    turns coefficients back into the spectrum of the reordered series.
    """
    turn = np.exp(-0.5j * np.pi / n * np.arange(n // 2 + 1))
    forward = turn * (math.sqrt(2.0) / n)
    forward[0] = 1.0 / n
    inverse = turn.conj() / math.sqrt(2.0)
    inverse[0] = 1.0
    forward.setflags(write=False)  # shared by every caller of this n
    inverse.setflags(write=False)
    return forward, inverse


def _cosine_analysis(v: np.ndarray) -> np.ndarray:
    """``(1/n) Phi.T @ v`` for the cosine matrix: one real FFT of n points (Makhoul 1980).

    The even rows in order, then the odd rows reversed, form a series whose FFT,
    turned by ``exp(-i pi k / 2n)``, holds coefficient k in its real part and
    coefficient n - k in minus its imaginary part.  The work runs on the transposed
    (d, n) array, so that each FFT reads and writes contiguous memory.
    """
    n, d = v.shape
    half, m = (n + 1) // 2, n // 2 + 1
    w = np.empty((d, n))
    w[:, :half] = v[0::2].T
    w[:, half:] = v[1::2][::-1].T
    z = np.fft.rfft(w)
    z *= _rotations(n)[0]
    w[:, :m] = z.real
    np.negative(z.imag[:, half - 1 : 0 : -1], out=w[:, m:])
    return w.T


def _cosine_synthesis(c: np.ndarray) -> np.ndarray:
    """``Phi @ c`` for the cosine matrix: :func:`_cosine_analysis` run backwards."""
    n, d = c.shape
    half, m = (n + 1) // 2, n // 2 + 1
    z = np.empty((d, m), dtype=complex)
    z.real = c[:m].T
    z.imag[:, 0] = 0.0
    np.negative(c[: half - 1 : -1].T, out=z.imag[:, 1:])
    z *= _rotations(n)[1]
    w = np.fft.irfft(z, n, norm="forward")
    out = np.empty((d, n))
    out[:, 0::2] = w[:, :half]
    out[:, 1::2] = w[:, : half - 1 : -1]
    return out.T


def transform(series: np.ndarray, basis: BasisMatrix) -> np.ndarray:
    """Analysis transform: component k of the output is (1/n) sum_l v_l Phi[l, k].

    Accepts an (n,) vector or an (n, d) matrix (column-wise transform) and
    returns the same shape.
    """
    arr, was_1d = _as_columns(series, basis.n, "series")
    if basis.n <= DENSE_MAX_N:
        out = np.dot(basis.matrix.T, arr)
        out /= basis.n
    elif basis.kind is BasisKind.COSINE:
        out = _cosine_analysis(arr)
    else:
        out = _haar_analysis(arr)
    return out[:, 0] if was_1d else out


def inverse_transform(freq: np.ndarray, basis: BasisMatrix) -> np.ndarray:
    """Synthesis transform ``Phi @ freq``; the left inverse of :func:`transform`."""
    arr, was_1d = _as_columns(freq, basis.n, "coefficients")
    if basis.n <= DENSE_MAX_N:
        out = np.dot(basis.matrix, arr)
    elif basis.kind is BasisKind.COSINE:
        out = _cosine_synthesis(arr)
    else:
        out = _haar_synthesis(arr)
    return out[:, 0] if was_1d else out


def check_orthonormality(basis: BasisMatrix, tol: float = 1e-10) -> OrthonormalityCheck:
    """Check ``(1/n) Phi.T Phi = I`` entrywise within ``tol``.

    Returns the pass/fail flag together with the worst entrywise deviation,
    which is useful for diagnosing hand-built or corrupted matrices.  ``tol``
    must be positive and finite (``ConfigurationError`` otherwise).
    """
    check_positive("tol", tol)
    n, m = basis.n, basis.matrix
    gram = np.dot(m.T, m) / n
    dev = float(np.max(np.abs(gram - np.eye(n))))
    return OrthonormalityCheck(ok=dev <= tol, max_deviation=dev)

