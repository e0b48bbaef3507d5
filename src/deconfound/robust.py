"""Robust linear regression under adversarial outliers.

Implements least squares with a pseudo-inverse fallback, hard thresholding,
the iterative hard-thresholding estimator (Torrent), exhaustive subset search
(BFS), and the subset spectral-ratio diagnostic used to certify when iterative
hard thresholding provably recovers the true coefficients.

Row indices in subsets are 1-based throughout, matching the frequency-index convention of the
rest of the package.  Every array product is an ``np.dot``, never ``@``: for a one-column design
matmul runs its own loop, where np.dot calls BLAS with the same bits, 3.6 vs 0.7 µs at n = 1000.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Sequence

import numpy as np

from .errors import FeasibilityError, check_count, frozen, is_real

SUBSET_ENUMERATION_CAP = 10_000_000
_MASK_ENTRIES = 1 << 17  # the most entries of any 0/1 row mask built here: 1 MiB of float64
_EPS = float(np.finfo(float).eps)  # a Python float, which one-system arithmetic keeps fast


@dataclass(frozen=True)
class RegressionProblem:
    """An immutable (X, y) regression instance with finite entries.

    ``x`` is coerced to an (n, d) matrix (a 1-d input becomes a single
    column); ``y``, of shape (n,) or (n, 1), to an (n,) vector.  The private
    ``_scale`` holds the exponents ``(ex, ey)`` that ``_scaled`` fits them at.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        # copy so marking the arrays read-only cannot affect caller-owned data
        x, y, scale = _design(np.array(self.x, dtype=float, copy=True), self.y)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_scale", scale)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class RobustFit:
    """Result of a robust (or plain) regression fit.

    ``inliers`` is the final active set (1-based, sorted).  ``iterations`` is
    the number of least-squares refits performed; it is 0 for the one-shot
    methods (OLS, BFS).  ``converged`` is False only when the iteration cap
    was reached.  ``stop_reason`` is why the fit stopped: ``"fixed_point"``,
    ``"no_decrease"`` or ``"max_iter"`` (``torrent``), or ``"one_shot"`` (OLS, BFS).
    """

    beta: np.ndarray
    inliers: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    method: str
    stop_reason: str


def _design(x, y) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """``x`` as an (n, d) float matrix (a 1-d input is one column) and ``y`` as a new (n,)
    vector, both finite, with the ``_scale_exponent`` of each: the input rule of
    ``RegressionProblem``, which ``decor_fit`` applies before its transform so that no
    non-finite value is multiplied.  One read of the largest magnitudes serves both."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = _as_vector(y, "y")
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"x must be a nonempty 2-d matrix, got shape {x.shape}")
    if y.shape[0] != x.shape[0]:
        raise ValueError(
            f"y must have one entry per row of x: {y.shape[0]} != {x.shape[0]}"
        )
    tops = float(np.abs(x).max()), float(np.abs(y).max())  # NaN if any entry is NaN
    if not (tops[0] < np.inf and tops[1] < np.inf):
        raise ValueError("x and y must be finite (no NaN/Inf)")
    return x, y, (_scale_exponent(tops[0]), _scale_exponent(tops[1]))


def _as_vector(values, what: str) -> np.ndarray:
    """A new float vector from shape (n,), or (n, 1) read as its column; no other shape passes."""
    v = np.array(values, dtype=float)
    if v.ndim != 1 and v.shape[1:] != (1,):
        raise ValueError(f"{what} must have shape (n,) or (n, 1), got shape {v.shape}")
    return v.reshape(-1)


def _as_indices(values, what: str, error=ValueError) -> np.ndarray:
    """``values`` as an ``intp`` array, the cast of the one index-set rule: an integer
    array passes on its dtype alone, whole-number floats convert, anything else raises."""
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy builds no array from sequences of unequal lengths
        raise error(f"{what} indices must form a rectangular array, got a ragged one") from None
    if arr.dtype.kind in "iu":
        return arr.astype(np.intp, copy=False)
    if arr.dtype.kind != "f":
        raise error(f"{what} indices must be integers, got dtype {arr.dtype}")
    whole = (arr == np.floor(arr)) & (np.abs(arr) < 2**53)  # false for NaN and inf
    if not whole.all():
        raise error(f"{what} indices must be integers, got {arr[~whole].flat[0]}")
    return arr.astype(np.intp)


def _index_sets(values, what: str, ndim: int = 1, n: int | None = None, error=ValueError):
    """``values`` as an ``intp`` array under the one index-set rule.

    ``values`` is one set (``ndim`` 1: a subset, an inlier set, a band support) or a
    (C, s) array of sets (``ndim`` 2: candidate sets).  Each set is non-empty, lies in
    1..n (only ``>= 1`` when ``n`` is None: a band support meets its n later) and
    repeats no index; ``what`` names a set in the message of the ``error`` raised.
    Rows in increasing order, as ``candidate_sets_all_of_size`` gives them, pass the
    repeat test in one comparison over the flat array; only otherwise are rows sorted.
    """
    sets = _as_indices(values, what, error)
    if sets.ndim != ndim:
        raise error(f"{what} indices must form a {ndim}-d array, got shape {sets.shape}")
    s = sets.shape[-1]
    if s == 0:
        raise error(f"{what}s must be non-empty")
    if sets.min(initial=1) < 1 or n is not None and sets.max(initial=1) > n:
        raise error(f"{what} indices must lie in 1..{n or 'n'}")
    flat = sets.ravel()
    rising = flat[1:] > flat[:-1]
    rising[s - 1 :: s] = True  # the last entry of a row against the first of the next
    if not rising.all():
        ordered = np.sort(sets, axis=-1)
        if (ordered[..., 1:] == ordered[..., :-1]).any():
            raise error(f"{what}s must not repeat an index (indices must be distinct)")
    return sets


def _fit_result(problem, beta, method):
    """A one-shot ``RobustFit`` that keeps every row, with the residual norm of ``beta`` taken
    at the problem's fitting scale (``_scaled``), so that it cannot overflow."""
    x, y, ex, ey = _scaled(problem)
    r = y - np.dot(x, _rescaled(beta, ex - ey))
    residual_norm = math.sqrt(np.dot(r, r))  # np.linalg.norm's sum, to the bit
    inliers = np.arange(1, problem.n + 1)
    return RobustFit(beta, inliers, 0, _rescaled(residual_norm, ey), True, method, "one_shot")


def _scale_exponent(top: float) -> int:
    """The e that puts 2^-e ``top`` in [0.5, 1) when a largest magnitude ``top`` lies outside
    [2^-500, 2^500], else 0 (for 0, inf and NaN too).  As LAPACK's ``dgelsd`` scales, an
    array scaled by the exact power 2^-e has no sum of squares or products out of range."""
    return math.frexp(top)[1] if 0.0 < top < 2.0**-500 or 2.0**500 < top < np.inf else 0


def _rescaled(value, e: int):
    """``value`` times 2^e, exactly, or ``value`` itself for e = 0."""
    return np.ldexp(value, e) if e else value


def _scaled(problem: RegressionProblem) -> tuple[np.ndarray, np.ndarray, int, int]:
    """``(2^-ex x, 2^-ey y, ex, ey)``: the problem at the scale ``torrent`` and ``bfs`` fit
    it, which is the problem itself whenever its magnitudes lie in [2^-500, 2^500]."""
    ex, ey = problem._scale
    return _rescaled(problem.x, -ex), _rescaled(problem.y, -ey), ex, ey


def _lstsq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # rcond=None zeroes singular values below max(n, d) * eps * sigma_max,
    # which is exactly the rank rule we promise; the solution is the
    # minimum-norm (pseudo-inverse) one when rank deficient.
    return np.linalg.lstsq(x, y, rcond=None)[0]


def ols(problem: RegressionProblem, subset: Sequence[int] | None = None) -> np.ndarray:
    """Least-squares coefficients on the given row subset (default: all rows).

    Uses the Moore-Penrose pseudo-inverse solution when the subset design is
    rank deficient, so a degenerate subset yields the minimum-norm fit rather
    than an error.
    """
    if subset is None:
        return _lstsq(problem.x, problem.y)
    rows = _index_sets(subset, "subset", n=problem.n)
    return _lstsq(problem.x[rows - 1], problem.y[rows - 1])


def hard_threshold(v: np.ndarray, a: int) -> np.ndarray:
    """Indices (1-based, ascending) of the ``a`` smallest entries of ``v``.

    Ties are broken toward the lower index (stable sort), which keeps the
    selection deterministic.  ``v`` has shape (n,) or (n, 1), as ``y`` does.
    """
    a = check_count("a", a)
    v = _as_vector(v, "v")
    n = v.shape[0]
    if a > n:
        raise ValueError(f"a must lie in 1..{n}, got {a}")
    return np.flatnonzero(_smallest(v, a)) + 1


def _smallest(v: np.ndarray, a: int) -> np.ndarray:
    """Mask of the ``a`` smallest entries, the set ``argsort(v, kind="stable")[:a]`` picks: the
    rows whose ``_moments`` a ``torrent`` refit sums.  No sort: the entries at most the a-th
    smallest t, less the highest-index ties at t beyond a; a NaN t bounds all, ties the NaNs."""
    t = v.copy()
    t.partition(a - 1)  # np.partition's copy and partition, without its Python wrapper
    t = t[a - 1]
    mask = v <= t if t == t else np.ones(v.shape, dtype=bool)
    extra = np.count_nonzero(mask) - a
    if extra:
        mask[np.flatnonzero(v == t if t == t else np.isnan(v))[-extra:]] = False
    return mask


def resolve_count(a: float | int, n: int) -> int:
    """Turn a threshold given as a count or a fraction into a row count.

    The one threshold rule.  An integer or an integral float above 1, Python's
    or numpy's, is a count in ``1..n``; any other real is a fraction in (0, 1],
    converted as ``ceil(a * n)`` exactly from the decimal ``a`` prints as: 0.55
    of 100 is 55.  Anything else (a bool, a string, a ``Decimal``) raises ``ValueError``.
    """
    if type(a) is int:  # a count, as run_experiment passes to every fit: no ABC check
        count = a
    elif not is_real(a):
        raise ValueError(f"threshold must be a count or a fraction, not {type(a).__name__}: {a!r}")
    elif isinstance(a, numbers.Integral) or (
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


def torrent(
    problem: RegressionProblem, a: float | int, max_iter: int = 100
) -> RobustFit:
    """Iterative hard-thresholding regression.

    Starting from the full index set, alternate a least-squares fit on the
    current active set with reselection of the ``a`` rows of smallest absolute
    residual, ties to the lower index as in ``hard_threshold``.  Stops at an
    active-set fixed point or as soon as the thresholded residual norm no
    longer strictly decreases; ``converged`` is False only if ``max_iter``
    refits were exhausted first.  ``stop_reason`` names the stop; a set that did
    not move is a ``"fixed_point"`` even if its norm did not fall either.

    Each refit sums its normal equations by one product of the active row mask with the
    ``_moments``, as ``bfs``'s screen and ``eta_condition`` do, and ``_solve`` solves them as one
    system on the lines of a screen's stack; only a singular Gram matrix gathers the active rows,
    for ``lstsq``.  Beta is off the exact fit of its kept rows by about eps cond(X)^2 relative,
    within 1e-12 up to cond(X) ~ 40 (ROADMAP item 14); an exact fit's kept rows, picked by rounding
    noise, may differ from ``lstsq``'s.  x or y whose largest magnitude leaves [2^-500, 2^500] is
    fitted scaled by a power of two (``_scaled``), so the fit is the same at any finite scale.

    Parameters
    ----------
    a : int or float
        Number of rows kept by each thresholding step, or a fraction of n
        (converted as ``ceil(a * n)``).
    """
    max_iter = check_count("max_iter", max_iter)
    n, d = problem.n, problem.d
    a_count = resolve_count(a, n)
    if a_count < d:
        warnings.warn(
            f"threshold a={a_count} keeps fewer rows than the {d} coefficients; "
            "fits will be rank deficient",
            stacklevel=2,
        )
    x, y, ex, ey = _scaled(problem)
    moments = _moments(x, y)
    active = np.ones(n, dtype=bool)
    rows, r_prev = n, math.sqrt(np.dot(y, y))  # np.linalg.norm's sum, to the bit
    stop_reason = "max_iter"
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        sums = np.dot(active, moments)
        _, singular, beta = _solve(sums[: d * d], sums[d * d : -1], rows)
        if singular:
            beta = _lstsq(x[active], y[active])
        v = np.abs(y - np.dot(x, beta))
        new_active = _smallest(v, a_count)
        kept = v[new_active]
        r_new = math.sqrt(np.dot(kept, kept))
        moved = new_active.tobytes() != active.tobytes()  # one memcmp, not two ufunc calls
        active, rows = new_active, a_count
        if not moved or r_new >= r_prev:
            stop_reason = "no_decrease" if moved else "fixed_point"
            break
        r_prev = r_new
    # r_new is the norm of beta's residuals on the returned active set
    return RobustFit(
        _rescaled(beta, ey - ex), active.nonzero()[0] + 1, iterations, _rescaled(r_new, ey),
        stop_reason != "max_iter", "Torrent", stop_reason,
    )


def _subsets(n: int, size: int, chunk: int):
    """The size-subsets of {1, ..., n} in lexicographic order, as read-only (<= chunk, size)
    ``intp`` arrays of 1-based sets: the one enumerator, of ``candidate_sets_all_of_size``
    and of ``eta_condition``."""
    subsets, total = combinations(range(1, n + 1), size), math.comb(n, size)
    for start in range(0, total, chunk):
        count = min(chunk, total - start)
        flat = chain.from_iterable(islice(subsets, count))
        sets = np.fromiter(flat, np.intp, count * size).reshape(count, size)
        sets.setflags(write=False)
        yield sets


def candidate_sets_all_of_size(n: int, size: int) -> np.ndarray:
    """All subsets of {1, ..., n} of the given size, in lexicographic order.

    Returns a read-only ``(C(n, size), size)`` integer array, one set per row.
    ``n`` and ``size`` are counts (``check_count``).  Sets that the memo rule admits
    (``_memo_entry``) come from the memo: a repeated request returns the same array while
    it is among the last 16 used; ``bfs`` screens that array with its memoised mask.

    Raises
    ------
    FeasibilityError
        If ``C(n, size)`` exceeds ``SUBSET_ENUMERATION_CAP``; exhaustive search is hopeless
        then and an iterative method (torrent) should be used instead.
    """
    n, size = check_count("n", n), check_count("size", size)
    if size > n:
        raise ValueError(f"size must lie in 1..{n}, got {size}")
    count = _enumeration_count(n, size)
    entry = _memo_entry(n, size, count)
    return entry[0] if entry else next(_subsets(n, size, count))


def _memo_entry(n: int, size: int, count: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The memo's sets and ``_row_mask`` of the size-subsets of 1..n if ``count`` is their number
    and their whole mask, count x n, fits in ``_MASK_ENTRIES`` (the memo rule), else None."""
    memoised = 1 <= size <= n and count == math.comb(n, size) and count * n <= _MASK_ENTRIES
    return _enumeration(n, size) if memoised else None


@lru_cache(maxsize=16)  # at most 16 x 2 MiB: a mask fits in _MASK_ENTRIES, and so do its sets
def _enumeration(n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The memo of ``_memo_entry``: building sets and mask costs more than fitting the sets."""
    sets = next(_subsets(n, size, math.comb(n, size)))
    return frozen(sets), frozen(_row_mask(sets, n))


def _enumeration_count(n: int, size: int) -> int:
    """C(n, size), or ``FeasibilityError`` above ``SUBSET_ENUMERATION_CAP``, read at call time:
    the one enumeration-cap rule, of every exhaustive search and of ``eta_condition``."""
    count, cap = math.comb(n, size), SUBSET_ENUMERATION_CAP
    if count > cap:
        raise FeasibilityError(
            f"C({n},{size}) = {count} subsets exceeds the cap of {cap}; too many to enumerate"
        )
    return count


def _singular(lam_min, lam_max, s: int, d: int):
    """Whether G's rounding, about max(s, d) * eps * lam_max, reaches lam_min (Python floats or
    arrays): the one singular rule, a superset of the sets ``_lstsq`` calls rank deficient."""
    return lam_max * max(s, d) * _EPS >= lam_min


def _hypot(u: float, v: float) -> float:
    return abs(complex(u, v))


def _solve(gram, b, s: int):
    """Ascending eigenvalues, ``_singular`` flag and G^-1 b of the normal equations G beta = b.

    ``gram`` is the symmetric d x d G row by row and ``b`` the right-hand side: 1-d for one system
    (a ``torrent`` refit), a column per set for a stack (``_screen``).  Both run the same lines: a
    division for d = 1, G's closed form for d = 2 (divided by lam_max first, so no product
    overflows), ``eigh`` beyond.  For d <= 2 one system runs in Python floats, faster than numpy
    scalars, with ``_hypot``: libm's hypot, as ``np.hypot``'s, so it gets its stacked column's bits
    (``math.hypot`` rounds its own way).  A singular G gets a finite, meaningless G^-1 b."""
    d = len(b)
    if d > 2:
        lam, vec = np.linalg.eigh(np.moveaxis(gram, 0, -1).reshape(*gram.shape[1:], d, d))
        singular = _singular(lam[..., 0], lam[..., -1], s, d)
        proj = np.einsum("...ji,j...->...i", vec, b) / np.where(singular[..., None], 1.0, lam)
        return lam, singular, np.einsum("...ij,...j->i...", vec, proj)
    gs, bs, hypot = (gram, b, np.hypot) if gram.ndim > 1 else (gram.tolist(), b.tolist(), _hypot)
    if d == 1:  # a 1 x 1 Gram matrix is its own eigenvalue
        g, c = gs[0], bs[0]
        singular = _singular(g, g, s, 1)
        return gram.T, singular, np.array([c / (g + singular)])
    g11, g12, g22, b1, b2 = gs[0], gs[1], gs[3], bs[0], bs[1]
    lam_max = (g11 + g22) / 2 + hypot((g11 - g22) / 2, g12)
    scale = lam_max + (lam_max == 0)  # an all-zero G stays zero, and singular
    a11, a12, a22, c1, c2 = g11 / scale, g12 / scale, g22 / scale, b1 / scale, b2 / scale
    ratio = a11 * a22 - a12 * a12
    lam_min = ratio * lam_max
    singular = _singular(lam_min, lam_max, s, 2)
    det = ratio + singular
    coef = np.array([(a22 * c1 - a12 * c2) / det, (a11 * c2 - a12 * c1) / det])
    return np.array([lam_min, lam_max]).T, singular, coef


def _moments(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each data row's x x^T (flattened), x y and y^2; one product with a 0/1 row mask sums them
    over a set's rows: a ``_row_mask`` (``_screen``, ``eta_condition``) or Torrent's active rows."""
    n, d = x.shape
    outer = (x[:, :, None] * x[:, None, :]).reshape(n, d * d)
    return np.concatenate((outer, x * y[:, None], (y * y)[:, None]), axis=1)


def _row_mask(sets: np.ndarray, n: int) -> np.ndarray:
    """The (C, n) 0/1 mask of the (C, s) array of 1-based ``sets``: one row per set."""
    mask = np.zeros((len(sets), n))
    # set k's 1-based row r is flat entry k * n + r - 1
    mask.reshape(-1)[sets + np.arange(-1, len(sets) * n - 1, n)[:, None]] = 1.0
    return mask


def _screen(
    moments: np.ndarray, sets: np.ndarray, d: int, mask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``(score - slack, score + slack)`` on each set's ``bfs`` score: its ``ols`` fit's.

    ``moments`` is ``_moments(x, y)`` and ``sets`` the one (C, s) array of 1-based sets
    that ``bfs`` takes; ``mask``, if given, is its whole ``_row_mask``, else the mask of
    each chunk of ``_MASK_ENTRIES // n`` sets (at least one) is built.  The product of a
    chunk's mask with the moments gives every set S its Gram matrix G, b = X_S^T y_S and
    ||y_S||^2 as direct sums, not downdates, so ``_singular`` keeps its per-set scale.  The
    score is ``(||y_S||^2 - b^T G^-1 b) / s``, with G^-1 b from ``_solve``.  That form cancels: over
    d = 1-3, ill-conditioned designs included, it was measured within about
    7 * eps * cond(G) * ||y_S||^2 / s of the residual of the set's ``lstsq`` fit, and the
    slack is 16 times that scale.  A set that ``_singular`` flags gets bounds of -inf and inf.
    """
    n, s = moments.shape[0], sets.shape[1]
    step = max(1, _MASK_ENTRIES // n)
    lo, hi = [], []
    for start in range(0, len(sets), step):
        chunk = slice(start, start + step)
        rows = _row_mask(sets[chunk], n) if mask is None else mask[chunk]
        sums = np.dot(moments.T, rows.T)  # a column per set
        yy, b = sums[-1], sums[d * d : -1]
        lam, singular, coef = _solve(sums[: d * d], b, s)
        score = yy
        for b_i, c_i in zip(b, coef):  # yy - b_1 c_1 - b_2 c_2 - ..., in that order
            score = score - b_i * c_i
        score /= s
        lam[singular] = 1.0
        slack = (16 * _EPS / s) * yy * (lam[:, -1] / lam[:, 0])
        slack[singular] = np.inf
        lo.append(score - slack)
        hi.append(score + slack)
    return np.concatenate(lo), np.concatenate(hi)


def bfs(problem: RegressionProblem, candidate_sets: Sequence[Sequence[int]]) -> RobustFit:
    """Exhaustive search: fit each candidate inlier set, keep the best.

    ``candidate_sets`` is a (C, s) array of 1-based rows, as
    ``candidate_sets_all_of_size`` returns, or a list of C sets of one size s that
    numpy reads as one; any other shape raises ``ValueError``.
    Each set S scores ``err(S) = |S|^-1 ||y_S - X_S beta_S||^2`` for its own
    least-squares fit.  Errors within ``16 * eps * ||y||^2 / n`` of the smallest
    tie, and the first tied set in iteration order wins, so rounding cannot pick
    among exact fits.  ``beta`` is the least-squares fit on the winner, as
    ``ols`` gives it.

    Every set is first screened from its sums (``_screen``), which bounds its
    error.  Only the sets whose lower bound is within the tie tolerance of the
    smallest upper bound can win.  Those alone are fitted, one by one in iteration
    order, by ``ols``'s ``lstsq`` and scored by their residuals; the tie rule picks
    among these fits, and ``bfs`` returns the one it picked.  Errors are >= 0, so a
    first set within the tolerance of 0 wins at once and no other set is fitted.
    An array of C(n, s) sets of size s that the memo rule admits is looked up (a use of its
    entry): only the memo's own array is screened unchecked, with its memoised mask.  Any other,
    an equal copy too, is checked and masked a chunk at a time.  x, y scale as in ``torrent``.
    """
    n, d = problem.n, problem.d
    x, y, ex, ey = _scaled(problem)
    count, s = candidate_sets.shape if getattr(candidate_sets, "ndim", 0) == 2 else (0, 0)
    entry = _memo_entry(n, s, count)
    own = entry and entry[0] is candidate_sets  # the memo's own array meets the index-set rule
    sets, mask = entry if own else (_index_sets(candidate_sets, "candidate set", 2, n), None)
    if not len(sets):
        raise ValueError("candidate_sets must be non-empty")
    lo, hi = _screen(_moments(x, y), sets, d, mask)
    tau = 16 * _EPS * float(np.dot(y, y)) / n
    near = (lo <= hi.min() + tau).nonzero()[0]
    fits = []  # (score, winner, beta, residual norm) of each set the tie rule could pick
    for k in near if len(near) else [0]:  # none only if overflow made a NaN
        winner = np.sort(sets[k])
        xs, ys = x[winner - 1], y[winner - 1]
        beta = _lstsq(xs, ys)
        r = ys - np.dot(xs, beta)
        norm = math.sqrt(np.dot(r, r))  # np.linalg.norm's sum, to the bit
        fits.append((norm * norm / len(winner), winner, beta, norm))
        if fits[0][0] <= tau:  # scores are >= 0, so the first set within tau of 0 wins
            break
    best = min(score for score, *_ in fits)
    _, winner, beta, norm = next(fit for fit in fits if fit[0] <= best + tau)
    return RobustFit(
        _rescaled(beta, ey - ex), winner, 0, _rescaled(norm, ey), True, "BFS", "one_shot"
    )


def eta_condition(problem: RegressionProblem, a: int, inliers: Sequence[int]) -> float:
    """Worst-case subset spectral ratio against a known inlier set.

    For every subset S of size ``a``, compute
    ``||X_V(S)||_2 / sqrt(lambda_min(X_S^T X_S))`` where ``V(S)`` is the
    symmetric difference between S and the supplied inlier set, and return the
    maximum.  Values below ``1/sqrt(2)`` certify recovery for the iterative
    hard-thresholding estimator.  Returns ``inf`` if any subset design is
    singular (``_singular``).  Raises ``FeasibilityError`` when C(n, a) exceeds
    ``SUBSET_ENUMERATION_CAP``.  The subsets are streamed ``_MASK_ENTRIES // n`` at a time
    (at least one), and the Gram matrices of each chunk summed as ``bfs``'s screen sums them.

    This needs the true inlier set, so it is a simulation-only diagnostic.
    """
    n, d = problem.n, problem.d
    a_count = resolve_count(a, n)
    _enumeration_count(n, a_count)
    is_inlier = np.zeros(n, dtype=bool)
    is_inlier[_index_sets(inliers, "inlier", n=n) - 1] = True
    # X_S^T X_S and X_V^T X_V are sums of x_k x_k^T over the rows of S and of V = S xor I,
    # taken at the fitting scale: the ratio is the same at any scale of x, the sums are not
    x, y, _, _ = _scaled(problem)
    moments = _moments(x, y).T
    worst = 0.0
    for sets in _subsets(n, a_count, max(1, _MASK_ENTRIES // n)):
        mask = _row_mask(sets, n)
        sums = np.dot(moments, mask.T)  # a column per set, as in _screen
        lam, singular, _ = _solve(sums[: d * d], sums[d * d : -1], a_count)
        if singular.any():
            return float("inf")
        sums = np.dot(moments, (mask != is_inlier).T)
        top = _solve(sums[: d * d], sums[d * d : -1], a_count)[0][:, -1]
        worst = max(worst, float(np.sqrt(np.maximum(top, 0.0) / lam[:, 0]).max()))
    return worst
