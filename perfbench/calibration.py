"""How fast the host runs right now, from fixed work that never calls the program.

On a shared host the same code runs up to half again slower from one minute
to the next while the work it does stays the same: other tenants contend for
the cores, caches and memory bus.  A throughput measured in wall-clock time
alone then moves more between two runs of the same code than any bound a
benchmark can set.

``Calibration.measure`` times five small kernels, one for each kind of work
the workloads spend their time in, and returns how much slower than on the
reference host they ran: 1.0 on a quiet reference host, 1.3 when the host is
30% slower.  run.py calls it after every pass and divides the pass's time by
the factor, so that a pass that ran while the host was slow counts the time
it would have taken on the reference host.  The kernels are fixed code of
their own, so a faster program moves the scaled throughput one for one,
while a slower host moves it far less than it moves the wall-clock one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds each kernel takes on the reference host, a 2-vCPU Intel Xeon VM at
# 2.1 GHz (Python 3.11, numpy 2.4 with one OpenBLAS thread), when its
# neighbours are quiet: a tenth above the fastest of some 800 calls.
REFERENCE_S = {
    "small_arrays": 1.4e-3,
    "small_lstsq": 0.95e-3,
    "matvec": 1.4e-3,
    "elementwise": 2.1e-3,
    "parse": 1.1e-3,
}


class Calibration:
    """The kernels, their fixed inputs, and the result of every measurement."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._tuples = [tuple(int(v) for v in rng.integers(1, 17, 11)) for _ in range(400)]
        self._design = rng.standard_normal((16, 2))
        self._target = rng.standard_normal(16)
        self._matrix = rng.standard_normal((1024, 1024))
        self._vector = rng.standard_normal(1024)
        self._grid = np.linspace(0.0, 1.0, 360)
        self._text = ",".join(repr(float(v)) for v in rng.standard_normal(3000))
        self.factors: list[float] = []
        self.ratios: list[dict[str, float]] = []  # per kernel, for the record
        self.measure()  # first calls fault memory in and load code paths
        self.factors.clear()
        self.ratios.clear()

    # Python loops over tiny arrays: the per-call overhead that dominates
    # small-n fits, candidate-set handling and simulation.
    def small_arrays(self) -> None:
        for t in self._tuples:
            a = np.asarray(t, dtype=int).ravel()
            a.min()
            a.max()

    # Many LAPACK least-squares solves on a 16 x 2 design.
    def small_lstsq(self) -> None:
        for _ in range(60):
            np.linalg.lstsq(self._design, self._target, rcond=None)

    # Dense mat-vec products on an 8 MiB matrix, bound by memory bandwidth.
    def matvec(self) -> None:
        for _ in range(3):
            self._matrix @ self._vector

    # Transcendental functions over an n x n grid, as in building a basis.
    def elementwise(self) -> None:
        np.cos(np.outer(self._grid, self._grid) * 3.0)

    # Text to floats, as in reading a CSV.
    def parse(self) -> None:
        [float(x) for x in self._text.split(",")]

    def measure(self) -> float:
        """Run every kernel once; return the mean of their time over their reference time."""
        ratios = {}
        for name, ref_s in REFERENCE_S.items():
            kernel = getattr(self, name)
            t0 = time.perf_counter()
            kernel()
            ratios[name] = (time.perf_counter() - t0) / ref_s
        factor = statistics.fmean(ratios.values())
        self.factors.append(factor)
        self.ratios.append(ratios)
        return factor
