"""Experiment harness: determinism, aggregation, spec sizes, CSV output."""

import csv
import logging
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from deconfound import (
    BandLimitedProcess,
    ConfigurationError,
    DecorConfig,
    ExperimentSpec,
    FeasibilityError,
    Method,
    SimConfig,
    decor_fit,
    generate,
    make_rng,
    run_experiment,
)
from deconfound import bench
from deconfound.bench import (
    RECORD_CSV_HEADER,
    RESULT_CSV_HEADER,
    _substreams,
    _words,
    method_labels,
    write_rows,
)
from deconfound.cli import load_experiment_spec

REPO_SPECS = Path(__file__).resolve().parent.parent / "specs"


def small_spec(**kw):
    defaults = dict(
        sim=SimConfig(n=8, sigma_eta2=1.0),
        n_grid=(8, 16),
        methods=(DecorConfig(), DecorConfig(method=Method.OLS_BASELINE)),
        replicates=20,
        seed_base=5,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def reference_records(spec):
    """(n, method index, replicate, the error's ``float.hex`` or None if infeasible, iterations)
    of every replicate, each drawn from a new generator on its substream (seed_base, n, m, r)."""
    expected = []
    for n in spec.n_grid:
        sim = replace(spec.sim, n=n)
        for m, cfg in enumerate(spec.methods):
            for r in range(spec.replicates):
                rng = make_rng(np.random.SeedSequence((spec.seed_base, n, m, r)))
                x, y, truth = generate(sim, rng=rng)
                try:
                    est = decor_fit(x, y, cfg)
                except FeasibilityError:
                    expected.append((n, m, r, None, 0))
                    continue
                err = float(np.mean(np.abs(est.beta - truth.beta)))
                expected.append((n, m, r, err.hex(), est.iterations))
    return expected


def record_tuples(spec, records):
    """``records`` in the form of ``reference_records``."""
    labels = method_labels(spec.methods)
    return [
        (
            rec.n, labels.index(rec.method), rec.replicate,
            None if rec.failed else rec.abs_error.hex(), rec.iterations,
        )
        for rec in records
    ]


class TestSpecSizes:
    """Every size the smallest grid entry must hold is checked when the spec is built."""

    @pytest.mark.parametrize(
        "kw, message",
        [
            (
                dict(sim=SimConfig(n=8, d=12)),
                r"^sim\.d = 12 at the smallest grid size n=8: "
                r"need at least as many samples as covariates \(8 < 12\)$",
            ),
            (
                dict(methods=(DecorConfig(a=12),)),
                r"^methods\[0\]\.a at the smallest grid size n=8: threshold count 12 out of range",
            ),
            (
                dict(sim=SimConfig(n=8, u_process=BandLimitedProcess(support=(1, 12)))),
                r"^sim\.u_process at the smallest grid size n=8: "
                r"band support index 12 is not in 1\.\.8$",
            ),
        ],
        ids=["d", "a", "support"],
    )
    def test_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            small_spec(**kw)

    def test_sizes_that_fit_accepted(self):
        spec = small_spec(
            sim=SimConfig(n=8, d=8, beta=3.0, eps_process=BandLimitedProcess(support=(1, 8))),
            methods=(DecorConfig(a=8), DecorConfig(method=Method.OLS_BASELINE, a=12)),
        )
        assert spec.n_grid == (8, 16)


class TestRunExperiment:
    def test_bit_identical_reruns(self):
        rows1, recs1 = run_experiment(small_spec())
        rows2, recs2 = run_experiment(small_spec())
        assert rows1 == rows2
        assert recs1 == recs2

    def test_rows_cover_grid_and_methods(self):
        rows, _ = run_experiment(small_spec())
        assert {(r.n, r.method) for r in rows} == {
            (8, "DecoR-Tor"),
            (8, "OLS"),
            (16, "DecoR-Tor"),
            (16, "OLS"),
        }

    def test_statistics_recomputable_from_records(self):
        rows, recs = run_experiment(small_spec())
        for row in rows:
            errs = np.array(
                [
                    r.abs_error
                    for r in recs
                    if r.n == row.n and r.method == row.method and not r.failed
                ]
            )
            assert row.mae == pytest.approx(errs.mean(), abs=1e-15)
            assert row.mae_stderr == pytest.approx(
                errs.std(ddof=1) / math.sqrt(errs.size), abs=1e-15
            )
            assert row.replicates_failed == sum(
                1 for r in recs if r.n == row.n and r.method == row.method and r.failed
            )

    def test_infeasible_cells_counted_not_fatal(self):
        spec = small_spec(
            n_grid=(30,),
            methods=(DecorConfig(method=Method.BFS, a=0.5),),
            replicates=3,
        )
        rows, recs = run_experiment(spec)
        assert len(rows) == 1
        assert rows[0].replicates_failed == 3
        assert math.isnan(rows[0].mae)
        assert all(r.failed for r in recs)

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(
                small_spec(
                    n_grid=(8, 12),
                    methods=tuple(DecorConfig(method=m) for m in Method),
                    replicates=3,
                ),
                id="cosine",
            ),
            pytest.param(
                small_spec(
                    sim=SimConfig(n=8, d=2, beta=(3.0, -1.5), basis_kind="haar", sigma_eta2=1.0),
                    methods=tuple(DecorConfig(basis_kind="haar", method=m) for m in Method),
                    replicates=2,
                ),
                id="haar_d2",
            ),
            # a seed_base of one 32-bit word, of two with a low word 0, and of three
            *(
                pytest.param(
                    small_spec(
                        n_grid=(8,),
                        methods=tuple(DecorConfig(method=m) for m in Method),
                        replicates=2,
                        seed_base=seed_base,
                    ),
                    id=f"seed_base={name}",
                )
                for seed_base, name in [
                    (2**32 - 1, "2^32-1"), (2**32, "2^32"), (2**64 + 3, "2^64+3")
                ]
            ),
        ],
    )
    def test_records_match_a_reference_loop(self, spec):
        # replicate r of cell (n, method m) draws from the substream (seed_base, n, m, r), and
        # its error is the mean absolute error of beta
        _, records = run_experiment(spec)
        assert record_tuples(spec, records) == reference_records(spec)
        assert not any(rec.failed for rec in records)

    def test_infeasible_cell_between_feasible_cells(self, monkeypatch):
        # BFS at n = 30 needs C(30, 15) sets, over the cap; the Torrent and OLS cells before and
        # after it, and BFS at n = 8, still draw their own substreams
        spec = small_spec(
            n_grid=(8, 30),
            methods=tuple(DecorConfig(method=m, a=0.5) for m in Method),
            replicates=2,
        )
        drawn = []
        monkeypatch.setattr(
            bench, "generate", lambda sim, rng: drawn.append(sim.n) or generate(sim, rng=rng)
        )
        _, records = run_experiment(spec)
        assert {(rec.n, rec.method) for rec in records if rec.failed} == {(30, "DecoR-BFS")}
        # the infeasible cell is decided once: none of its replicates draws
        assert sorted(drawn) == [8] * 6 + [30] * 4
        assert record_tuples(spec, records) == reference_records(spec)

    def test_rekeyed_generator_draws_a_new_generators_stream(self):
        rekey = _substreams()
        substreams = [(5, 8, 0, 0), (5, 8, 0, 1), (2**64 + 3, 12, 2, 7), (0, 1, 0, 2**32)]
        assert [_words(*ints) for ints in substreams[2:]] == [[3, 0, 1, 12, 2, 7], [0, 1, 0, 0, 1]]
        for ints in substreams:
            rng = rekey(_words(*ints))
            new = make_rng(np.random.SeedSequence(ints))
            for draw in (
                lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
                lambda g: g.normal(size=5),
                lambda g: g.choice(12, size=4, replace=False),
                lambda g: g.integers(0, 7, 5, dtype=np.uint32),
            ):
                assert draw(rng).tobytes() == draw(new).tobytes()
            # leave a half-used 32-bit word, and part of a buffer, for the next rekey to drop
            if not rng.bit_generator.state["has_uint32"]:
                rng.integers(0, 2**32, dtype=np.uint32)
            assert rng.bit_generator.state["buffer_pos"] < 4

    def test_threads_give_the_serial_records(self):
        methods = tuple(DecorConfig(method=m) for m in Method)
        specs = [small_spec(methods=methods, seed_base=base) for base in (5, 6)]
        serial = [run_experiment(spec) for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside replicates too
        try:
            with ThreadPoolExecutor(2) as pool:
                assert list(pool.map(run_experiment, specs, timeout=120)) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_zero_iterations_for_one_shot_methods(self):
        rows, recs = run_experiment(small_spec())
        ols_rows = [r for r in rows if r.method == "OLS"]
        assert all(r.mean_iterations == 0 and r.max_iterations == 0 for r in ols_rows)

    def test_duplicate_method_labels_disambiguated(self):
        labels = method_labels((DecorConfig(), DecorConfig(a=0.8)))
        assert labels == ["DecoR-Tor", "DecoR-Tor#2"]

    def test_clean_noiseless_single_replicate_zero_error(self):
        spec = ExperimentSpec(
            sim=SimConfig(n=16, conf_prob=0.0, sigma_eta2=0.0),
            n_grid=(16,),
            methods=(
                DecorConfig(),
                DecorConfig(method=Method.BFS),
                DecorConfig(method=Method.OLS_BASELINE),
            ),
            replicates=1,
            seed_base=9,
        )
        rows, _ = run_experiment(spec)
        assert len(rows) == 3
        for r in rows:
            assert r.mae <= 1e-8, (r.method, r.mae)


class TestFractionSpecs:
    @pytest.mark.parametrize("name", ["criterion9_fraction50.json", "criterion9_fraction70.json"])
    def test_keep_count_is_exact(self, name):
        # ceil((1 - q - 0.05) n) in exact rational arithmetic; in floats
        # 1.0 - 0.7 - 0.05 is 0.25000000000000006, which keeps 129 of 512 rows
        spec = load_experiment_spec(REPO_SPECS / name)
        (n,), (method,) = spec.n_grid, spec.methods
        q = Fraction(repr(spec.sim.conf_prob))
        assert method.a == math.ceil((1 - q - Fraction("0.05")) * n)


class TestCsvOutput:
    def test_result_rows_round_trip(self, tmp_path):
        rows, recs = run_experiment(small_spec(replicates=5))
        path = tmp_path / "rows.csv"
        write_rows(path, RESULT_CSV_HEADER, rows)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == RESULT_CSV_HEADER
        assert len(lines) == 1 + len(rows)
        parsed = list(csv.DictReader(lines))
        assert float(parsed[0]["mae"]) == pytest.approx(rows[0].mae)

    def test_record_rows_header(self, tmp_path):
        rows, recs = run_experiment(small_spec(replicates=5))
        path = tmp_path / "recs.csv"
        write_rows(path, RECORD_CSV_HEADER, recs)
        with open(path) as fh:
            first = fh.readline().strip()
        assert first == RECORD_CSV_HEADER

    def test_grid_must_be_non_empty(self):
        with pytest.raises(ValueError, match="^n_grid must be non-empty$"):
            small_spec(n_grid=())

    def test_grid_must_be_sorted(self):
        with pytest.raises(ValueError):
            small_spec(n_grid=(16, 8))

    def test_grid_must_not_repeat_a_size(self):
        # a repeated size would run its cells twice, from the same substreams
        with pytest.raises(ValueError, match=r"^n_grid must not repeat a size, got \(8, 8, 16\)$"):
            small_spec(n_grid=(8, 8, 16))
        with pytest.raises(ValueError, match="^n_grid must be sorted ascending$"):
            small_spec(n_grid=(16, 8, 8))

    @pytest.mark.parametrize(
        "n_grid, named",
        [
            pytest.param((0, 8), "n_grid entry must be >= 1", id="n_grid0-n=0"),
            pytest.param((8, 12), "n=12", id="n_grid1-n=12"),
        ],
    )
    def test_grid_sizes_checked_against_the_basis(self, n_grid, named):
        with pytest.raises(ConfigurationError, match=named):
            small_spec(sim=SimConfig(n=8, basis_kind="haar"), n_grid=n_grid)

    def test_bytes_match_field_by_field_reference(self, tmp_path):
        # the writers as they were before one generic writer replaced them
        def reference(rows, recs):
            text = RESULT_CSV_HEADER + "\n"
            for r in rows:
                text += (
                    f"{r.n},{r.method},{r.sigma_eta2!r},{r.conf_prob!r},{r.mae!r},"
                    f"{r.mae_stderr!r},{r.mean_iterations!r},{r.max_iterations},"
                    f"{r.replicates_failed}\n"
                )
            text += RECORD_CSV_HEADER + "\n"
            for r in recs:
                text += (
                    f"{r.n},{r.method},{r.sigma_eta2!r},{r.conf_prob!r},{r.replicate},"
                    f"{r.abs_error!r},{r.iterations},{int(r.failed)}\n"
                )
            return text

        # a BFS cell over the cap fails every replicate: NaN errors and failed = 1
        methods = (DecorConfig(), DecorConfig(method=Method.BFS, a=0.5))
        rows, recs = run_experiment(small_spec(n_grid=(8, 30), methods=methods, replicates=3))
        assert any(r.failed for r in recs) and not all(r.failed for r in recs)
        write_rows(tmp_path / "rows.csv", RESULT_CSV_HEADER, rows)
        write_rows(tmp_path / "recs.csv", RECORD_CSV_HEADER, recs)
        written = (tmp_path / "rows.csv").read_bytes() + (tmp_path / "recs.csv").read_bytes()
        assert written == reference(rows, recs).encode()


class TestLogging:
    def test_one_info_record_per_cell(self, caplog):
        # BFS fits C(8, 4) = 70 sets under the cap, not C(30, 15)
        methods = (DecorConfig(), DecorConfig(method=Method.BFS, a=0.5))
        spec = small_spec(n_grid=(8, 30), methods=methods, replicates=3)
        with caplog.at_level(logging.INFO, logger="deconfound"):
            rows, _ = run_experiment(spec)
        logged = [rec for rec in caplog.records if rec.name.startswith("deconfound")]
        assert len(logged) == len(rows) == 4
        for rec, row in zip(logged, rows):
            assert (rec.name, rec.levelno) == ("deconfound.bench", logging.INFO)
            assert rec.args[:4] == (row.n, row.method, 3, row.replicates_failed)  # lazy arguments
            head = f"cell n={row.n} method={row.method}: 3 replicates, {rec.args[3]} failed, "
            assert re.fullmatch(re.escape(head) + r"\S+ s, \d+ fits/s", rec.getMessage())
        assert [row.replicates_failed for row in rows] == [0, 0, 0, 3]

    def test_silent_when_logging_is_unconfigured(self):
        # the package's NullHandler keeps even a warning off stderr, where Python's last-resort
        # handler would print it
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import logging\n"
            "from deconfound import *\n"
            "methods = (DecorConfig(), DecorConfig(method=Method.BFS, a=0.5))\n"
            "run_experiment(ExperimentSpec(SimConfig(n=8), (8, 30), methods, replicates=2))\n"
            "logging.getLogger('deconfound.bench').warning('unseen')\n"
        )
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
