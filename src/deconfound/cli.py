"""Command-line interface.

Subcommands
-----------
simulate     draw a synthetic confounded instance, write CSV + ground-truth JSON
fit          estimate the causal coefficient from a CSV file, emit JSON
deconfound   fit, then write fitted/residual series and the excluded-frequency report
experiment   run an experiment spec (JSON) and write result CSVs
check-basis  verify discrete orthonormality of a basis matrix

Exit codes: 0 success, 1 ``check-basis`` found the basis not orthonormal within
``--tol``, 2 usage or input-format error, 3 fit did not converge, 4 combinatorially
infeasible request.

Data CSV format: header ``t,x_1,...,x_d,y`` (the ``t`` column is optional on
input; row order defines the sample grid), comma separated, decimal points,
UTF-8, LF line endings.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .basis import BasisKind, basis_to_csv, build_basis, check_orthonormality
from .bench import (
    ExperimentSpec,
    run_experiment,
    write_replicate_records,
    write_result_rows,
)
from .errors import ConfigurationError, FeasibilityError
from .pipeline import SCHEMA_VERSION, DecorConfig, Method, decor_fit
from .sim import BandLimitedProcess, OUProcess, SimConfig, generate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_INFEASIBLE = 4


class InputFormatError(ValueError):
    """Malformed input file (CSV schema or experiment spec)."""


# ---------------------------------------------------------------- CSV helpers


def read_series_csv(path):
    """Read a ``t,x_1..x_d,y`` CSV; returns ``(t, x, y)`` with ``t`` possibly None."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFormatError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        has_t = bool(header) and header[0] == "t"
        body = header[1:] if has_t else header
        if not body or body[-1] != "y":
            raise InputFormatError(
                f"{path}: header must be t,x_1..x_d,y or x_1..x_d,y, got {','.join(header)}"
            )
        x_names = body[:-1]
        expected = [f"x_{i}" for i in range(1, len(x_names) + 1)]
        if x_names != expected:
            raise InputFormatError(
                f"{path}: covariate columns must be named {','.join(expected)}, "
                f"got {','.join(x_names) or '(none)'}"
            )
        d = len(x_names)
        t_vals, x_vals, y_vals = [], [], []
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputFormatError(
                    f"{path}: row {i}: expected {len(header)} fields, got {len(row)}"
                )
            def parse(value, name):
                try:
                    return float(value)
                except ValueError:
                    raise InputFormatError(
                        f"{path}: row {i}, column {name}: cannot parse {value!r} as a number"
                    ) from None
            k = 0
            if has_t:
                t_vals.append(parse(row[0], "t"))
                k = 1
            x_vals.append([parse(row[k + j], x_names[j]) for j in range(d)])
            y_vals.append(parse(row[k + d], "y"))
        if not y_vals:
            raise InputFormatError(f"{path}: no data rows")
    t = np.asarray(t_vals) if has_t else None
    return t, np.asarray(x_vals), np.asarray(y_vals)


def write_series_csv(path, t, x, y) -> None:
    d = x.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"x_{i}" for i in range(1, d + 1)) + ",y\n")
        for i in range(len(y)):
            cells = [repr(float(t[i]))]
            cells += [repr(float(v)) for v in x[i]]
            cells.append(repr(float(y[i])))
            fh.write(",".join(cells) + "\n")


# ------------------------------------------------------------- process flags


def _processes_from_flags(process: str):
    """eps and confounder processes for --process {band,ou}."""
    if process == "ou":
        return OUProcess(1.0, -0.8), OUProcess(1.0, -0.5)
    return BandLimitedProcess(), BandLimitedProcess()


def _parse_threshold(text: str):
    """``--a`` as ``decor_fit`` takes it: "1" is the count 1, "1.0" the fraction 1.0 (all rows)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


# ---------------------------------------------------------------- subcommands


def cmd_simulate(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**63))
        print(f"seed not given; using seed={seed}")
    eps_p, u_p = _processes_from_flags(args.process)
    config = SimConfig(
        n=args.n,
        d=args.d,
        beta=args.beta,
        horizon=args.horizon,
        sigma_eta2=args.sigma2,
        conf_prob=args.conf_prob,
        eps_process=eps_p,
        u_process=u_p,
        basis_kind=BasisKind(args.basis),
        dense_u_noise_std=args.dense_u_noise,
        seed=seed,
    )
    x, y, truth = generate(config)
    t = np.arange(1, args.n + 1) * (args.horizon / args.n)
    write_series_csv(args.out, t, x, y)
    truth_path = args.truth or (args.out + ".truth.json")
    truth_doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "n": args.n,
        "d": args.d,
        "beta": [float(b) for b in truth.beta],
        "g_set": [int(k) for k in truth.g_set],
        "conf_prob": args.conf_prob,
        "sigma_eta2": args.sigma2,
        "basis": args.basis,
        "process": args.process,
    }
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(truth_doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} ({args.n} rows) and {truth_path}")
    print(f"confounded frequencies |G| = {len(truth.g_set)}, seed = {seed}")
    return EXIT_OK


def _fit_from_args(args):
    _, x, y = read_series_csv(args.input)
    config = DecorConfig(
        basis_kind=BasisKind(args.basis),
        method=Method(args.method),
        a=args.a,
        max_iter=args.max_iter,
        bfs_cap=args.bfs_cap,
    )
    return decor_fit(x, y, config), y


def cmd_fit(args) -> int:
    est, _ = _fit_from_args(args)
    doc = json.dumps(est.to_json_dict(), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    return EXIT_OK if est.converged else EXIT_NOT_CONVERGED


def cmd_deconfound(args) -> int:
    if not args.horizon > 0:
        raise InputFormatError(f"--horizon must be positive, got {args.horizon}")
    est, y = _fit_from_args(args)
    n = len(y)
    t = np.arange(1, n + 1) * (args.horizon / n)
    fitted_path = f"{args.out}_fitted.csv"
    with open(fitted_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,fitted,residual\n")
        for i in range(n):
            fh.write(
                f"{float(t[i])!r},{float(est.fitted_time_domain[i])!r},"
                f"{float(est.residuals_time_domain[i])!r}\n"
            )
    excluded_path = f"{args.out}_excluded.csv"
    with open(excluded_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k\n")
        for k in est.excluded_frequencies:
            fh.write(f"{int(k)}\n")
    summary_path = f"{args.out}_summary.json"
    summary = {
        "schema_version": SCHEMA_VERSION,
        "beta": [float(b) for b in np.atleast_1d(est.beta)],
        "r_squared": est.r_squared,
        "iterations": est.iterations,
        "converged": est.converged,
        "method": est.method.value,
        "n_excluded": int(len(est.excluded_frequencies)),
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote {fitted_path}, {excluded_path}, {summary_path}")
    print(f"R^2 = {est.r_squared:.6f}, excluded {len(est.excluded_frequencies)} frequencies")
    return EXIT_OK if est.converged else EXIT_NOT_CONVERGED


def cmd_check_basis(args) -> int:
    basis = build_basis(BasisKind(args.kind), args.n)
    result = check_orthonormality(basis, tol=args.tol)
    if args.dump_csv:
        basis_to_csv(basis, args.dump_csv)
        print(f"wrote {args.dump_csv}")
    status = "pass" if result.ok else "FAIL"
    print(
        f"orthonormality {status}: kind={args.kind} n={args.n} "
        f"max deviation {result.max_deviation:.3e} (tol {args.tol:g})"
    )
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


def cmd_experiment(args) -> int:
    spec = load_experiment_spec(args.spec)
    rows, records = run_experiment(spec)
    write_result_rows(args.out, rows)
    records_path = args.records_out or (args.out + ".replicates.csv")
    write_replicate_records(records_path, records)
    for r in rows:
        print(
            f"n={r.n} method={r.method} mae={r.mae:.4f} stderr={r.mae_stderr:.4f} "
            f"mean_iter={r.mean_iterations:.2f} failed={r.replicates_failed}"
        )
    print(f"wrote {args.out} and {records_path}")
    return EXIT_OK


# ------------------------------------------------------- experiment spec JSON


def _spec_error(pointer: str, message: str):
    raise InputFormatError(f"experiment spec {pointer}: {message}")


def _expect(doc, pointer, key, types, default=None, required=False):
    if key not in doc:
        if required:
            _spec_error(f"{pointer}/{key}", "missing required field")
        return default
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        names = "/".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
        _spec_error(f"{pointer}/{key}", f"expected {names}, got {type(value).__name__}")
    return value


def load_experiment_spec(path) -> ExperimentSpec:
    """Parse and validate an experiment spec JSON file.

    Errors carry a JSON-pointer-style location, e.g. ``/methods/0/a``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise InputFormatError(f"experiment spec {path}: invalid JSON ({e})") from None
    if not isinstance(doc, dict):
        _spec_error("", "top level must be an object")

    n_grid = _expect(doc, "", "n_grid", list, required=True)
    if not n_grid:
        _spec_error("/n_grid", "need at least one sample size")
    for i, n in enumerate(n_grid):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            _spec_error(f"/n_grid/{i}", "expected a positive integer")

    sim_doc = _expect(doc, "", "sim", dict, required=True)
    pointer = "/sim"
    process = _expect(sim_doc, pointer, "process", str, default="band")
    if process not in ("band", "ou"):
        _spec_error(f"{pointer}/process", "expected 'band' or 'ou'")
    basis = _expect(sim_doc, pointer, "basis", str, default="cosine")
    if basis not in ("cosine", "haar"):
        _spec_error(f"{pointer}/basis", "expected 'cosine' or 'haar'")
    eps_p, u_p = _processes_from_flags(process)
    if process == "band":
        support = _expect(sim_doc, pointer, "band_support", list)
        coeff_std = _expect(sim_doc, pointer, "coeff_std", (int, float), default=1.0)
        sup = tuple(int(k) for k in support) if support is not None else None
        eps_p = BandLimitedProcess(support=sup, coeff_std=float(coeff_std))
        u_p = BandLimitedProcess(support=sup, coeff_std=float(coeff_std))
    else:
        for key, default_p in (("ou_eps", eps_p), ("ou_u", u_p)):
            sub = _expect(sim_doc, pointer, key, dict)
            if sub is not None:
                sigma = _expect(sub, f"{pointer}/{key}", "sigma", (int, float), default=1.0)
                drift = _expect(sub, f"{pointer}/{key}", "drift", (int, float), required=True)
                if key == "ou_eps":
                    eps_p = OUProcess(float(sigma), float(drift))
                else:
                    u_p = OUProcess(float(sigma), float(drift))
    beta = _expect(sim_doc, pointer, "beta", (int, float, list), default=3.0)
    if isinstance(beta, list):
        beta = tuple(float(b) for b in beta)
    try:
        sim = SimConfig(
            n=int(n_grid[0]),  # template only; overridden per grid entry
            d=_expect(sim_doc, pointer, "d", int, default=1),
            beta=beta,
            horizon=float(_expect(sim_doc, pointer, "horizon", (int, float), default=1.0)),
            sigma_eta2=float(_expect(sim_doc, pointer, "sigma_eta2", (int, float), default=1.0)),
            conf_prob=float(_expect(sim_doc, pointer, "conf_prob", (int, float), default=0.25)),
            eps_process=eps_p,
            u_process=u_p,
            basis_kind=BasisKind(basis),
            dense_u_noise_std=float(
                _expect(sim_doc, pointer, "dense_u_noise_std", (int, float), default=0.0)
            ),
        )
    except ConfigurationError as e:
        _spec_error(pointer, str(e))

    methods_doc = _expect(doc, "", "methods", list, required=True)
    if not methods_doc:
        _spec_error("/methods", "need at least one method")
    methods = []
    for i, m in enumerate(methods_doc):
        mp = f"/methods/{i}"
        if not isinstance(m, dict):
            _spec_error(mp, "expected an object")
        name = _expect(m, mp, "method", str, required=True)
        if name not in ("torrent", "bfs", "olsbaseline"):
            _spec_error(f"{mp}/method", "expected 'torrent', 'bfs' or 'olsbaseline'")
        a = _expect(m, mp, "a", (int, float), default=0.7)
        max_iter = _expect(m, mp, "max_iter", int, default=100)
        bfs_cap = _expect(m, mp, "bfs_cap", int, default=10_000_000)
        try:
            methods.append(
                DecorConfig(
                    basis_kind=BasisKind(basis),
                    method=Method(name),
                    a=a,
                    max_iter=max_iter,
                    bfs_cap=bfs_cap,
                )
            )
        except ValueError as e:
            _spec_error(mp, str(e))

    replicates = _expect(doc, "", "replicates", int, default=1000)
    seed_base = _expect(doc, "", "seed_base", int, default=0)
    try:
        return ExperimentSpec(
            sim=sim,
            n_grid=tuple(n_grid),
            methods=tuple(methods),
            replicates=replicates,
            seed_base=seed_base,
        )
    except ValueError as e:
        _spec_error("", str(e))


# --------------------------------------------------------------------- parser


def _add_common_fit_flags(p):
    p.add_argument("--input", required=True, help="input data CSV (t,x_1..x_d,y)")
    p.add_argument("--method", choices=[m.value for m in Method], default="torrent")
    p.add_argument("--basis", choices=[k.value for k in BasisKind], default="cosine")
    p.add_argument(
        "--a",
        type=_parse_threshold,
        default=0.7,
        help="inlier threshold: an integer is a count of rows (1 keeps one), any other "
        "number a fraction in (0,1] (1.0 keeps all) (default 0.7)",
    )
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--bfs-cap", type=int, default=10_000_000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deconfound",
        description="Causal-effect estimation under spectrally sparse confounding.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic confounded instance")
    p.add_argument("--process", choices=["band", "ou"], default="band")
    p.add_argument("--basis", choices=[k.value for k in BasisKind], default="cosine")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--beta", type=float, default=3.0)
    p.add_argument("--sigma2", type=float, default=1.0, help="variance of the response noise")
    p.add_argument("--conf-prob", type=float, default=0.25)
    p.add_argument("--dense-u-noise", type=float, default=0.0)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output data CSV path")
    p.add_argument("--truth", default=None, help="ground-truth JSON path (default: <out>.truth.json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="estimate the causal coefficient from a CSV")
    _add_common_fit_flags(p)
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("deconfound", help="fit and write the deconfounding report bundle")
    _add_common_fit_flags(p)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--horizon", type=float, default=1.0, help="length of the t column's window")
    p.set_defaults(func=cmd_deconfound)

    p = sub.add_parser("experiment", help="run an experiment spec (JSON)")
    p.add_argument("--spec", required=True, help="experiment spec JSON path")
    p.add_argument("--out", required=True, help="result rows CSV path")
    p.add_argument(
        "--records-out", default=None, help="per-replicate CSV path (default: <out>.replicates.csv)"
    )
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("check-basis", help="verify discrete orthonormality")
    p.add_argument("--kind", choices=[k.value for k in BasisKind], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--dump-csv", default=None, help="also dump the matrix as j,k,value CSV")
    p.set_defaults(func=cmd_check_basis)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FeasibilityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InputFormatError, ConfigurationError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
