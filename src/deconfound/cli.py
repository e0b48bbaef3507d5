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
import dataclasses
import functools
import json
import sys
import typing

import numpy as np

from . import __version__
from .basis import BasisKind, basis_to_csv, build_basis, check_orthonormality
from .bench import RECORD_CSV_HEADER, RESULT_CSV_HEADER, ExperimentSpec, run_experiment, write_rows
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
        rows = list(reader)
    body_rows = [row for row in rows if row]
    if not body_rows:
        raise InputFormatError(f"{path}: no data rows")
    try:
        table = np.array(body_rows, dtype=float)
    except ValueError:
        _raise_first_bad_cell(path, header, rows)
    if table.shape[1] != len(header):
        _raise_first_bad_cell(path, header, rows)
    t = table[:, 0] if has_t else None
    return t, table[:, has_t:-1], table[:, -1]


def _raise_first_bad_cell(path, header, rows):
    """Raise the error of the first bad data row in file order: its field count, then its cells."""
    for i, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise InputFormatError(
                f"{path}: row {i}: expected {len(header)} fields, got {len(row)}"
            )
        for name, value in zip(header, row):
            try:
                float(value)
            except ValueError:
                raise InputFormatError(
                    f"{path}: row {i}, column {name}: cannot parse {value!r} as a number"
                ) from None
    raise InputFormatError(f"{path}: cannot read the data rows as a table of numbers")


def write_series_csv(path, t, x, y) -> None:
    names = ["t", *(f"x_{i}" for i in range(1, x.shape[1] + 1)), "y"]
    _write_columns(path, names, [t, *x.T, y])


def _write_columns(path, names, columns) -> None:
    """Write equal-length numeric columns as CSV under ``names``, each value as its float repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ------------------------------------------------------------- config flags


# SimConfig's process field for each OU spec field, and the drift it takes when not given;
# --process band and a spec without OU fields keep SimConfig's band-limited processes
_OU_PROCESSES = {"ou_eps": ("eps_process", -0.8), "ou_u": ("u_process", -0.5)}


def _config(cls, args, **fields):
    """``cls`` built from the flags given on the command line; the others take its defaults."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names}, **fields)


def _parse_threshold(text: str):
    """``--a`` as ``decor_fit`` takes it: "1" is the count 1, "1.0" the fraction 1.0 (all rows)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


# ---------------------------------------------------------------- subcommands


def cmd_simulate(args) -> int:
    if "seed" not in args:
        args.seed = int(np.random.SeedSequence().entropy % (2**63))
        print(f"seed not given; using seed={args.seed}")
    processes = {}
    if args.process == "ou":
        processes = {field: OUProcess(drift=drift) for field, drift in _OU_PROCESSES.values()}
    config = _config(SimConfig, args, **processes)
    x, y, truth = generate(config)
    t = np.arange(1, config.n + 1) * (config.horizon / config.n)
    write_series_csv(args.out, t, x, y)
    truth_path = args.truth or (args.out + ".truth.json")
    truth_doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": config.seed,
        "n": config.n,
        "d": config.d,
        "beta": [float(b) for b in truth.beta],
        "g_set": [int(k) for k in truth.g_set],
        "conf_prob": config.conf_prob,
        "sigma_eta2": config.sigma_eta2,
        "basis": config.basis_kind.value,
        "process": args.process,
    }
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(truth_doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} ({config.n} rows) and {truth_path}")
    print(f"confounded frequencies |G| = {len(truth.g_set)}, seed = {config.seed}")
    return EXIT_OK


def _fit_from_args(args):
    _, x, y = read_series_csv(args.input)
    return decor_fit(x, y, _config(DecorConfig, args)), y


def cmd_fit(args) -> int:
    est, _ = _fit_from_args(args)
    doc = json.dumps(est.to_json_dict())
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
    columns = [t, est.fitted_time_domain, est.residuals_time_domain]
    _write_columns(fitted_path, ["t", "fitted", "residual"], columns)
    excluded_path = f"{args.out}_excluded.csv"
    with open(excluded_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{k}\n" for k in ["k", *est.excluded_frequencies.tolist()])
    summary_path = f"{args.out}_summary.json"
    doc = est.to_json_dict()
    keys = ("schema_version", "beta", "r_squared", "iterations", "converged", "method")
    summary = {key: doc[key] for key in keys}
    summary["n_excluded"] = len(doc["excluded_frequencies"])
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
    write_rows(args.out, RESULT_CSV_HEADER, rows)
    records_path = args.records_out or (args.out + ".replicates.csv")
    write_rows(records_path, RECORD_CSV_HEADER, records)
    for r in rows:
        print(
            f"n={r.n} method={r.method} mae={r.mae:.4f} stderr={r.mae_stderr:.4f} "
            f"mean_iter={r.mean_iterations:.2f} failed={r.replicates_failed}"
        )
    print(f"wrote {args.out} and {records_path}")
    return EXIT_OK


# ------------------------------------------------------- experiment spec JSON


_PROCESSES = ("band", "ou")
_BASES = [k.value for k in BasisKind]
_METHODS = [m.value for m in Method]

# The fields of each spec object and their types; ``float`` takes any number as a float.
_SPEC_FIELDS = {
    "schema_version": str, "sim": dict, "n_grid": list, "methods": list,
    "replicates": int, "seed_base": int,
}
_SIM_FIELDS = {
    "process": str, "basis": str, "d": int, "beta": (float, list[float]), "horizon": float,
    "sigma_eta2": float, "conf_prob": float, "dense_u_noise_std": float,
    "band_support": list[int], "coeff_std": float, "ou_eps": dict, "ou_u": dict,
}
_OU_FIELDS = {"sigma": float, "drift": float}
_METHOD_FIELDS = {"method": str, "a": (int, float), "max_iter": int, "bfs_cap": int}
# the process each process-specific /sim field belongs to
_PROCESS_OF = {"band_support": "band", "coeff_std": "band", "ou_eps": "ou", "ou_u": "ou"}


def _spec_error(pointer: str, message: str):
    raise InputFormatError(f"experiment spec {pointer}: {message}")


def _typed(pointer, value, kind):
    """``value`` if it has type ``kind``, a type or a tuple of types; a bool is never a number."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for k in () if isinstance(value, bool) else kinds:
        if k is float and isinstance(value, int):
            try:
                return float(value)
            except OverflowError:
                _spec_error(pointer, "integer too large for a float")
        if isinstance(value, typing.get_origin(k) or k):
            items = typing.get_args(k)
            if items:
                return [_typed(f"{pointer}/{i}", v, items[0]) for i, v in enumerate(value)]
            return value
    accepted = ((int, float) if k is float else (typing.get_origin(k) or k,) for k in kinds)
    expected = "/".join(dict.fromkeys(t.__name__ for group in accepted for t in group))
    _spec_error(pointer, f"expected {expected}, got {type(value).__name__}")


def _fields(doc, pointer, table, required=()) -> dict:
    """The fields of the object ``doc``, each checked against its type in ``table``."""
    for key in required:
        if key not in doc:
            _spec_error(f"{pointer}/{key}", "missing required field")
    for key in doc:
        if key not in table:
            _spec_error(f"{pointer}/{key}", "unknown field")
    return {key: _typed(f"{pointer}/{key}", value, table[key]) for key, value in doc.items()}


def _choice(pointer, value, choices):
    """``value`` if it is one of ``choices``; the message lists them all."""
    if value not in choices:
        quoted = [repr(c) for c in choices]
        _spec_error(pointer, f"expected {', '.join(quoted[:-1])} or {quoted[-1]}")
    return value


def _sim_config(doc, n) -> SimConfig:
    """The ``/sim`` object as a SimConfig at the template size ``n``."""
    sim = _fields(doc, "/sim", _SIM_FIELDS)
    process = _choice("/sim/process", sim.pop("process", "band"), _PROCESSES)
    if "basis" in sim:
        sim["basis_kind"] = _choice("/sim/basis", sim.pop("basis"), _BASES)
    for key in sim:
        if _PROCESS_OF.get(key, process) != process:
            _spec_error(f"/sim/{key}", f"applies only to process {_PROCESS_OF[key]!r}")
    try:
        if process == "ou":
            for key, (field, drift) in _OU_PROCESSES.items():
                ou = _fields(sim.pop(key, {"drift": drift}), f"/sim/{key}", _OU_FIELDS, ("drift",))
                sim[field] = OUProcess(**ou)
        else:
            band = {k.removeprefix("band_"): sim.pop(k) for k in _PROCESS_OF if k in sim}
            if band:
                sim["eps_process"] = sim["u_process"] = BandLimitedProcess(**band)
        return SimConfig(n=n, **sim)
    except ConfigurationError as e:
        _spec_error("/sim", str(e))


def load_experiment_spec(path) -> ExperimentSpec:
    """Parse and validate an experiment spec JSON file.

    Fields left out take the defaults of the config classes.  Errors carry a
    JSON-pointer-style location, e.g. ``/methods/0/a``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise InputFormatError(f"experiment spec {path}: invalid JSON ({e})") from None
    if not isinstance(doc, dict):
        _spec_error("", "top level must be an object")
    spec = _fields(doc, "", _SPEC_FIELDS, ("n_grid", "sim", "methods"))
    if spec.pop("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        _spec_error("/schema_version", f"expected {SCHEMA_VERSION!r}")
    if not spec["n_grid"]:
        _spec_error("/n_grid", "need at least one sample size")
    for i, n in enumerate(spec["n_grid"]):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            _spec_error(f"/n_grid/{i}", "expected a positive integer")
    spec["sim"] = _sim_config(spec["sim"], spec["n_grid"][0])
    if not spec["methods"]:
        _spec_error("/methods", "need at least one method")
    for i, method in enumerate(spec["methods"]):
        pointer = f"/methods/{i}"
        if not isinstance(method, dict):
            _spec_error(pointer, "expected an object")
        method = _fields(method, pointer, _METHOD_FIELDS, ("method",))
        _choice(f"{pointer}/method", method["method"], _METHODS)
        try:
            spec["methods"][i] = DecorConfig(basis_kind=spec["sim"].basis_kind, **method)
        except ValueError as e:
            _spec_error(pointer, str(e))
    try:
        return ExperimentSpec(**spec)
    except ValueError as e:
        _spec_error("", str(e))


# --------------------------------------------------------------------- parser


def _add_common_fit_flags(p):
    p.add_argument("--input", required=True, help="input data CSV (t,x_1..x_d,y)")
    p.add_argument("--method", choices=_METHODS)
    p.add_argument("--basis", dest="basis_kind", choices=_BASES)
    p.add_argument(
        "--a",
        type=_parse_threshold,
        help="inlier threshold: an integer is a count of rows (1 keeps one), any other "
        f"number a fraction in (0,1] (1.0 keeps all) (default {DecorConfig.a})",
    )
    p.add_argument("--max-iter", type=int)
    p.add_argument("--bfs-cap", type=int)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deconfound",
        description="Causal-effect estimation under spectrally sparse confounding.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag not given is left out of args, so the config class supplies its default
    config_flags = {"argument_default": argparse.SUPPRESS}

    p = sub.add_parser("simulate", help="generate a synthetic confounded instance", **config_flags)
    p.add_argument("--process", choices=_PROCESSES, default="band")
    p.add_argument("--basis", dest="basis_kind", choices=_BASES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--sigma2", dest="sigma_eta2", type=float, help="response noise variance")
    p.add_argument("--conf-prob", type=float)
    p.add_argument("--dense-u-noise", dest="dense_u_noise_std", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output data CSV path")
    p.add_argument("--truth", default=None, help="ground-truth JSON path (default: <out>.truth.json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="estimate the causal coefficient from a CSV", **config_flags)
    _add_common_fit_flags(p)
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "deconfound", help="fit and write the deconfounding report bundle", **config_flags
    )
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
    except (InputFormatError, ConfigurationError, ValueError, OSError, csv.Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
