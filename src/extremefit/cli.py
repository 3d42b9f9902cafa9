"""Command-line surface: data ingestion, fits, samplers, simulation, outputs.

Subcommands
-----------
fit        maximum-likelihood fit; writes result.json
sample     MCMC sampling (rw | mala | hmc) by samplers.sample_posterior,
           one trace CSV per chain plus summary.json and optional
           return_levels.csv. Every sampler runs on u, one entry per free
           coordinate, where theta = x0 + F u: F is the Cholesky factor of
           the MLE covariance with each marginal capped at its prior scale,
           so the chains follow the fit's correlations; traces and
           summaries are written in theta. No sampler adapts: over the k
           free coordinates rw widths are 2.4 sqrt(T / k), mala steps
           1.5 sqrt(T) k**(-1/6), and hmc takes a path of length about 2
           in u, step 0.8 sqrt(T) k**(-1/4) and ceil(2 / (0.8 k**(-1/4)))
           leapfrog steps, T being --temp. --steps, --eps and --leapfrog
           are used as given.
           return_levels.csv is the quantile at the pooled posterior mean
           theta (a plug-in estimate), not a posterior summary of the level.
simulate   draw synthetic data from given true parameters; writes a CSV
           that feeds straight back into fit/sample
lrt        likelihood-ratio test of two nested configurations; lrt.json

The parsed argparse namespace is the run's configuration: each subparser
binds its command function, and argparse holds every default. Option values
are checked when they are parsed: --num-samples, --thin, --chains,
--leapfrog and --n must be >= 1, --burn-in and --seed >= 0, --temp, --eps
and every --steps entry finite and > 0, every --init and --true-params entry
finite, and --return-period finite and > 1, so a violation exits 1 before
any file is read or written. The --out directory is made at a command's
first write, after its inputs are checked.

Exit codes: 0 success, 1 configuration error, 2 numerical failure. Errors
are emitted as one JSON line on stderr. All floats are serialized with 17
significant digits, so reruns with the same seed are byte-identical.

GPD data are treated as pre-computed exceedances: ``infer_bounds`` pins the
location (threshold) components to 0. ``fit`` and ``lrt`` hold them there
unless a bounds file (``fit --bounds``) frees them; ``sample`` moves only the
free coordinates, so every draw holds a pinned one at its pin. In both
commands an ``--init`` off a pin is a configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from .diagnostics import dic, lrt, posterior_summary, return_levels
from .distributions import EvdFamily, quantile_values
from .errors import ExtremeFitError
from .model import ModelSpec, param_dim, param_names, realize, validate_config
from .numerics import RngState
from .optimize import Bounds, default_start, fit_mle, infer_bounds, load_bounds
from .priors import default_priors, load_priors
from .samplers import sample_posterior

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

_CSV_BLOCK = 2048  # rows formatted per call by _write_csv

class ConfigError(Exception):
    """User-facing configuration problem (exit code 1)."""


# ---------------------------------------------------------------------------
# serialization: 17 significant digits, deterministic layout


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def _json_fragment(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(_format_float(x) if math.isfinite(x) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if len(obj) and all(isinstance(v, float) for v in obj) and all(map(math.isfinite, obj)):
            # the same text as one _format_float per entry, from one % over a template
            out.append("[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]")
            return
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _json_fragment(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)) + ": ")
            _json_fragment(v, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    parts: list[str] = []
    _json_fragment(obj, parts)
    return "".join(parts)


def _output(args: argparse.Namespace, name: str) -> str:
    """The path of output file name, creating the --out directory on first use."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json_dumps(obj) + "\n")


def _write_csv(path: str, header: list[str], table: np.ndarray) -> None:
    """Write header and an (n, k) table, each cell as _format_float writes it.

    One % over a repeated row template formats a block of rows in a single
    call ("%.17g" % x and format(x, ".17g") give the same text for every
    float); blocks of _CSV_BLOCK rows keep the strings small for long tables.
    """
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, table.shape[0], _CSV_BLOCK):
            block = table[i:i + _CSV_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# CSV ingestion


def _loadtxt(path: str):
    """np.loadtxt's parse of the rows after the header, or None where it fails.

    Its C parser reads a long plain file several times faster than the csv
    module; a file with no data rows, which it warns about, gives None too.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None,
                              encoding="utf-8")
    except (ValueError, OSError, UserWarning):
        return None


def _read_table(path: str):
    """Read a header-first numeric CSV into (header, rows x columns array).

    Blank lines are skipped. Rows with a missing, extra, unparsable or
    non-finite cell are rejected with their row numbers, and a path that
    cannot be read as UTF-8 text with the path. The table is _loadtxt's
    when that has the header's width and only finite cells; any other file
    is read row by row, which gives the same array or names the bad rows.
    """
    if not os.path.exists(path):
        raise ConfigError(f"input file not found: {path}")
    table = _loadtxt(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise ConfigError(f"{path} is empty")
            if table is not None and table.shape[1] == len(header) and np.isfinite(table).all():
                return header, table
            rows: list[list[float]] = []
            bad_rows: list[int] = []
            for row_no, row in enumerate(reader, start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                try:
                    cells = [float(cell) for cell in row]
                    if len(cells) != len(header) or not all(math.isfinite(v) for v in cells):
                        raise ValueError
                except ValueError:
                    bad_rows.append(row_no)
                    continue
                rows.append(cells)
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or bytes that are not UTF-8
        raise ConfigError(f"cannot read {path}: {exc}")
    if bad_rows:
        raise ConfigError(f"unparsable cells in {path} at rows {bad_rows}")
    if not rows:
        raise ConfigError(f"{path} contains no data rows")
    return header, np.array(rows)


def _split_value(header: list[str], table: np.ndarray):
    """Separate the "value" column (case-insensitive, index or None) from the rest."""
    lowered = [h.lower() for h in header]
    value_idx = lowered.index("value") if "value" in lowered else None
    keep = [i for i in range(len(header)) if i != value_idx]
    return value_idx, table[:, keep], [header[i] for i in keep]


def load_csv(path: str):
    """Read a header-first CSV into (data, covariates, covariate names).

    The column named "value" (case-insensitive) is the data vector; every
    other column, in file order, becomes a covariate. Rows with any
    unparsable or non-finite cell are rejected with their row numbers.
    """
    header, table = _read_table(path)
    value_idx, covariates, cov_names = _split_value(header, table)
    if value_idx is None:
        raise ConfigError(f'no "value" column in {path}; available columns: {header}')
    return table[:, value_idx].copy(), covariates, cov_names


# ---------------------------------------------------------------------------
# shared assembly helpers


def _build_spec(dist: str, config, data, covariates) -> ModelSpec:
    spec = ModelSpec(data=data, covariates=covariates, config=config,
                     family=EvdFamily.parse(dist))
    violations = validate_config(spec)
    if violations:
        raise ConfigError("; ".join(violations))
    return spec


def _check_len(values, dim: int, label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size != dim:
        raise ConfigError(f"{label} has {arr.size} entries, model needs {dim}")
    return arr


def _read_sized(path: str, load, label: str, size, spec: ModelSpec):
    """load(path), whose size(...) must equal the model's parameter count."""
    try:
        obj = load(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ExtremeFitError) as exc:
        raise ConfigError(f"cannot read {label} file: {exc}")
    if size(obj) != param_dim(spec):
        raise ConfigError(f"{label} file has {size(obj)} entries, model needs {param_dim(spec)}")
    return obj


def _resolve_init(init, spec: ModelSpec, bounds: Bounds) -> np.ndarray:
    """The --init vector, or the default start when there is none.

    An --init entry at a coordinate that the bounds pin must equal the pin.
    """
    if init is None:
        return default_start(spec)
    x0 = _check_len(init, param_dim(spec), "--init")
    off_pin = np.flatnonzero(bounds.pinned & (x0 != bounds.lo))
    if off_pin.size:
        i = off_pin[0]
        raise ConfigError(f"--init entry {i} ({param_names(spec)[i]}) must equal its pin "
                          f"{bounds.lo[i]:.17g}, got {x0[i]:.17g}")
    return x0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fit(args: argparse.Namespace) -> None:
    data, covariates, _ = load_csv(args.input)
    spec = _build_spec(args.dist, args.config, data, covariates)
    bounds = (_read_sized(args.bounds_path, load_bounds, "bounds", lambda b: b.lo.size, spec)
              if args.bounds_path else infer_bounds(spec))
    result = fit_mle(spec, _resolve_init(args.init, spec, bounds), bounds)
    payload = {
        "param_names": param_names(spec),
        "theta_hat": result.theta_hat.tolist(),
        "nll": result.nll_min,
        "converged": result.converged,
        "termination": result.termination,
        "std_errors": None if result.std_errors is None else result.std_errors.tolist(),
    }
    if args.return_period is not None:
        payload["return_levels"] = return_levels(
            spec, result.theta_hat, args.return_period
        ).tolist()
    _write_json(_output(args, "result.json"), payload)


def _cmd_sample(args: argparse.Namespace) -> None:
    data, covariates, _ = load_csv(args.input)
    spec = _build_spec(args.dist, args.config, data, covariates)
    bounds = infer_bounds(spec)
    priors = (_read_sized(args.priors_path, load_priors, "priors", len, spec)
              if args.priors_path else default_priors(spec))
    x0 = _resolve_init(args.init, spec, bounds)
    steps = None if args.steps is None else _check_len(args.steps, param_dim(spec), "--steps")
    chains, steps_source, leapfrog = sample_posterior(
        spec, priors, args.sampler, args.num_samples,
        [RngState(args.seed, k) for k in range(args.chains)], x0=x0, steps=steps,
        T=args.temp, burn_in=args.burn_in, thin=args.thin, eps=args.eps,
        n_leapfrog=args.leapfrog)

    names = param_names(spec)
    for k, chain in enumerate(chains):
        _write_csv(_output(args, f"trace_{k}.csv"), names, chain.samples)

    rows = posterior_summary(chains, spec)
    pooled = np.vstack([c.samples for c in chains])
    dic_value = dic(chains, spec) if pooled.shape[0] >= 100 else None
    summary = {
        "sampler": args.sampler,
        "dist": args.dist,
        "config": list(args.config),
        "num_samples": args.num_samples,
        "burn_in": chains[0].burn_in,
        "thin": args.thin,
        "chains": args.chains,
        "seed": args.seed,
        "temperature": args.temp,
        "acceptance_rates": [c.acceptance_rate for c in chains],
        "step_scale": [c.step_scale for c in chains],
        "leapfrog": leapfrog,
        "steps_source": steps_source,
        "dic": dic_value,
        "params": [asdict(r) for r in rows],  # SummaryRow's fields, in its order
    }
    _write_json(_output(args, "summary.json"), summary)

    if args.return_period is not None:
        theta_mean = pooled.mean(axis=0)
        levels = return_levels(spec, theta_mean, args.return_period)
        _write_csv(_output(args, "return_levels.csv"), ["index", "return_level"],
                   np.column_stack([np.arange(levels.size, dtype=float), levels]))


def _cmd_simulate(args: argparse.Namespace) -> None:
    a, b, c = args.config
    if args.covariates_path:
        # a covariate file is read like a data file; its "value" column is ignored
        _, covariates, cov_names = _split_value(*_read_table(args.covariates_path))
        if not cov_names:
            raise ConfigError(f"{args.covariates_path} holds no covariate columns")
        n = covariates.shape[0]
    else:
        n, m = args.n, max(a, b, c)
        ramp = np.linspace(0.0, 1.0, n)
        covariates = np.column_stack([ramp] * m) if m else np.empty((n, 0))
        cov_names = [f"cov_{j}" for j in range(m)]
    spec = _build_spec(args.dist, args.config, np.zeros(n), covariates)
    theta = _check_len(args.true_params, param_dim(spec), "--true-params")
    if b == 0 and theta[spec._blocks[1].coefs.start] <= 0:
        raise ConfigError("--true-params scale entry must be > 0")
    loc, scale, shape = realize(spec, theta)
    rng = RngState(args.seed, 0)
    values = quantile_values(spec.family, rng.uniforms(n), loc, scale, shape)
    _write_csv(
        _output(args, "simulated.csv"),
        ["value"] + cov_names,
        (np.column_stack([values, covariates]) if cov_names else values.reshape(-1, 1)),
    )


def _cmd_lrt(args: argparse.Namespace) -> None:
    data, covariates, _ = load_csv(args.input)
    result = lrt(_build_spec(args.dist, args.null_config, data, covariates),
                 _build_spec(args.dist, args.alt_config, data, covariates))
    _write_json(_output(args, "lrt.json"), asdict(result))  # LrtResult's fields, in order


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json_dumps({"error": kind, "message": message}) + "\n")


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Parser whose failures raise ConfigError (exit code 1).

    The type callables below raise ArgumentTypeError, which argparse
    prefixes with the option's name and passes to error().
    """

    def error(self, message):
        raise ConfigError(message)


def _config_triple(text: str) -> tuple[int, int, int]:
    """argparse type: three comma-separated integers a,b,c."""
    try:
        triple = tuple(int(p) for p in text.split(","))
    except ValueError:
        triple = ()
    if len(triple) != 3:
        raise argparse.ArgumentTypeError(f"must be three comma-separated integers, got {text!r}")
    return triple


def _vector(text: str) -> list[float]:
    """argparse type: a comma-separated vector of finite floats."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse a float vector from {text!r}")
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"entries must be finite, got {text!r}")
    return values


def _positive_vector(text: str) -> list[float]:
    """argparse type: a comma-separated vector of finite values > 0."""
    values = _vector(text)
    if not all(v > 0.0 for v in values):
        raise argparse.ArgumentTypeError(f"entries must be finite and > 0, got {text!r}")
    return values


def _checked(base, low: float, strict: bool = False):
    """argparse type: base(text), which must be finite and >= low (> low when strict)."""
    def parse(text: str):
        value = base(text)  # a ValueError gives argparse's "invalid int value" message
        if not (value > low if strict else value >= low) or math.isinf(value):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {low}, got {text}")
        return value
    parse.__name__ = base.__name__
    return parse


def _default_seed() -> int:
    env = os.environ.get("EXTREMEFIT_SEED")
    if env is None:
        return 0
    try:
        return _checked(int, 0)(env)  # the same rule as --seed
    except (ValueError, argparse.ArgumentTypeError):
        raise ConfigError(f"EXTREMEFIT_SEED must be an integer >= 0, got {env!r}")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="extremefit",
        description="Fit stationary and non-stationary GEV/GPD models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    count, positive = _checked(int, 1), _checked(float, 0, strict=True)
    period = _checked(float, 1, strict=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("--input", required=True, help="input CSV with a 'value' column")
        p.add_argument("--dist", choices=["gev", "gpd"], default="gev")
        p.add_argument("--config", default="0,0,0", type=_config_triple,
                       help="covariate counts a,b,c for location, scale, shape")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=_checked(int, 0), default=None,
                       help="RNG seed, >= 0 (default: EXTREMEFIT_SEED or 0)")

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit")
    p_fit.set_defaults(func=_cmd_fit)
    add_common(p_fit)
    p_fit.add_argument("--init", default=None, type=_vector,
                       help="comma-separated starting vector")
    p_fit.add_argument("--bounds", dest="bounds_path", default=None, help="bounds JSON file")
    p_fit.add_argument("--return-period", type=period, default=None,
                       help="return period (> 1)")

    p_sample = sub.add_parser("sample", help="MCMC posterior sampling")
    p_sample.set_defaults(func=_cmd_sample)
    add_common(p_sample)
    p_sample.add_argument("--sampler", choices=["rw", "mala", "hmc"], default="rw")
    p_sample.add_argument("--num-samples", type=count, default=10000,
                          help="retained samples per chain (>= 1)")
    p_sample.add_argument("--burn-in", type=_checked(int, 0), default=None,
                          help="discarded iterations, >= 0 (default 25%% of --num-samples)")
    p_sample.add_argument("--thin", type=count, default=1,
                          help="keep every THIN-th iteration (>= 1)")
    p_sample.add_argument("--chains", type=count, default=4, help="number of chains (>= 1)")
    p_sample.add_argument("--temp", type=positive, default=1.0,
                          help="temperature scaling of the posterior (> 0); the default "
                               "steps scale by its square root")
    p_sample.add_argument("--init", default=None, type=_vector,
                          help="comma-separated starting vector")
    p_sample.add_argument("--steps", default=None, type=_positive_vector,
                          help="per-parameter rw widths / mala step sizes / hmc "
                               "mass**-0.5, in place of the MLE covariance")
    p_sample.add_argument("--priors", dest="priors_path", default=None,
                          help="priors JSON file")
    p_sample.add_argument("--eps", type=positive, default=None,
                          help="hmc leapfrog step size in u (> 0; default 0.8 * k**-0.25 "
                               "for k free coordinates)")
    p_sample.add_argument("--leapfrog", type=count, default=None,
                          help="hmc leapfrog steps (>= 1; default ceil(2 / the default "
                               "--eps))")
    p_sample.add_argument("--return-period", type=period, default=None,
                          help="return period (> 1)")

    p_sim = sub.add_parser("simulate", help="draw synthetic data")
    p_sim.set_defaults(func=_cmd_simulate)
    add_common(p_sim, with_input=False)
    p_sim.add_argument("--true-params", required=True, type=_vector,
                       help="comma-separated packed parameter vector")
    p_sim.add_argument("--n", type=count, default=100, help="observations to draw (>= 1)")
    p_sim.add_argument("--covariates", dest="covariates_path", default=None,
                       help="covariate CSV (default: 0..1 linear ramp)")

    p_lrt = sub.add_parser("lrt", help="likelihood-ratio test of nested configs")
    p_lrt.set_defaults(func=_cmd_lrt)
    add_common(p_lrt)
    p_lrt.add_argument("--null-config", required=True, type=_config_triple)
    p_lrt.add_argument("--alt-config", required=True, type=_config_triple)
    return parser


def main(argv=None) -> int:
    """Parse argv, run the subcommand it names and return the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        if args.seed is None:
            args.seed = _default_seed()
        args.func(args)
        return EXIT_OK
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return EXIT_CONFIG
    except (ExtremeFitError, FloatingPointError, np.linalg.LinAlgError) as exc:
        _emit_error("numerical", str(exc))
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
