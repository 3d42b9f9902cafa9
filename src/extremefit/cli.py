"""Command-line surface: data ingestion, fits, samplers, simulation, outputs.

Subcommands
-----------
fit        maximum-likelihood fit; writes result.json
sample     MCMC sampling (rw | mala | hmc), one trace CSV per chain plus
           summary.json and optional return_levels.csv
simulate   draw synthetic data from given true parameters; writes a CSV
           that feeds straight back into fit/sample
lrt        likelihood-ratio test of two nested configurations; lrt.json

Exit codes: 0 success, 1 configuration error, 2 numerical failure. Errors
are emitted as one JSON line on stderr. All floats are serialized with 17
significant digits, so reruns with the same seed are byte-identical.

GPD data are treated as pre-computed exceedances: the location (threshold)
components are pinned to 0 by default (``infer_bounds`` pins them, and the
default priors hold them within +-1e-8 of the pin) and only move if an
explicit priors file (``sample --priors``) or bounds file (``fit --bounds``)
says otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .diagnostics import dic, lrt, posterior_summary, return_levels
from .distributions import EvdFamily, quantile_values
from .errors import ExtremeFitError
from .model import ModelSpec, param_dim, param_names, realize, validate_config
from .numerics import RngState
from .optimize import Bounds, default_start, fit_mle, infer_bounds, load_bounds
from .priors import PriorComponent, PriorSet, default_priors, load_priors
from .samplers import posterior_target, sample_chains

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

_PIN = 1e-8  # half-width of the uniform default prior around a pinned coordinate
# burn-in adapts each mala chain's step multiplier toward the optimal MALA
# acceptance (Roberts & Rosenthal 1998, JRSS B 60); hmc and rw keep theirs
MALA_TARGET_ACCEPT = 0.574


class ConfigError(Exception):
    """User-facing configuration problem (exit code 1)."""


@dataclass
class RunConfig:
    """Validated arguments for one CLI invocation."""

    command: str
    input: str | None = None
    dist: str = "gev"
    config: tuple[int, int, int] = (0, 0, 0)
    sampler: str = "rw"
    num_samples: int = 10000
    burn_in: int | None = None
    thin: int = 1
    seed: int = 0
    chains: int = 4
    temp: float = 1.0
    init: list[float] | None = None
    steps: list[float] | None = None
    priors_path: str | None = None
    bounds_path: str | None = None
    out: str = "."
    return_period: float | None = None
    n: int = 100
    true_params: list[float] | None = None
    covariates_path: str | None = None
    eps: float = 0.2
    leapfrog: int = 10
    null_config: tuple[int, int, int] | None = None
    alt_config: tuple[int, int, int] | None = None


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


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json_dumps(obj) + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_float(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# CSV ingestion


def _read_table(path: str):
    """Read a header-first numeric CSV into (header, rows x columns array).

    Blank lines are skipped. Rows with a missing, extra, unparsable or
    non-finite cell are rejected with their row numbers.
    """
    if not os.path.exists(path):
        raise ConfigError(f"input file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ConfigError(f"{path} is empty")
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


def _build_spec(cfg: RunConfig, data, covariates) -> ModelSpec:
    family = EvdFamily.parse(cfg.dist)
    spec = ModelSpec(data=data, covariates=covariates, config=cfg.config, family=family)
    violations = validate_config(spec)
    if violations:
        raise ConfigError("; ".join(violations))
    return spec


def _parse_vector(text: str, label: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"could not parse {label} vector from {text!r}")


def _check_len(values, dim: int, label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size != dim:
        raise ConfigError(f"{label} has {arr.size} entries, model needs {dim}")
    return arr


def _resolve_bounds(cfg: RunConfig, spec: ModelSpec) -> Bounds:
    if cfg.bounds_path:
        try:
            bounds = load_bounds(cfg.bounds_path)
        except (OSError, json.JSONDecodeError, ExtremeFitError) as exc:
            raise ConfigError(f"cannot read bounds file: {exc}")
        if bounds.lo.size != param_dim(spec):
            raise ConfigError(
                f"bounds have {bounds.lo.size} entries, model needs {param_dim(spec)}"
            )
        return bounds
    return infer_bounds(spec)


def _resolve_priors(cfg: RunConfig, spec: ModelSpec) -> PriorSet:
    if cfg.priors_path:
        try:
            priors = load_priors(cfg.priors_path)
        except (OSError, json.JSONDecodeError, ExtremeFitError) as exc:
            raise ConfigError(f"cannot read priors file: {exc}")
        if len(priors) != param_dim(spec):
            raise ConfigError(
                f"priors file has {len(priors)} entries, model needs {param_dim(spec)}"
            )
        return priors
    comps = list(default_priors(spec).components)
    pins = infer_bounds(spec)
    for i in np.flatnonzero(pins.pinned):
        comps[i] = PriorComponent("uniform", pins.lo[i] - _PIN, pins.hi[i] + _PIN)
    return PriorSet(tuple(comps))


def _resolve_init(cfg: RunConfig, spec: ModelSpec) -> np.ndarray:
    if cfg.init is not None:
        return _check_len(cfg.init, param_dim(spec), "--init")
    return default_start(spec)


def _prior_scales(priors: PriorSet) -> np.ndarray:
    scales = []
    for comp in priors.components:
        if comp.kind == "normal":
            scales.append(comp.b)
        else:
            scales.append((comp.b - comp.a) / math.sqrt(12.0))
    return np.array(scales)


def _resolve_steps(cfg: RunConfig, spec: ModelSpec, priors: PriorSet,
                   bounds: Bounds, x0) -> tuple[np.ndarray, str]:
    """Per-parameter proposal scales and where they came from.

    The source is "steps" for an explicit --steps vector. Otherwise a quick
    maximum-likelihood fit provides curvature-based scales, capped by the
    prior scales, with a coordinate that the bounds pin moving at its
    prior's scale ("mle"); when the fit fails or its Hessian is unusable
    the prior scales shrunk by 20x are used ("prior_fallback").
    """
    dim = param_dim(spec)
    if cfg.steps is not None:
        return _check_len(cfg.steps, dim, "--steps"), "steps"
    prior_scales = _prior_scales(priors)
    scales, source = 0.05 * prior_scales, "prior_fallback"
    try:
        fit = fit_mle(spec, x0, bounds)
        if fit.std_errors is not None:
            scales = np.where(bounds.pinned, prior_scales,
                              np.minimum(fit.std_errors, prior_scales))
            source = "mle"
    except ExtremeFitError:
        pass
    scales = np.maximum(scales, 1e-12)
    if cfg.sampler == "rw":
        return 2.4 * scales / math.sqrt(dim), source
    if cfg.sampler == "mala":
        return 0.6 * scales * dim ** (-1.0 / 6.0), source
    return scales, source  # hmc: converted to a diagonal mass matrix


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fit(cfg: RunConfig) -> None:
    data, covariates, _ = load_csv(cfg.input)
    spec = _build_spec(cfg, data, covariates)
    bounds = _resolve_bounds(cfg, spec)
    x0 = _resolve_init(cfg, spec)
    result = fit_mle(spec, x0, bounds)
    payload = {
        "param_names": param_names(spec),
        "theta_hat": result.theta_hat.tolist(),
        "nll": result.nll_min,
        "converged": result.converged,
        "std_errors": None if result.std_errors is None else result.std_errors.tolist(),
    }
    if cfg.return_period is not None:
        payload["return_levels"] = return_levels(
            spec, result.theta_hat, cfg.return_period
        ).tolist()
    _write_json(os.path.join(cfg.out, "result.json"), payload)


def _cmd_sample(cfg: RunConfig) -> None:
    data, covariates, _ = load_csv(cfg.input)
    spec = _build_spec(cfg, data, covariates)
    priors = _resolve_priors(cfg, spec)
    x0 = _resolve_init(cfg, spec)
    steps, steps_source = _resolve_steps(cfg, spec, priors, _resolve_bounds(cfg, spec), x0)
    chains = sample_chains(
        cfg.sampler, posterior_target(spec, priors), cfg.num_samples, x0,
        1.0 / steps**2 if cfg.sampler == "hmc" else steps,
        [RngState(cfg.seed, k) for k in range(cfg.chains)], T=cfg.temp,
        burn_in=cfg.burn_in, thin=cfg.thin, eps=cfg.eps, n_leapfrog=cfg.leapfrog,
        target_accept=MALA_TARGET_ACCEPT if cfg.sampler == "mala" else None,
    )

    names = param_names(spec)
    for k, chain in enumerate(chains):
        _write_csv(os.path.join(cfg.out, f"trace_{k}.csv"), names, chain.samples)

    rows = posterior_summary(chains, spec)
    pooled = np.vstack([c.samples for c in chains])
    dic_value = dic(chains, spec, priors) if pooled.shape[0] >= 100 else None
    summary = {
        "sampler": cfg.sampler,
        "dist": cfg.dist,
        "config": list(cfg.config),
        "num_samples": cfg.num_samples,
        "burn_in": chains[0].burn_in,
        "thin": cfg.thin,
        "chains": cfg.chains,
        "seed": cfg.seed,
        "temperature": cfg.temp,
        "acceptance_rates": [c.acceptance_rate for c in chains],
        "step_scale": [c.step_scale for c in chains],
        "steps_source": steps_source,
        "dic": dic_value,
        "params": [
            {
                "name": r.name,
                "mean": r.mean,
                "sd": r.sd,
                "q05": r.q05,
                "q50": r.q50,
                "q95": r.q95,
                "rhat": r.rhat,
                "ess": r.ess,
            }
            for r in rows
        ],
    }
    _write_json(os.path.join(cfg.out, "summary.json"), summary)

    if cfg.return_period is not None:
        theta_mean = pooled.mean(axis=0)
        levels = return_levels(spec, theta_mean, cfg.return_period)
        _write_csv(
            os.path.join(cfg.out, "return_levels.csv"),
            ["index", "return_level"],
            ([float(i), float(v)] for i, v in enumerate(levels)),
        )


def _cmd_simulate(cfg: RunConfig) -> None:
    if cfg.true_params is None:
        raise ConfigError("simulate requires --true-params")
    family = EvdFamily.parse(cfg.dist)
    a, b, c = cfg.config
    if cfg.covariates_path:
        # a covariate file is read like a data file; its "value" column is ignored
        _, covariates, cov_names = _split_value(*_read_table(cfg.covariates_path))
        if not cov_names:
            raise ConfigError(f"{cfg.covariates_path} holds no covariate columns")
        n = covariates.shape[0]
    else:
        n = cfg.n
        if n < 1:
            raise ConfigError("--n must be >= 1")
        m = max(a, b, c)
        ramp = np.linspace(0.0, 1.0, n)
        covariates = np.column_stack([ramp] * m) if m else np.empty((n, 0))
        cov_names = [f"cov_{j}" for j in range(m)]
    spec = ModelSpec(data=np.zeros(n), covariates=covariates, config=cfg.config,
                     family=family)
    violations = validate_config(spec)
    if violations:
        raise ConfigError("; ".join(violations))
    theta = _check_len(cfg.true_params, param_dim(spec), "--true-params")
    if b == 0 and theta[a + 1] <= 0:
        raise ConfigError("--true-params scale entry must be > 0")
    loc, scale, shape = realize(spec, theta)
    rng = RngState(cfg.seed, 0)
    values = quantile_values(family, rng.uniforms(n), loc, scale, shape)
    _write_csv(
        os.path.join(cfg.out, "simulated.csv"),
        ["value"] + cov_names,
        (np.column_stack([values, covariates]) if cov_names else values.reshape(-1, 1)),
    )


def _cmd_lrt(cfg: RunConfig) -> None:
    data, covariates, _ = load_csv(cfg.input)
    null_cfg = RunConfig(command="fit", dist=cfg.dist, config=cfg.null_config)
    alt_cfg = RunConfig(command="fit", dist=cfg.dist, config=cfg.alt_config)
    spec_null = _build_spec(null_cfg, data, covariates)
    spec_alt = _build_spec(alt_cfg, data, covariates)
    result = lrt(spec_null, spec_alt)
    _write_json(
        os.path.join(cfg.out, "lrt.json"),
        {
            "statistic": result.statistic,
            "df": result.df,
            "p_value": result.p_value,
            "nll_null": result.nll_null,
            "nll_alt": result.nll_alt,
        },
    )


def run(cfg: RunConfig) -> int:
    """Execute one validated RunConfig; returns the process exit code."""
    dispatch = {
        "fit": _cmd_fit,
        "sample": _cmd_sample,
        "simulate": _cmd_simulate,
        "lrt": _cmd_lrt,
    }
    if cfg.command not in dispatch:
        _emit_error("config", f"unknown command {cfg.command!r}")
        return EXIT_CONFIG
    try:
        os.makedirs(cfg.out, exist_ok=True)
        dispatch[cfg.command](cfg)
        return EXIT_OK
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return EXIT_CONFIG
    except (ExtremeFitError, FloatingPointError, np.linalg.LinAlgError) as exc:
        _emit_error("numerical", str(exc))
        return EXIT_NUMERICAL


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json_dumps({"error": kind, "message": message}) + "\n")


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise ConfigError(message)


def _parse_config_triple(text: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"--config must be three comma-separated integers, got {text!r}")
    try:
        triple = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--config must be three comma-separated integers, got {text!r}")
    return triple


def _vector(label: str):
    """argparse type for a comma-separated float vector; ConfigError names the option."""
    return lambda text: _parse_vector(text, label)


def _default_seed() -> int:
    env = os.environ.get("EXTREMEFIT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"EXTREMEFIT_SEED must be an integer, got {env!r}")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="extremefit",
        description="Fit stationary and non-stationary GEV/GPD models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument("--input", required=True, help="input CSV with a 'value' column")
        p.add_argument("--dist", choices=["gev", "gpd"], default="gev")
        p.add_argument("--config", default="0,0,0", type=_parse_config_triple,
                       help="covariate counts a,b,c for location, scale, shape")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: EXTREMEFIT_SEED or 0)")

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit")
    add_common(p_fit)
    p_fit.add_argument("--init", default=None, type=_vector("--init"),
                       help="comma-separated starting vector")
    p_fit.add_argument("--bounds", dest="bounds_path", default=None, help="bounds JSON file")
    p_fit.add_argument("--return-period", type=float, default=None)

    p_sample = sub.add_parser("sample", help="MCMC posterior sampling")
    add_common(p_sample)
    p_sample.add_argument("--sampler", choices=["rw", "mala", "hmc"], default="rw")
    p_sample.add_argument("--num-samples", type=int, default=10000,
                          help="retained samples per chain")
    p_sample.add_argument("--burn-in", type=int, default=None,
                          help="discarded iterations (default 25%% of --num-samples)")
    p_sample.add_argument("--thin", type=int, default=1)
    p_sample.add_argument("--chains", type=int, default=4)
    p_sample.add_argument("--temp", type=float, default=1.0,
                          help="temperature scaling of the posterior")
    p_sample.add_argument("--init", default=None, type=_vector("--init"),
                          help="comma-separated starting vector")
    p_sample.add_argument("--steps", default=None, type=_vector("--steps"),
                          help="per-parameter proposal widths / step sizes")
    p_sample.add_argument("--priors", dest="priors_path", default=None,
                          help="priors JSON file")
    p_sample.add_argument("--eps", type=float, default=0.2, help="hmc leapfrog step size")
    p_sample.add_argument("--leapfrog", type=int, default=10, help="hmc leapfrog steps")
    p_sample.add_argument("--return-period", type=float, default=None)

    p_sim = sub.add_parser("simulate", help="draw synthetic data")
    add_common(p_sim, with_input=False)
    p_sim.add_argument("--true-params", required=True, type=_vector("--true-params"),
                       help="comma-separated packed parameter vector")
    p_sim.add_argument("--n", type=int, default=100, help="observations to draw")
    p_sim.add_argument("--covariates", dest="covariates_path", default=None,
                       help="covariate CSV (default: 0..1 linear ramp)")

    p_lrt = sub.add_parser("lrt", help="likelihood-ratio test of nested configs")
    add_common(p_lrt)
    p_lrt.add_argument("--null-config", required=True, type=_parse_config_triple)
    p_lrt.add_argument("--alt-config", required=True, type=_parse_config_triple)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from a parsed namespace; options left unset keep RunConfig's defaults."""
    cfg = RunConfig(**{k: v for k, v in vars(args).items() if v is not None})
    if args.seed is None:
        cfg.seed = _default_seed()
    if cfg.command == "sample" and cfg.chains < 1:
        raise ConfigError("--chains must be >= 1")
    return cfg


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = config_from_args(args)
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
