"""Shared deterministic case generators and the CLI subprocess launcher for tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import extremefit
from extremefit import EvdFamily, ModelSpec, RngState, realize
from extremefit.distributions import quantile_values

CONFIGS = [(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0)]


def random_model_case(index: int, n_obs: int = 40):
    """Deterministic (spec, theta) pair with all observations inside the support.

    Cycles through both families and all four covariate configurations;
    draws are kept away from the support boundary (u in [0.02, 0.98]) so
    finite differences stay clean.
    """
    rng = RngState(881000 + index, 0)
    family = EvdFamily.GEV if index % 2 == 0 else EvdFamily.GPD
    config = CONFIGS[(index // 2) % len(CONFIGS)]
    a, b, c = config
    m = max(2, a, b, c)
    cov = rng.normals(n_obs * m).reshape(n_obs, m)
    theta = [rng.normal() * 3.0]
    theta += [0.5 * rng.normal() for _ in range(a)]
    if b == 0:
        theta.append(0.5 + abs(rng.normal()))
    else:
        theta.append(0.3 * rng.normal())
        theta += [0.2 * rng.normal() for _ in range(b)]
    theta.append(0.6 * (rng.uniform() - 0.5))
    theta += [0.05 * rng.normal() for _ in range(c)]
    theta = np.array(theta)
    shell = ModelSpec(data=np.zeros(n_obs), covariates=cov, config=config, family=family)
    loc, scale, shape = realize(shell, theta)
    u = 0.02 + 0.96 * rng.uniforms(n_obs)
    data = quantile_values(family, u, loc, scale, shape)
    spec = ModelSpec(data=data, covariates=cov, config=config, family=family)
    return spec, theta


def simulate_from(spec_shell: ModelSpec, theta, seed: int) -> np.ndarray:
    """Inverse-CDF draws under the realized parameters of a shell spec."""
    loc, scale, shape = realize(spec_shell, theta)
    u = RngState(seed, 0).uniforms(spec_shell.n_obs)
    return quantile_values(spec_shell.family, u, loc, scale, shape)


def run_python(args, cwd, env_extra=None):
    """Run ``python *args`` in ``cwd`` against the extremefit this process imported.

    The child's ``PYTHONPATH`` starts with the absolute directory that holds
    the imported ``extremefit``, so a relative ``PYTHONPATH`` or a missing
    install cannot make the child load another copy, or none.
    ``EXTREMEFIT_SEED`` is cleared so only ``env_extra`` or flags set the seed.
    """
    src_dir = str(Path(extremefit.__file__).resolve().parents[1])
    env = os.environ.copy()
    env.pop("EXTREMEFIT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env,
    )


def run_cli(args, cwd, env_extra=None):
    """Run ``python -m extremefit *args`` in ``cwd`` (see run_python)."""
    return run_python(["-m", "extremefit", *args], cwd, env_extra)


ROW_KINDS = ("inside", "outside", "zero_scale", "bad_scale")


def batch_rows(spec: ModelSpec, theta, kinds, seed: int) -> np.ndarray:
    """One parameter row per kind, jittered around theta.

    "inside" keeps the jittered row. "outside" puts the location 100 above
    every observation with shape 0.5, so the data lie below the support.
    "zero_scale" and "bad_scale" make the realized scale 0 and negative (a
    raw scale) or 0 and +inf (a log-linear scale whose exp under/overflows).
    """
    a, b, _ = spec.config
    rows = theta + 0.01 * RngState(seed, 0).normals(len(kinds) * theta.size).reshape(
        len(kinds), theta.size)
    for row, kind in zip(rows, kinds):
        if kind == "outside":
            row[0] = spec.data.max() + 100.0
            row[a + b + 2] = 0.5
        elif kind == "zero_scale":
            row[a + 1] = 0.0 if b == 0 else -800.0
        elif kind == "bad_scale":
            row[a + 1] = -abs(row[a + 1]) if b == 0 else 800.0
    return rows
