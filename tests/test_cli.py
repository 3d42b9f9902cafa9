"""CLI surface: CSV ingestion, subcommands, output schemas, exit codes."""

import json
import math
import sys

import numpy as np
import pytest

from extremefit import (
    EvdFamily,
    ModelSpec,
    RngState,
    default_priors,
    fit_mle,
    posterior_target,
    realize,
    sample_chains,
)
from extremefit import cli
from extremefit.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    _format_float,
    _read_table,
    _write_csv,
    json_dumps,
    load_csv,
    main,
)
from extremefit.distributions import quantile_values
from extremefit.optimize import default_start
from extremefit.samplers import MALA_TARGET_ACCEPT, _prior_scales, sample_posterior
from _cases import run_cli, run_python


@pytest.fixture
def sim_csv(tmp_path):
    """A small simulated non-stationary dataset."""
    res = run_cli(
        ["simulate", "--dist", "gev", "--config", "1,0,0",
         "--true-params", "10,0.02,5,0.1", "--n", "120", "--seed", "42",
         "--out", "sim"],
        tmp_path,
    )
    assert res.returncode == EXIT_OK, res.stderr
    return tmp_path / "sim" / "simulated.csv"


@pytest.fixture
def gpd_csv(tmp_path):
    """Stationary GPD exceedances of the threshold 0."""
    assert main(["simulate", "--dist", "gpd", "--true-params", "0,2,0.1", "--n", "200",
                 "--seed", "3", "--out", str(tmp_path / "gpd")]) == EXIT_OK
    return tmp_path / "gpd" / "simulated.csv"


class TestLoadCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("value,temp\n1.0,20\n2.0,21\n3.0,22\n")
        data, cov, names = load_csv(p)
        assert data.shape == (3,)
        assert cov.shape == (3, 1)
        assert names == ["temp"]

    def test_value_case_insensitive_and_order(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("year,Value,temp\n2000,1.0,20\n2001,2.0,21\n")
        data, cov, names = load_csv(p)
        assert np.array_equal(data, [1.0, 2.0])
        assert names == ["year", "temp"]
        assert np.array_equal(cov, [[2000.0, 20.0], [2001.0, 21.0]])

    def test_missing_value_column_names_available(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError, match="available columns.*'a', 'b'"):
            load_csv(p)

    def test_nan_cell_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        rows = ["value,x"] + [f"{i}.0,1.0" for i in range(1, 10)]
        rows[7] = "NaN,1.0"  # data row 7
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ConfigError, match=r"rows \[7\]"):
            load_csv(p)

    def test_unparsable_cell_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("value,x\n1.0,2.0\nbad,3.0\n")
        with pytest.raises(ConfigError, match=r"rows \[2\]"):
            load_csv(p)

    def test_empty_data(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("value,x\n")
        with pytest.raises(ConfigError, match="no data rows"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_csv(tmp_path / "nope.csv")

    def test_directory_or_non_utf8_file_names_the_path(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"value\n1.0\n\xff2.0\n")
        for path in (tmp_path, p):
            with pytest.raises(ConfigError, match="cannot read") as info:
                load_csv(path)
            assert str(path) in str(info.value)


_TABLES = {
    "plain": "value,c\n1.5,2\n-3e-5,4\n",
    "crlf": "value,c\r\n1.5,2\r\n3,4\r\n",
    "no final newline": "value\n1\n2",
    "blank lines": "value,c\n\n1,2\n\n3,4\n\n",
    "whitespace line": "value\n1\n   \n2\n",
    "empty-cells line": "value,c\n1,2\n,\n3,4\n",
    "hash line": "value\n1\n# note\n2\n",
    "quoted cells": 'value,c\n"1.5",2\n3,"4"\n',
    "quoted comma": 'value\n"1,5"\n',
    "spaces": "value,c\n 1.5 , 2 \n\t3,4\n",
    "nan": "value\n1\nnan\n",
    "inf": "value\ninf\n2\n",
    "underscore": "value\n1_0\n2\n",
    "missing cell": "value,c\n1,2\n3\n",
    "missing everywhere": "value,c\n1\n3\n",
    "extra cell": "value,c\n1,2\n3,4,5\n",
    "extra everywhere": "value,c\n1,2,9\n3,4,5\n",
    "trailing comma": "value\n1,\n",
    "header only": "value,c\n",
    "empty": "",
}


@pytest.mark.parametrize("text", _TABLES.values(), ids=_TABLES.keys())
def test_loadtxt_and_row_by_row_readers_agree(tmp_path, monkeypatch, text):
    # the same array, or the same ConfigError, with and without np.loadtxt
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())

    def read():
        try:
            header, table = _read_table(str(path))
        except ConfigError as exc:
            return str(exc)
        return header, table.shape, table.tobytes()

    fast = read()
    monkeypatch.setattr(cli, "_loadtxt", lambda path: None)
    assert read() == fast


def test_loadtxt_reads_a_plain_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(_TABLES["plain"])
    np.testing.assert_array_equal(cli._loadtxt(str(path)), [[1.5, 2.0], [-3e-5, 4.0]])


class TestJsonDumps:
    def test_seventeen_significant_digits(self):
        out = json_dumps({"x": 0.1})
        assert out == '{"x": 0.10000000000000001}'
        assert json.loads(out)["x"] == 0.1

    def test_nonfinite_becomes_null(self):
        assert json_dumps([math.inf, math.nan]) == "[null, null]"

    def test_round_trips_exactly(self):
        values = np.random.default_rng(0).standard_normal(100).tolist()
        decoded = json.loads(json_dumps(values))
        assert decoded == values

    def test_float_lists_same_bytes_as_formatting_each_entry(self):
        rng = np.random.default_rng(4)
        scattered = (rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)).tolist()
        special = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1e16, 2.0**53 + 2.0]
        for values in (scattered + special, special[:1], np.array(special)):
            assert json_dumps(values) == "[" + ", ".join(map(_format_float, values)) + "]"
        # a list holding anything but finite floats takes the entry-by-entry path
        assert json_dumps([1.0, math.nan, 2.5]) == "[1, null, 2.5]"
        assert json_dumps([0.5, True, 3, None]) == "[0.5, true, 3, null]"


class TestWriteCsv:
    @staticmethod
    def _per_cell(header, table):
        """The writer's output as formatting cell by cell gives it."""
        return ",".join(header) + "\n" + "".join(
            ",".join(format(float(v), ".17g") for v in row) + "\n" for row in table)

    def test_same_bytes_as_formatting_each_cell(self, tmp_path):
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.8e308,
                   -1.8e308, 0.1, 1e16, 2.0**53 + 2.0]
        rng = np.random.default_rng(3)
        scattered = rng.standard_normal(60) * 10.0 ** rng.integers(-300, 300, 60)
        table = np.concatenate([special, scattered]).reshape(-1, 3)
        path = tmp_path / "t.csv"
        for part in (table, table[:, :1], table[:0]):
            header = [f"c{j}" for j in range(part.shape[1])]
            _write_csv(str(path), header, part)
            assert path.read_bytes() == self._per_cell(header, part).encode()


class TestSimulate:
    def test_round_trip_exact(self, tmp_path, sim_csv):
        data, cov, names = load_csv(sim_csv)
        assert data.shape == (120,)
        assert cov.shape == (120, 1)
        assert names == ["cov_0"]
        assert np.array_equal(cov[:, 0], np.linspace(0, 1, 120))

    def test_reproducible(self, tmp_path):
        for out in ("a", "b"):
            res = run_cli(
                ["simulate", "--config", "0,0,0", "--true-params", "0,1,0",
                 "--n", "50", "--seed", "7", "--out", out],
                tmp_path,
            )
            assert res.returncode == EXIT_OK
        assert (tmp_path / "a" / "simulated.csv").read_bytes() == \
            (tmp_path / "b" / "simulated.csv").read_bytes()

    def test_covariate_file(self, tmp_path):
        cov = tmp_path / "cov.csv"
        cov.write_text("temp\n" + "\n".join(str(v) for v in range(30)) + "\n")
        res = run_cli(
            ["simulate", "--config", "1,0,0", "--true-params", "0,0.1,1,0",
             "--covariates", "cov.csv", "--seed", "1", "--out", "s"],
            tmp_path,
        )
        assert res.returncode == EXIT_OK
        data, c, names = load_csv(tmp_path / "s" / "simulated.csv")
        assert data.shape == (30,)
        assert names == ["temp"]
        assert np.array_equal(c[:, 0], np.arange(30.0))

    def test_covariate_row_with_extra_cell_names_row(self, tmp_path):
        (tmp_path / "c.csv").write_text("year,temp\n1,2,999\n3,4\n")
        res = run_cli(
            ["simulate", "--config", "1,0,0", "--true-params", "0,0.1,1,0",
             "--covariates", "c.csv", "--seed", "1", "--out", "s"],
            tmp_path,
        )
        assert res.returncode == EXIT_CONFIG
        err = json.loads(res.stderr)
        assert err["error"] == "config"
        assert "rows [1]" in err["message"]
        assert not (tmp_path / "s" / "simulated.csv").exists()

    def test_bad_scale_is_config_error(self, tmp_path):
        res = run_cli(
            ["simulate", "--config", "0,0,0", "--true-params", "0,-1,0",
             "--n", "10", "--out", "s"],
            tmp_path,
        )
        assert res.returncode == EXIT_CONFIG
        err = json.loads(res.stderr)
        assert err["error"] == "config"


class TestFit:
    def test_result_schema(self, tmp_path, sim_csv):
        res = run_cli(
            ["fit", "--input", str(sim_csv), "--dist", "gev", "--config", "1,0,0",
             "--out", "fit", "--return-period", "100"],
            tmp_path,
        )
        assert res.returncode == EXIT_OK, res.stderr
        out = json.loads((tmp_path / "fit" / "result.json").read_text())
        assert set(out) == {"param_names", "theta_hat", "nll", "converged",
                            "termination", "std_errors", "return_levels"}
        assert out["param_names"] == ["loc_intercept", "loc_slope_0", "scale", "shape"]
        assert out["converged"] is True and out["termination"] == "converged"
        assert len(out["theta_hat"]) == 4
        assert len(out["return_levels"]) == 120

    def test_missing_input_is_config_error(self, tmp_path):
        res = run_cli(["fit", "--input", "none.csv", "--out", "f"], tmp_path)
        assert res.returncode == EXIT_CONFIG
        assert json.loads(res.stderr)["error"] == "config"

    def test_bad_config_is_config_error(self, tmp_path, sim_csv):
        res = run_cli(
            ["fit", "--input", str(sim_csv), "--config", "3,0,0", "--out", "f"],
            tmp_path,
        )
        assert res.returncode == EXIT_CONFIG
        assert "location requests" in json.loads(res.stderr)["message"]

    def test_infeasible_init_is_numerical_error(self, tmp_path, sim_csv):
        # shape -0.5 with this location puts data outside the support, and
        # every jitter fallback stays pinned by the explicit tight bounds
        bounds = {"lo": [-0.001, -0.001, 0.999, -0.5001],
                  "hi": [0.001, 0.001, 1.001, -0.4999]}
        (tmp_path / "b.json").write_text(json.dumps(bounds))
        res = run_cli(
            ["fit", "--input", str(sim_csv), "--config", "1,0,0",
             "--init", "0,0,1,-0.5", "--bounds", "b.json", "--out", "f"],
            tmp_path,
        )
        assert res.returncode == EXIT_NUMERICAL
        assert json.loads(res.stderr)["error"] == "numerical"


    def test_init_off_the_pin_is_config_error(self, tmp_path, capsys, gpd_csv):
        out = tmp_path / "f"
        assert main(["fit", "--input", str(gpd_csv), "--dist", "gpd", "--init=-0.5,2,0.1",
                     "--out", str(out)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "loc_intercept" in err["message"]
        assert not out.exists()
        # a bounds file that frees the threshold lets the same --init start the fit
        (tmp_path / "b.json").write_text(json.dumps({"lo": [-1, 1e-8, -0.5],
                                                     "hi": [0.05, 100, 0.5]}))
        assert main(["fit", "--input", str(gpd_csv), "--dist", "gpd", "--init=-0.5,2,0.1",
                     "--bounds", str(tmp_path / "b.json"), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "result.json").read_text())["theta_hat"][0] != 0.0


class TestSample:
    def test_summary_schema_and_traces(self, tmp_path, sim_csv):
        res = run_cli(
            ["sample", "--input", str(sim_csv), "--config", "1,0,0",
             "--sampler", "rw", "--num-samples", "400", "--chains", "2",
             "--seed", "5", "--out", "smp", "--return-period", "50"],
            tmp_path,
        )
        assert res.returncode == EXIT_OK, res.stderr
        summary = json.loads((tmp_path / "smp" / "summary.json").read_text())
        assert set(summary) == {
            "sampler", "dist", "config", "num_samples", "burn_in", "thin",
            "chains", "seed", "temperature", "acceptance_rates", "step_scale",
            "leapfrog", "steps_source", "dic", "params",
        }
        assert summary["sampler"] == "rw" and summary["leapfrog"] is None
        assert len(summary["acceptance_rates"]) == 2
        assert len(summary["params"]) == 4
        for row in summary["params"]:
            assert set(row) == {"name", "mean", "sd", "q05", "q50", "q95",
                                "rhat", "ess"}
        for k in range(2):
            trace = (tmp_path / "smp" / f"trace_{k}.csv").read_text().splitlines()
            assert trace[0] == "loc_intercept,loc_slope_0,scale,shape"
            assert len(trace) == 401
        levels = (tmp_path / "smp" / "return_levels.csv").read_text().splitlines()
        assert levels[0] == "index,return_level"
        assert len(levels) == 121

    def test_rerun_byte_identical(self, tmp_path, sim_csv):
        for out in ("r1", "r2"):
            res = run_cli(
                ["sample", "--input", str(sim_csv), "--config", "1,0,0",
                 "--sampler", "mala", "--num-samples", "300", "--chains", "2",
                 "--seed", "9", "--out", out],
                tmp_path,
            )
            assert res.returncode == EXIT_OK, res.stderr
        for name in ("trace_0.csv", "trace_1.csv", "summary.json"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes()

    @pytest.mark.parametrize("sampler", ["rw", "mala", "hmc"])
    def test_chain_zero_same_alone_and_in_lockstep(self, tmp_path, sim_csv, sampler):
        traces = []
        for chains in (1, 4):
            out = f"{sampler}_{chains}"
            res = run_cli(
                ["sample", "--input", str(sim_csv), "--config", "1,0,0",
                 "--sampler", sampler, "--num-samples", "20" if sampler == "hmc" else "150",
                 "--chains", str(chains), "--seed", "5", "--out", out],
                tmp_path,
            )
            assert res.returncode == EXIT_OK, res.stderr
            traces.append((tmp_path / out / "trace_0.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_step_scale_and_steps_source(self, tmp_path, sim_csv):
        def summary(*extra):
            out = f"s{len(list(tmp_path.iterdir()))}"
            res = run_cli(["sample", "--input", str(sim_csv), "--config", "1,0,0",
                           "--num-samples", "40", "--chains", "2", "--seed", "3",
                           "--out", out, *extra], tmp_path)
            assert res.returncode == EXIT_OK, res.stderr
            return json.loads((tmp_path / out / "summary.json").read_text())

        mala = summary("--sampler", "mala")
        assert mala["steps_source"] == "mle"
        # burn-in adapts each mala chain's multiplier on its own
        assert len(set(mala["step_scale"])) == 2 and 1.0 not in mala["step_scale"]
        assert summary("--sampler", "mala", "--burn-in", "0")["step_scale"] == [1.0, 1.0]
        hmc = summary("--sampler", "hmc", "--eps", "0.3")
        assert hmc["step_scale"] == [0.3, 0.3]
        rw = summary("--sampler", "rw", "--steps", "0.5,0.01,0.5,0.05")
        assert rw["step_scale"] == [1.0, 1.0] and rw["steps_source"] == "steps"

    @pytest.mark.parametrize("dist, true_params, free", [
        ("gev", None, 4),  # GEV (1,0,0): every coordinate is free
        ("gpd", "0,0.5,0.3,0.1", 3),  # GPD (0,1,0): the threshold is pinned
    ])
    def test_hmc_default_step_and_path(self, tmp_path, sim_csv, dist, true_params, free):
        data, config = sim_csv, "1,0,0"
        if dist == "gpd":
            config = "0,1,0"
            assert main(["simulate", "--dist", "gpd", "--config", config, "--true-params",
                         true_params, "--n", "150", "--seed", "8",
                         "--out", str(tmp_path / "g")]) == EXIT_OK
            data = tmp_path / "g" / "simulated.csv"

        def summary(*extra):
            out = tmp_path / f"h{len(list(tmp_path.iterdir()))}"
            assert main(["sample", "--input", str(data), "--dist", dist, "--config", config,
                         "--sampler", "hmc", "--num-samples", "30", "--chains", "2",
                         "--seed", "2", "--out", str(out), *extra]) == EXIT_OK
            return json.loads((out / "summary.json").read_text())

        eps = 0.8 * free ** -0.25
        rule = summary()
        assert rule["step_scale"] == [eps, eps]
        assert rule["leapfrog"] == math.ceil(2.0 / eps)
        # a given flag replaces only its own value
        given_eps = summary("--eps", "0.3")
        assert given_eps["step_scale"] == [0.3, 0.3] and given_eps["leapfrog"] == rule["leapfrog"]
        given_l = summary("--leapfrog", "7")
        assert given_l["step_scale"] == [eps, eps] and given_l["leapfrog"] == 7

    @pytest.mark.parametrize("dist, config, true_params", [
        ("gev", "1,1,1", "10,1,0.7,0.3,0.1,0.1"),
        ("gpd", "0,0,0", "0,2,0.1"),
    ])
    def test_hmc_default_means_agree_with_rw(self, tmp_path, dist, config, true_params):
        assert main(["simulate", "--dist", dist, "--config", config, "--true-params",
                     true_params, "--n", "100", "--seed", "12",
                     "--out", str(tmp_path / "d")]) == EXIT_OK

        def params(sampler, n):
            out = tmp_path / sampler
            assert main(["sample", "--input", str(tmp_path / "d" / "simulated.csv"),
                         "--dist", dist, "--config", config, "--sampler", sampler,
                         "--num-samples", str(n), "--chains", "4", "--seed", "3",
                         "--out", str(out)]) == EXIT_OK
            return json.loads((out / "summary.json").read_text())["params"]

        for h, r in zip(params("hmc", 400), params("rw", 2000)):
            if h["sd"] == r["sd"] == 0.0:  # a pinned threshold
                assert h["mean"] == r["mean"]
                continue
            mcse = math.hypot(h["sd"] / math.sqrt(h["ess"]), r["sd"] / math.sqrt(r["ess"]))
            assert abs(h["mean"] - r["mean"]) <= 5.0 * mcse, (h["name"], h["mean"], r["mean"])

    def test_far_out_hmc_path_writes_no_warning(self, tmp_path):
        # a heavy-tailed (1,1,1) posterior at the default hmc step for k = 6:
        # leapfrog paths reach points where the kernel overflows
        res = run_cli(["simulate", "--config", "1,1,1", "--true-params",
                       "10,1,0.7,0.3,0.4,0.1", "--n", "60", "--seed", "1", "--out", "s"],
                      tmp_path)
        assert res.returncode == EXIT_OK, res.stderr
        res = run_cli(["sample", "--input", "s/simulated.csv", "--config", "1,1,1",
                       "--sampler", "hmc", "--num-samples", "300", "--seed", "5",
                       "--eps", "0.51", "--leapfrog", "4", "--out", "h"], tmp_path)
        assert res.returncode == EXIT_OK and res.stderr == ""

    def test_steps_source_names_the_prior_fallback(self, tmp_path):
        # GPD exceedances that are a smooth curve of the covariate: the fit ends
        # at the shape bound with no usable Hessian, so steps come from the priors
        cov = np.linspace(0.0, 1.0, 200)
        x = np.exp(0.3 * cov) * (0.4 ** -0.1 - 1.0) / 0.1
        path = tmp_path / "curve.csv"
        path.write_text("value,cov_0\n" + "".join(f"{a:.17g},{c:.17g}\n" for a, c in zip(x, cov)))
        res = run_cli(["sample", "--input", str(path), "--dist", "gpd", "--config", "0,1,0",
                       "--num-samples", "20", "--chains", "1", "--seed", "1", "--out", "gp"],
                      tmp_path)
        assert res.returncode == EXIT_OK, res.stderr
        summary = json.loads((tmp_path / "gp" / "summary.json").read_text())
        assert summary["steps_source"] == "prior_fallback"

    @pytest.mark.parametrize("sampler", ["rw", "mala", "hmc"])
    def test_steps_equal_library_chains(self, tmp_path, sim_csv, sampler):
        # --steps gives the diagonal factor diag(steps): the library samplers'
        # own math with the same widths, step sizes or mass 1/steps**2
        data, covariates, _ = load_csv(sim_csv)
        spec = ModelSpec(data=data, covariates=covariates, config=(1, 0, 0),
                         family=EvdFamily.GEV)
        steps = np.array([float(f"{v:.17g}") for v in fit_mle(spec).std_errors])
        n = 30 if sampler == "hmc" else 200
        assert main(["sample", "--input", str(sim_csv), "--config", "1,0,0",
                     "--sampler", sampler, "--steps", ",".join(f"{v:.17g}" for v in steps),
                     "--num-samples", str(n), "--chains", "2", "--seed", "6",
                     "--out", str(tmp_path / "s"),
                     # the library's hmc defaults, which the CLI's do not follow
                     *(["--eps", "0.2", "--leapfrog", "10"] if sampler == "hmc" else [])
                     ]) == EXIT_OK
        chains = sample_chains(
            sampler, posterior_target(spec, default_priors(spec)), n, default_start(spec),
            1.0 / steps**2 if sampler == "hmc" else steps, [RngState(6, k) for k in range(2)],
            target_accept=MALA_TARGET_ACCEPT if sampler == "mala" else None)
        summary = json.loads((tmp_path / "s" / "summary.json").read_text())
        assert summary["steps_source"] == "steps"
        assert summary["acceptance_rates"] == [c.acceptance_rate for c in chains]
        # the two sides differ in the last bits of each step; MALA's drift and its
        # dual averaging in burn-in carry those differences a few digits further
        rtol = 1e-6 if sampler == "mala" else 1e-12
        for k, chain in enumerate(chains):
            trace = np.loadtxt(tmp_path / "s" / f"trace_{k}.csv", delimiter=",", skiprows=1)
            np.testing.assert_allclose(trace, chain.samples, rtol=rtol, atol=1e-3 * rtol)

    @pytest.mark.parametrize("dist,config,init", [("gev", "1,0,0", None),
                                                  ("gpd", "0,0,0", [0.0, 2.0, 0.1])])
    @pytest.mark.parametrize("sampler", ["rw", "mala", "hmc"])
    def test_traces_equal_sample_posterior(self, tmp_path, sim_csv, gpd_csv, dist, config,
                                           init, sampler):
        # the command is argument handling and writing around one library call
        path = sim_csv if dist == "gev" else gpd_csv
        data, covariates, _ = load_csv(path)
        spec = ModelSpec(data=data, covariates=covariates,
                         config=tuple(int(v) for v in config.split(",")),
                         family=EvdFamily.parse(dist))
        init_args = [] if init is None else ["--init", ",".join(map(str, init))]
        assert main(["sample", "--input", str(path), "--dist", dist, "--config", config,
                     "--sampler", sampler, "--num-samples", "60", "--chains", "3",
                     "--seed", "8", "--thin", "2", "--out", str(tmp_path / "s"),
                     *init_args]) == EXIT_OK
        chains, source, leapfrog = sample_posterior(
            spec, default_priors(spec), sampler, 60, [RngState(8, k) for k in range(3)],
            x0=init, thin=2)
        summary = json.loads((tmp_path / "s" / "summary.json").read_text())
        assert (summary["steps_source"], summary["leapfrog"]) == (source, leapfrog)
        assert summary["step_scale"] == [c.step_scale for c in chains]
        for k, chain in enumerate(chains):
            trace = np.loadtxt(tmp_path / "s" / f"trace_{k}.csv", delimiter=",", skiprows=1)
            assert np.array_equal(trace, chain.samples)  # 17 digits read back exactly

    @pytest.mark.parametrize("sampler", ["rw", "mala"])
    def test_mle_correlations_raise_min_ess(self, tmp_path, sampler):
        # GEV (1,0,0) on an uncentred covariate, t in [10, 11]: the intercept
        # and the slope correlate at -0.999 at the MLE, which diagonal scales
        # cannot follow
        n = 100
        t = np.linspace(10.0, 11.0, n)
        shell = ModelSpec(data=np.zeros(n), covariates=t[:, None], config=(1, 0, 0),
                          family=EvdFamily.GEV)
        x = quantile_values(EvdFamily.GEV, RngState(11, 0).uniforms(n),
                            *realize(shell, np.array([10.0, 1.0, 2.0, 0.1])))
        path = tmp_path / "u.csv"
        path.write_text("value,t\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, t)))
        spec = ModelSpec(data=x, covariates=t[:, None], config=(1, 0, 0), family=EvdFamily.GEV)
        fit = fit_mle(spec)
        se = np.sqrt(np.diag(fit.covariance))
        assert fit.covariance[0, 1] / (se[0] * se[1]) < -0.99
        # --steps with diagonal widths: each marginal scale, min(SE, prior scale),
        # times the sampler's constant, without the correlations
        marginal = np.minimum(fit.std_errors, _prior_scales(default_priors(spec)))
        old = marginal * (2.4 / 2.0 if sampler == "rw" else 0.6 * 4.0 ** (-1.0 / 6.0))

        def min_ess(*extra):
            out = tmp_path / f"{sampler}{len(extra)}"
            assert main(["sample", "--input", str(path), "--config", "1,0,0",
                         "--sampler", sampler, "--num-samples", "600", "--chains", "4",
                         "--seed", "1", "--out", str(out), *extra]) == EXIT_OK
            return min(p["ess"] for p in json.loads((out / "summary.json").read_text())["params"])

        diagonal = min_ess("--steps", ",".join(f"{v:.17g}" for v in old))
        assert min_ess() >= 3.0 * diagonal

    def test_env_seed_fallback(self, tmp_path, sim_csv):
        args = ["sample", "--input", str(sim_csv), "--config", "1,0,0",
                "--num-samples", "200", "--chains", "1"]
        r1 = run_cli(args + ["--out", "e1"], tmp_path, env_extra={"EXTREMEFIT_SEED": "31"})
        r2 = run_cli(args + ["--out", "e2", "--seed", "31"], tmp_path)
        assert r1.returncode == r2.returncode == EXIT_OK
        assert (tmp_path / "e1" / "trace_0.csv").read_bytes() == \
            (tmp_path / "e2" / "trace_0.csv").read_bytes()

    def test_priors_file(self, tmp_path, sim_csv):
        priors = [
            {"kind": "normal", "a": 10.0, "b": 5.0},
            {"kind": "normal", "a": 0.0, "b": 1.0},
            {"kind": "normal", "a": 5.0, "b": 2.0},
            {"kind": "uniform", "a": -0.5, "b": 0.5},
        ]
        (tmp_path / "p.json").write_text(json.dumps(priors))
        res = run_cli(
            ["sample", "--input", str(sim_csv), "--config", "1,0,0",
             "--num-samples", "200", "--chains", "1", "--priors", "p.json",
             "--seed", "2", "--out", "wp"],
            tmp_path,
        )
        assert res.returncode == EXIT_OK, res.stderr
        summary = json.loads((tmp_path / "wp" / "summary.json").read_text())
        shape_row = summary["params"][3]
        assert -0.5 <= shape_row["q05"] <= shape_row["q95"] <= 0.5

    def test_wrong_priors_length_is_config_error(self, tmp_path, sim_csv):
        (tmp_path / "p.json").write_text(json.dumps(
            [{"kind": "normal", "a": 0.0, "b": 1.0}]
        ))
        res = run_cli(
            ["sample", "--input", str(sim_csv), "--config", "1,0,0",
             "--priors", "p.json", "--out", "wp"],
            tmp_path,
        )
        assert res.returncode == EXIT_CONFIG

    def test_gpd_location_pinned(self, tmp_path):
        res = run_cli(
            ["simulate", "--dist", "gpd", "--config", "0,0,0",
             "--true-params", "0,2,0.2", "--n", "150", "--seed", "3", "--out", "g"],
            tmp_path,
        )
        assert res.returncode == EXIT_OK
        res = run_cli(
            ["sample", "--input", "g/simulated.csv", "--dist", "gpd",
             "--config", "0,0,0", "--num-samples", "300", "--chains", "1",
             "--seed", "4", "--out", "gs"],
            tmp_path,
        )
        assert res.returncode == EXIT_OK, res.stderr
        summary = json.loads((tmp_path / "gs" / "summary.json").read_text())
        loc = summary["params"][0]
        assert loc["mean"] == 0.0

    @pytest.mark.parametrize("sampler", ["rw", "mala", "hmc"])
    def test_gpd_steps_move_only_the_free_coordinates(self, tmp_path, gpd_csv, sampler):
        # --steps gives the threshold a width too; the pinned threshold ignores it
        out = tmp_path / "gs"
        assert main(["sample", "--input", str(gpd_csv), "--dist", "gpd",
                     "--sampler", sampler, "--steps", "0.1,0.2,0.05",
                     "--num-samples", "40" if sampler == "hmc" else "200", "--chains", "2",
                     "--seed", "3", "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert min(summary["acceptance_rates"]) > 0.0
        loc = summary["params"][0]
        assert (loc["mean"], loc["sd"], loc["rhat"], loc["ess"]) == (0.0, 0.0, None, 0.0)
        for k in range(2):
            trace = np.loadtxt(out / f"trace_{k}.csv", delimiter=",", skiprows=1)
            assert np.all(trace[:, 0] == 0.0) and np.all(np.ptp(trace[:, 1:], axis=0) > 0)

    def test_init_off_the_pin_is_config_error(self, tmp_path, capsys, gpd_csv):
        out = tmp_path / "gs"
        assert main(["sample", "--input", str(gpd_csv), "--dist", "gpd", "--init=-0.5,2,0.1",
                     "--num-samples", "20", "--chains", "1", "--out", str(out)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "loc_intercept" in err["message"]
        assert not out.exists()


    def test_gpd_lmoment_start_outside_support(self, tmp_path):
        # the L-moment shape puts max(x) above the upper endpoint; the start shrinks it
        u = np.random.default_rng(14).random(50)
        x = ((1.0 - u) ** 0.2 - 1.0) / -0.2
        (tmp_path / "g.csv").write_text("value\n" + "".join(f"{v:.17g}\n" for v in x))
        res = run_cli(["sample", "--input", "g.csv", "--dist", "gpd", "--num-samples", "50",
                       "--chains", "1", "--seed", "1", "--out", "gs"], tmp_path)
        assert res.returncode == EXIT_OK, res.stderr
        summary = json.loads((tmp_path / "gs" / "summary.json").read_text())
        assert summary["steps_source"] == "mle"


class TestLrtCommand:
    def test_schema(self, tmp_path, sim_csv):
        res = run_cli(
            ["lrt", "--input", str(sim_csv), "--null-config", "0,0,0",
             "--alt-config", "1,0,0", "--out", "l"],
            tmp_path,
        )
        assert res.returncode == EXIT_OK, res.stderr
        out = json.loads((tmp_path / "l" / "lrt.json").read_text())
        assert set(out) == {"statistic", "df", "p_value", "nll_null", "nll_alt"}
        assert out["df"] == 1
        assert out["statistic"] >= 0.0

    def test_gpd_threshold_pinned(self, tmp_path):
        # threshold-5 exceedances: a free threshold would move to min(data) and fit far better
        assert main(["simulate", "--dist", "gpd", "--config", "0,1,0",
                     "--true-params", "5,0,0.3,0.1", "--n", "300", "--seed", "6",
                     "--out", str(tmp_path / "g")]) == EXIT_OK
        csv_path = str(tmp_path / "g" / "simulated.csv")
        nll = {}
        for cfg in ("0,0,0", "0,1,0"):
            out = tmp_path / f"fit{cfg}"
            assert main(["fit", "--input", csv_path, "--dist", "gpd", "--config", cfg,
                         "--out", str(out)]) == EXIT_OK
            fit = json.loads((out / "result.json").read_text())
            assert fit["theta_hat"][0] == 0.0
            nll[cfg] = fit["nll"]
        assert main(["lrt", "--input", csv_path, "--dist", "gpd", "--null-config", "0,0,0",
                     "--alt-config", "0,1,0", "--out", str(tmp_path / "l")]) == EXIT_OK
        res = json.loads((tmp_path / "l" / "lrt.json").read_text())
        assert res["nll_null"] == nll["0,0,0"]
        assert res["nll_alt"] == pytest.approx(nll["0,1,0"], abs=1e-6)
        assert res["nll_alt"] <= res["nll_null"]

    def test_equal_configs_is_numerical_error(self, tmp_path, sim_csv):
        res = run_cli(
            ["lrt", "--input", str(sim_csv), "--null-config", "0,0,0",
             "--alt-config", "0,0,0", "--out", "l"],
            tmp_path,
        )
        assert res.returncode == EXIT_NUMERICAL


class TestArgumentErrors:
    def test_unknown_sampler(self, tmp_path):
        res = run_cli(["sample", "--input", "x.csv", "--sampler", "nuts"], tmp_path)
        assert res.returncode == EXIT_CONFIG
        assert json.loads(res.stderr)["error"] == "config"

    def test_bad_config_literal(self, tmp_path):
        res = run_cli(["fit", "--input", "x.csv", "--config", "1,2"], tmp_path)
        assert res.returncode == EXIT_CONFIG

    def test_main_returns_codes(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, option, value", [
        ("sample", "--num-samples", "0"),
        ("sample", "--thin", "0"),
        ("sample", "--burn-in", "-1"),
        ("sample", "--temp", "0"),
        ("sample", "--temp", "inf"),
        ("sample", "--eps", "0"),
        ("sample", "--leapfrog", "0"),
        ("sample", "--return-period", "1"),
        ("sample", "--chains", "0"),
        ("sample", "--steps", "0.1,0,0.1,0.1"),
        ("sample", "--steps", "0.1,inf,0.1,0.1"),
        ("fit", "--return-period", "1"),
        ("simulate", "--n", "0"),
        ("sample", "--seed", "-1"),
    ])
    def test_out_of_range_value_exits_before_any_output(self, tmp_path, capsys, sim_csv,
                                                          command, option, value):
        given = ["--true-params", "0,1,0"] if command == "simulate" else ["--input", str(sim_csv)]
        out = tmp_path / "bad"
        assert main([command, *given, option, value, "--out", str(out)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert option in err["message"]
        assert not out.exists()

    def test_negative_env_seed_exits_before_any_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EXTREMEFIT_SEED", "-3")
        out = tmp_path / "bad"
        assert main(["simulate", "--true-params", "0,1,0", "--out", str(out)]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "EXTREMEFIT_SEED" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command, option, content", [
        ("fit", "--bounds", {"lo": [0, "x", 0, 0], "hi": [1, 1, 1, 1]}),
        ("fit", "--bounds", {"lo": 5, "hi": [1, 1, 1, 1]}),
        ("fit", "--bounds", b"\xff"),
        ("sample", "--priors", [{"kind": "normal", "a": "abc", "b": 1.0}] * 4),
    ])
    def test_malformed_bounds_or_priors_file(self, tmp_path, capsys, sim_csv,
                                             command, option, content):
        path = tmp_path / "file.json"
        path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
        assert main([command, "--input", str(sim_csv), "--config", "1,0,0", option, str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command, extra", [
        ("fit", []),
        ("sample", []),
        ("lrt", ["--null-config", "0,0,0", "--alt-config", "1,0,0"]),
    ])
    def test_missing_input_leaves_no_output_directory(self, tmp_path, capsys, command, extra):
        out = tmp_path / "newdir"
        assert main([command, "--input", str(tmp_path / "missing.csv"), *extra,
                     "--out", str(out)]) == EXIT_CONFIG
        assert "input file not found" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()


class TestRuntimeImports:
    def test_cli_loads_only_the_stdlib_numpy_and_extremefit(self, tmp_path):
        # beyond what the bare interpreter has loaded at start-up; the oracle
        # tests' scipy must never become a runtime dependency
        code = ("import sys; before = set(sys.modules); import extremefit.cli; "
                "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))")
        res = run_python(["-c", code], tmp_path)
        assert res.returncode == 0, res.stderr
        assert set(res.stdout.split()) - set(sys.stdlib_module_names) == {"extremefit", "numpy"}
