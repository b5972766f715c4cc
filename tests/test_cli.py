import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import laserplasma
from laserplasma.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    PotentialTable,
    RunConfig,
    UsageError,
    main,
    parse_args,
    run,
)
from laserplasma.perturbation import total_energy
from laserplasma.potential import (
    ModelParams,
    dressed_pair_eval,
    ecsc_eval,
    taylor_coefficients,
    v0_quadrature,
    veff_series_eval,
)
from laserplasma.sweep import SweepSpec


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return comments, rows[0], rows[1:]


def test_parse_energy_flags():
    config = parse_args(["energy", "--field", "0.01", "--lambda-d", "5", "--alpha0", "0.0001"])
    assert config.subcommand == "energy"
    assert config.request.fixed.field == 0.01
    assert config.request.fixed.lambda_d == 5.0
    assert config.request.fixed.alpha0 == 0.0001
    assert config.output_format == "csv"
    assert config.precision == 7


def test_parse_table1_defaults(capsys):
    config = parse_args(["table1"])
    assert config.subcommand == "table1"
    code, out, _ = run_cli(capsys, ["table1"])
    assert code == EXIT_OK
    comments = out.splitlines()
    assert "# z = 1" in comments
    assert "# alpha0 = 0.0001" in comments


def test_parse_rejects_bad_screening_length():
    with pytest.raises(UsageError, match="lambda_d"):
        parse_args(["energy", "--lambda-d", "-3"])


def test_parse_rejects_unknown_flag():
    with pytest.raises(UsageError):
        parse_args(["energy", "--lambda-d", "5", "--frobnicate", "1"])


def test_parse_requires_lambda():
    with pytest.raises(UsageError, match="lambda_d"):
        parse_args(["energy", "--field", "0.01"])


def test_parse_laser_specification_conflicts():
    with pytest.raises(UsageError, match="either --alpha0 or"):
        parse_args(["energy", "--lambda-d", "5", "--alpha0", "0.1",
                    "--omega", "2", "--e0-amp", "1"])
    with pytest.raises(UsageError, match="together"):
        parse_args(["energy", "--lambda-d", "5", "--omega", "2"])
    config = parse_args(["energy", "--lambda-d", "5", "--omega", "2", "--e0-amp", "1"])
    assert config.request.fixed.alpha0 == pytest.approx(0.25)


def test_parse_precision_bounds():
    with pytest.raises(UsageError, match="precision"):
        parse_args(["energy", "--lambda-d", "5", "--precision", "0"])
    with pytest.raises(UsageError, match="precision"):
        parse_args(["energy", "--lambda-d", "5", "--precision", "18"])


def test_config_file_seeds_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# reference setup\nlambda_d = 100\nalpha0 = 0.0001\nprecision = 9\n")
    config = parse_args(["energy", "--config", str(cfg), "--field", "0.01"])
    assert config.request.fixed.lambda_d == 100.0
    assert config.request.fixed.alpha0 == 1e-4
    assert config.precision == 9
    # command line wins over the file
    config = parse_args(["energy", "--config", str(cfg), "--lambda-d", "7"])
    assert config.request.fixed.lambda_d == 7.0


def test_config_file_sets_output_and_grid_defaults(tmp_path):
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text("lambda-d = 100\nout_format = json\ngrid_rmax = 20\n")
    config = parse_args(["oracle", "--config", str(cfg)])
    assert config.output_format == "json"
    assert config.request.oracle_grid.r_max == 20.0
    assert config.request.vary == "field" and config.request.values == (0.0,)
    assert parse_args(["oracle", "--config", str(cfg), "--format", "csv"]).output_format == "csv"


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("zeta = 3\n")
    with pytest.raises(UsageError, match="zeta"):
        parse_args(["energy", "--config", str(cfg), "--lambda-d", "5"])
    # an unparsable value is reported with the file it came from
    cfg.write_text("lambda_d = 100\nprecision = abc\n")
    with pytest.raises(UsageError, match="precision") as err:
        parse_args(["energy", "--config", str(cfg)])
    assert str(cfg) in str(err.value) and "abc" in str(err.value)


@pytest.mark.parametrize("argv, entry, key", [
    (["energy", "--lambda-d", "5"], "grid_points = abc", "grid_points"),
    (["table1"], "z = 2", "z"),
], ids=["energy-grid-points", "table1-z"])
def test_config_file_rejects_key_the_subcommand_does_not_take(tmp_path, capsys, argv, entry, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entry + "\n")
    with pytest.raises(UsageError) as err:
        parse_args([*argv, "--config", str(cfg)])
    assert str(cfg) in str(err.value) and repr(key) in str(err.value)
    code, out, err = run_cli(capsys, [*argv, "--config", str(cfg)])
    assert code == EXIT_USAGE and out == "" and err.startswith("usage error: ")


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig("bogus", None)
    with pytest.raises(ValueError):
        RunConfig("energy", None, output_format="xml")


@pytest.mark.parametrize("subcommand", ["energy", "oracle", "sweep"])
def test_runconfig_without_sweep_spec(capsys, subcommand):
    p = ModelParams(lambda_d=5.0, omega=2.0, e0_amp=1.0, alpha0=0.25, field=0.002)
    if subcommand != "energy":
        # values and outputs cannot be guessed, so construction refuses
        with pytest.raises(ValueError, match="sweep spec"):
            RunConfig(subcommand, p)
        return
    # energy derives its one-value field sweep and prints what the CLI prints
    assert run(RunConfig("energy", p, precision=17)) == EXIT_OK
    hand_built = capsys.readouterr().out
    code, out, _ = run_cli(capsys, ["energy", "--lambda-d", "5", "--omega", "2", "--e0-amp", "1",
                                    "--field", "0.002", "--precision", "17"])
    assert code == EXIT_OK and hand_built == out


P5 = ModelParams(lambda_d=5.0)


@pytest.mark.parametrize("subcommand, request_", [
    ("energy", SweepSpec("field", (0.0, 0.01), P5)),
    ("oracle", SweepSpec("lambda_d", (5.0,), P5, outputs={"breakdown", "oracle"})),
    ("energy", SweepSpec("field", (0.01,), P5)),
    ("oracle", SweepSpec("field", (0.0,), P5)),
    ("sweep", P5),
    ("figure", None),
    ("figure", "fig9"),
    ("potential", P5),
    ("table1", P5),
], ids=["energy-two-values", "oracle-lambda-d", "energy-value-not-its-field",
        "oracle-without-oracle-output", "sweep-params", "figure-none", "figure-fig9",
        "potential-params", "table1-params"])
def test_runconfig_refuses_a_request_of_the_wrong_kind(subcommand, request_):
    # the subcommand fixes the request's type, so a header printed from the
    # request cannot contradict the rows
    with pytest.raises(ValueError, match=f"{subcommand} takes "):
        RunConfig(subcommand, request_)


def test_runconfig_header_comes_from_the_request(capsys):
    spec = SweepSpec("field", (0.01,), ModelParams(lambda_d=100.0, alpha0=1e-4))
    assert run(RunConfig("sweep", spec)) == EXIT_OK
    out = capsys.readouterr().out
    assert "# lambda_d = 100\n" in out and out.endswith(",-1.9725072\n")
    table = PotentialTable(P5, (1.0, 2.0), quad_nodes=None)
    assert run(RunConfig("potential", table)) == EXIT_OK
    _, header, rows = parse_csv(capsys.readouterr().out)
    assert header[-1] == "series" and len(rows) == 2


def test_energy_csv_output_and_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, ["energy", "--field", "0.0001", "--lambda-d", "100", "--alpha0", "0.0001"]
    )
    assert code == EXIT_OK
    comments, header, rows = parse_csv(out)
    assert header == ["e0", "const_shift", "e1", "e2", "e3", "total"]
    assert any(c.startswith("lambda_d") for c in comments)
    values = dict(zip(header, map(float, rows[0])))
    assert f"{values['total']:.7f}" == "-1.9799255"
    # parsed CSV equals the in-memory result at the printed precision
    b = total_energy(ModelParams(lambda_d=100.0, alpha0=1e-4, field=1e-4))
    for key, attr in (("e0", b.e0), ("total", b.total)):
        assert abs(values[key] - attr) <= 0.5 * 10**-7 + 1e-12


def test_energy_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        ["energy", "--field", "0.0001", "--lambda-d", "100", "--alpha0", "0.0001",
         "--format", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    for key in ("e0", "const_shift", "e1", "e2", "e3", "total"):
        assert isinstance(payload[key], float) and math.isfinite(payload[key])
    assert payload["total"] == pytest.approx(-1.9799255, abs=5e-7)
    assert payload["params"]["lambda_d"] == 100.0


def test_oracle_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        ["oracle", "--field", "0.0001", "--lambda-d", "100", "--alpha0", "0.0001",
         "--grid-rmax", "20", "--format", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    for key in ("e0", "const_shift", "e1", "e2", "e3", "total",
                "oracle_energy", "deviation", "overlap"):
        assert key in payload
    assert abs(payload["deviation"]) < 1e-4
    assert payload["overlap"] >= 0.999


def test_table1_output(capsys):
    code, out, _ = run_cli(capsys, ["table1", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["rows"]) == 12
    idx = payload["columns"].index("deviation")
    assert max(abs(row[idx]) for row in payload["rows"]) < 5e-7


def test_table1_rejects_model_flags(capsys):
    # the table is pinned to Z = 1, alpha0 = 1e-4; it takes output flags only
    code, out, err = run_cli(capsys, ["table1", "--alpha0", "0.05"])
    assert code == EXIT_USAGE
    assert out == "" and "--alpha0" in err


def test_figure_output(capsys):
    code, out, _ = run_cli(capsys, ["figure", "--which", "fig2d"])
    assert code == EXIT_OK
    comments, header, rows = parse_csv(out)
    assert header[0] == "series"
    assert len(rows) == 4 * 50


def test_sweep_values_list(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--vary", "field", "--values", "0.0001,0.01",
         "--lambda-d", "100", "--alpha0", "0.0001"],
    )
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    assert header[0] == "field"
    assert len(rows) == 2
    assert float(rows[0][header.index("total")]) == pytest.approx(-1.9799255, abs=5e-7)


@pytest.mark.parametrize("count", [1, 2, 7])
def test_linear_sweep_range_is_np_linspace(capsys, count):
    # the range is built without numpy, and prints the bytes of the same
    # values given one by one
    fixed = ["sweep", "--vary", "field", "--lambda-d", "20", "--format", "json"]
    values = ",".join(repr(float(v)) for v in np.linspace(0.001, 0.037, count))
    code, expected, _ = run_cli(capsys, [*fixed, "--values", values])
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, [*fixed, "--start", "0.001", "--stop", "0.037",
                                    "--count", str(count)])
    assert code == EXIT_OK
    assert out == expected


def test_sweep_range_flags(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--vary", "lambda-d", "--start", "5", "--stop", "100", "--count", "3",
         "--geometric", "--field", "0.01", "--lambda-d", "1"],
    )
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    assert len(rows) == 3
    assert float(rows[0][0]) == pytest.approx(5.0)
    assert float(rows[-1][0]) == pytest.approx(100.0)


def test_sweep_with_oracle_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--vary", "field", "--values", "0.0001", "--lambda-d", "100",
         "--alpha0", "0.0001", "--with-overlap", "--grid-rmax", "20",
         "--grid-points", "2000"],
    )
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    assert header[-3:] == ["oracle_energy", "deviation", "overlap"]
    row = dict(zip(header, map(float, rows[0])))
    assert abs(row["deviation"]) < 1e-4
    assert row["overlap"] >= 0.999


def test_sweep_header_leaves_out_the_varied_parameter(capsys):
    # each row holds its own lambda_d, so none is needed on the command line
    argv = ["sweep", "--vary", "lambda-d", "--values", "5,10", "--field", "0.01"]
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    comments, header, rows = parse_csv(out)
    assert not any(c.startswith("lambda_d") for c in comments)
    assert header[0] == "lambda_d" and [row[0] for row in rows] == ["5.0000000", "10.0000000"]
    assert run_cli(capsys, [*argv, "--lambda-d", "1"])[1] == out
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert code == EXIT_OK and "lambda_d" not in json.loads(out)


def test_sweep_conflicting_range_flags():
    with pytest.raises(UsageError, match="not both"):
        parse_args(["sweep", "--vary", "field", "--values", "0.1", "--start", "0.0",
                    "--lambda-d", "5"])
    with pytest.raises(UsageError, match="needs"):
        parse_args(["sweep", "--vary", "field", "--lambda-d", "5"])


def test_deterministic_output(capsys):
    argv = ["table1"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_output_file_and_io_failure(tmp_path, capsys):
    target = tmp_path / "energies.csv"
    code, out, _ = run_cli(
        capsys, ["energy", "--lambda-d", "100", "--output", str(target)]
    )
    assert code == EXIT_OK and out == ""
    assert target.read_text().startswith("# laserplasma energy")
    code, _, err = run_cli(
        capsys, ["energy", "--lambda-d", "100", "--output", "/nonexistent-dir/x.csv"]
    )
    assert code == EXIT_IO
    assert "/nonexistent-dir/x.csv" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, ["energy", "--lambda-d", "-3"])
    assert code == EXIT_USAGE
    assert "lambda_d" in err
    code, out, err = run_cli(capsys, ["energy", "--lambda-d", "5", "--field", "nan"])
    assert code == EXIT_USAGE
    assert out == "" and "field must be finite" in err


@pytest.mark.parametrize("argv", [
    ["--vary", "field", "--values", "0.03,0.01,0.02", "--lambda-d", "100"],
    ["--vary", "field", "--values", "0.02,-0.01", "--lambda-d", "100"],
    ["--vary", "lambda-d", "--values", "0,5", "--lambda-d", "1"],
    ["--vary", "field", "--start", "0.01", "--stop", "0.01", "--count", "3", "--lambda-d", "100"],
    ["--vary", "field", "--start", "0.01", "--stop", "0.02", "--count", "0", "--lambda-d", "100"],
    ["--vary", "field", "--start", "0.01", "--stop", "0.02", "--count", "-2", "--lambda-d", "100"],
    ["--vary", "field", "--start", "0.01", "--stop", "0.02", "--count", "0", "--geometric",
     "--lambda-d", "100"],
    ["--vary", "field", "--values", "0.01,0.02", "--lambda-d", "5", "--geometric"],
], ids=["non-monotone", "negative-field", "zero-lambda-d", "empty-range", "zero-count",
        "negative-count", "zero-count-geometric", "values-geometric"])
def test_bad_sweep_values_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, ["sweep", *argv])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("argv, config_text, message", [
    (["energy", "--lambda-d", "5", "--config", "CFG"], None, "cannot read config file"),
    (["energy", "--config", "CFG"], "lambda_d 5\n", "expected 'key = value'"),
    (["sweep", "--vary", "field", "--values", "0.1,abc", "--lambda-d", "5"], None,
     "cannot parse --values"),
    (["potential", "--lambda-d", "5", "--points", "1"], None, "--points must be >= 2"),
    (["potential", "--lambda-d", "5", "--r-min", "5", "--r-max", "1"], None,
     "need 0 < --r-min < --r-max"),
    (["potential", "--lambda-d", "20", "--r-max", "inf", "--points", "3"], None,
     "need 0 < --r-min < --r-max < inf"),
    (["oracle", "--lambda-d", "20", "--grid-rmax", "inf"], None,
     "r_max must be finite and exceed r_min, got r_max = inf"),
    (["sweep", "--vary", "field", "--values", "0.01", "--lambda-d", "20", "--with-oracle",
      "--grid-rmax", "inf"], None, "r_max must be finite and exceed r_min, got r_max = inf"),
    (["sweep", "--vary", "field", "--values", "-0.01,0.02", "--lambda-d", "5"], None,
     "sweep value -0.01 for field"),
    (["sweep", "--vary", "lambda-d", "--values", "0,5", "--field", "0.01"], None,
     "sweep value 0.0 for lambda_d: "),
    (["energy", "--lambda-d", "-inf"], None, "lambda_d must be > 0, got -inf"),
    (["energy", "--lambda-d", "5", "--field", "-nan"], None,
     "field must be finite and >= 0, got nan"),
    (["energy", "--lambda-d", "-information"], None, "argument --lambda-d: expected one argument"),
    (["oracle", "--lambda-d", "100", "--grid-rmin", "0.5"], None,
     "unrecognized arguments: --grid-rmin 0.5"),
    (["oracle", "--config", "CFG"], "lambda_d = 100\ngrid_rmin = 0.5\n",
     "unknown config key 'grid_rmin'"),
    # NaN breaks every order, but the fault to name is the value outside the domain
    (["sweep", "--vary", "field", "--values", "0.01,nan", "--lambda-d", "100"], None,
     "sweep value nan for field: field must be finite and >= 0, got nan"),
    (["sweep", "--vary", "field", "--values", "nan,0.01", "--lambda-d", "100"], None,
     "sweep value nan for field: field must be finite and >= 0, got nan"),
    (["sweep", "--vary", "field", "--values", "0.01,0.01", "--lambda-d", "100"], None,
     "sweep values must be strictly monotone"),
    # both Richardson grids share the far wall, so the error estimate cannot
    # see a box that cuts the state: at 1 it printed -0.476 with estimate 1e-8
    *((["oracle", "--lambda-d", "100", "--alpha0", "1e-4", "--field", "0.01", "--grid-rmax", r],
       None, f"oracle_grid r_max = {r} is too small for the bound state, which needs r_max >= 10")
      for r in ("1e-100", "1e-10", "1", "9.99")),
    (["sweep", "--vary", "field", "--values", "0.01,0.02", "--lambda-d", "100", "--alpha0", "1e-4",
      "--with-oracle", "--grid-rmax", "3"], None, "oracle_grid r_max = 3 is too small"),
], ids=["unreadable-config", "config-line-without-equals", "unparsable-values",
        "one-point", "reversed-radii", "infinite-r-max", "oracle-infinite-grid-rmax",
        "sweep-infinite-grid-rmax", "negative-first-value", "zero-first-lambda-d",
        "minus-inf", "minus-nan", "flag-like-word", "grid-rmin-flag", "grid-rmin-key",
        "nan-last-value", "nan-first-value", "repeated-value", "oracle-box-1e-100",
        "oracle-box-1e-10", "oracle-box-1", "oracle-box-9.99", "sweep-box-3"])
def test_input_errors_are_usage_errors(tmp_path, capsys, argv, config_text, message):
    # CFG names a config file, written only when the case gives its text
    cfg = tmp_path / "run.cfg"
    if config_text is not None:
        cfg.write_text(config_text)
    code, out, err = run_cli(capsys, [str(cfg) if arg == "CFG" else arg for arg in argv])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: ") and message in err


def test_alpha0_sweep_with_laser_pair_is_usage_error(capsys):
    # omega and e0_amp fix alpha0, so the header would contradict the rows
    code, out, err = run_cli(capsys, ["sweep", "--vary", "alpha0", "--values", "0.001,0.002",
                                      "--lambda-d", "5", "--omega", "2", "--e0-amp", "1"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: ") and "omega" in err


def test_oracle_nonconvergence_exit_code(capsys):
    # a deliberately coarse box leaves the extrapolation residual above
    # the convergence tolerance
    code, _, err = run_cli(
        capsys,
        ["oracle", "--lambda-d", "100", "--grid-rmax", "50", "--grid-points", "120"],
    )
    assert code == EXIT_NUMERIC
    assert "did not converge" in err


def test_oracle_nonconvergence_names_the_grid(capsys):
    # at Z = 2 the default grid's estimate is 3.1e-4; four times the points pass
    model = ["--lambda-d", "100", "--alpha0", "1e-4", "--field", "0.01", "--z", "2"]
    code, out, err = run_cli(capsys, ["oracle", *model])
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("oracle did not converge: error estimate 3.12")
    assert "r_max = 50, n_points = 8000" in err and "--grid-points" in err
    code, _, _ = run_cli(capsys, ["oracle", *model, "--grid-points", "32000"])
    assert code == EXIT_OK


def test_sweep_oracle_nonconvergence_matches_oracle_command(capsys):
    # the grid the oracle command refuses must not yield sweep rows either
    model = ["--lambda-d", "100", "--grid-points", "100"]
    code, out, err = run_cli(
        capsys, ["sweep", "--vary", "field", "--values", "0.01,0.02", "--with-oracle", *model]
    )
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("oracle did not converge: error estimate ")
    _, _, oracle_err = run_cli(capsys, ["oracle", "--field", "0.01", *model])
    assert err == oracle_err


def test_potential_rejects_too_few_quadrature_nodes(capsys):
    code, out, err = run_cli(
        capsys, ["potential", "--lambda-d", "5", "--with-quadrature", "--quad-nodes", "4"]
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "--quad-nodes must be >= 8" in err


def test_numeric_failure_exit_code(capsys):
    # potential curve sampled across the dressed-potential pole
    code, _, err = run_cli(
        capsys,
        ["potential", "--lambda-d", "5", "--alpha0", "0.5",
         "--r-min", "0.5", "--r-max", "1.0", "--points", "2"],
    )
    assert code == EXIT_NUMERIC
    assert "numeric failure" in err


@pytest.mark.filterwarnings("error")
def test_potential_overflow_is_a_numeric_failure_naming_the_radius(capsys):
    # the cubic series overflows at a finite radius; no inf row, no numpy warning
    code, out, err = run_cli(
        capsys, ["potential", "--lambda-d", "20", "--r-max", "1e300", "--points", "3"])
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == "numeric failure: series is not finite at r = 5e+299\n"


@pytest.mark.filterwarnings("error")
def test_oracle_grid_out_of_float_range(capsys):
    # a spacing whose square underflows is refused as a usage error naming the grid
    code, out, err = run_cli(capsys, ["oracle", "--lambda-d", "20", "--grid-rmax", "1e-300"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: grid r_min = 0, r_max = 1e-300, n_points = 8000")
    assert err.endswith("whose square underflows\n") and "ModelParams" not in err
    # a box whose series overflows gives its one diagnostic and no numpy warning
    code, out, err = run_cli(capsys, ["oracle", "--lambda-d", "20", "--grid-rmax", "1e308"])
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("numeric failure: potential is not finite at grid point r = ")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_overflowing_trial_function_is_named_in_the_oracle_failure(capsys):
    # the potential is finite on the whole grid, and the solve succeeds (sweep
    # --with-oracle prints a row here); the perturbed wavefunction of the
    # overlap overflows, so the failure names it and not the potential
    code, out, err = run_cli(capsys, ["oracle", "--lambda-d", "0.5", "--field", "0.01"])
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == "numeric failure: trial function is not finite at grid point r = 8.86764\n"


def test_oracle_box_of_twenty_decay_lengths_is_accepted(capsys):
    code, _, _ = run_cli(capsys, ["oracle", "--lambda-d", "100", "--alpha0", "1e-4",
                                  "--field", "0.01", "--grid-rmax", "10"])
    assert code == EXIT_OK


@pytest.mark.parametrize("argv, point", [
    (["energy", "--lambda-d", "1e30"], "lambda_d=1e+30"),
    (["energy", "--lambda-d", "1e-80"], "lambda_d=1e-80"),
    (["energy", "--lambda-d", "5", "--alpha0", "1e40"], "alpha0=1e+40"),
    (["energy", "--lambda-d", "5", "--field", "1e300"], "field=1e+300"),
    (["energy", "--lambda-d", "5", "--z", "1e200"], "z=1e+200"),
    (["energy", "--lambda-d", "5", "--z", "1e300"], "z=1e+300"),
    (["sweep", "--vary", "lambda-d", "--values", "1e25,1e30"], "lambda_d=1e+30"),
    (["potential", "--lambda-d", "1e-120", "--alpha0", "1e-3", "--field", "0.01"],
     "lambda_d=1e-120"),
    (["potential", "--lambda-d", "1e30"], "lambda_d=1e+30"),
], ids=["lambda-huge", "lambda-tiny", "alpha0-huge", "field-huge", "z-huge", "z-errno",
        "sweep-lambda", "potential-lambda-tiny", "potential-lambda-huge"])
def test_float_overflow_is_a_numeric_failure_naming_the_point(capsys, argv, point):
    # the plain-float kernel raises OverflowError or ZeroDivisionError here
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert point in err and "lambda_d=1e+25" not in err
    # the message is the error's text, not an (errno, text) tuple
    assert "(34, " not in err


def test_unscreened_energy_output_is_unchanged(capsys):
    code, out, _ = run_cli(capsys, ["energy", "--lambda-d", "inf"])
    assert code == EXIT_OK
    assert out == (
        "# laserplasma energy\n# z = 1\n# lambda_d = inf\n# alpha0 = 0\n# field = 0\n"
        "# mu = 1\n# hbar = 1\n# e_charge = 1\ne0,const_shift,e1,e2,e3,total\n"
        "-2.0000000,0.0000000,0.0000000,0.0000000,0.0000000,-2.0000000\n"
    )


def test_potential_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        ["potential", "--lambda-d", "5", "--alpha0", "0.001", "--field", "0.01",
         "--r-min", "0.5", "--r-max", "2.0", "--points", "4", "--with-quadrature"],
    )
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    assert header == ["r", "screened", "dressed", "effective", "series", "cycle_avg"]
    assert len(rows) == 4
    first = dict(zip(header, map(float, rows[0])))
    assert first["effective"] == pytest.approx(first["dressed"] + 0.01 * first["r"], rel=1e-6)


def test_potential_columns_match_scalar_evaluation(capsys):
    # the table is evaluated column-wise on the radius array; each entry
    # must equal the library's value at that single radius
    code, out, _ = run_cli(
        capsys,
        ["potential", "--lambda-d", "5", "--alpha0", "0.001", "--field", "0.01",
         "--points", "7", "--log", "--with-quadrature", "--format", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    p = ModelParams(lambda_d=5.0, alpha0=0.001, field=0.01)
    coeffs = taylor_coefficients(p)
    for r, screened, dressed, effective, series, cycle_avg in payload["rows"]:
        assert screened == pytest.approx(ecsc_eval(r, p), rel=1e-15)
        assert dressed == pytest.approx(dressed_pair_eval(r, p), rel=1e-15)
        assert effective == pytest.approx(dressed_pair_eval(r, p) + 0.01 * r, rel=1e-15)
        assert series == pytest.approx(veff_series_eval(r, coeffs), rel=1e-15)
        assert cycle_avg == pytest.approx(v0_quadrature(r, p), rel=1e-15)


# Run by a fresh interpreter: import the CLI, run one request if argv gives
# one, then print a last line holding the exit code and which of numpy and
# scipy got imported.
_IMPORT_PROBE = """
import sys
import laserplasma.cli
code = laserplasma.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *(name for name in ("numpy", "scipy") if name in sys.modules))
"""

_NUMPY = ("numpy",)
_BOTH = ("numpy", "scipy")


def _request(name, argv, loaded):
    # the id names the request and whether it loads scipy
    return pytest.param(argv, loaded, id=f"{name}-{'scipy' in loaded}")


@pytest.mark.parametrize("argv, loaded", [
    _request("energy", ["energy", "--lambda-d", "100", "--field", "0.01"], ()),
    _request("table1", ["table1"], ()),
    _request("figure", ["figure", "--which", "fig2c"], ()),
    *(_request(tag, ["figure", "--which", tag], ()) for tag in ("fig2a", "fig2b", "fig2d")),
    *(_request(tag, ["figure", "--which", tag], _NUMPY) for tag in ("fig1a", "fig1b", "fig1c")),
    _request("potential",
             ["potential", "--lambda-d", "5", "--alpha0", "0.001", "--with-quadrature"], _NUMPY),
    _request("sweep", ["sweep", "--vary", "field", "--values", "0.001,0.01", "--lambda-d", "20"],
             ()),
    _request("sweep-range", ["sweep", "--vary", "field", "--start", "0.001", "--stop", "0.01",
                             "--count", "3", "--lambda-d", "20"], ()),
    _request("sweep-geometric", ["sweep", "--vary", "field", "--start", "0.001", "--stop", "0.01",
                                 "--count", "3", "--geometric", "--lambda-d", "20"], _NUMPY),
    _request("sweep-with-oracle", ["sweep", "--vary", "field", "--values", "0.001,0.01",
                                   "--lambda-d", "20", "--with-oracle", "--grid-rmax", "20"],
             _BOTH),
    _request("oracle", ["oracle", "--lambda-d", "100", "--field", "0.01", "--grid-rmax", "20"],
             _BOTH),
    _request("import", [], ()),
])
def test_only_the_oracle_imports_scipy(argv, loaded):
    # numpy and scipy.linalg take most of the CLI's import time, so numpy
    # loads only for a request that builds an array and scipy only for one
    # that runs the eigensolver; the "import" case imports laserplasma and
    # laserplasma.cli and runs nothing, and the oracle cases show the probe
    # would see both
    env = dict(os.environ)
    src = str(Path(laserplasma.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == " ".join((str(EXIT_OK), *loaded)), proc.stderr
