import csv
import io
import json
import math

import pytest

from laserplasma.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    main,
    parse_args,
)
from laserplasma.perturbation import total_energy
from laserplasma.potential import ModelParams


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
    assert config.params.field == 0.01
    assert config.params.lambda_d == 5.0
    assert config.params.alpha0 == 0.0001
    assert config.output_format == "csv"
    assert config.precision == 7


def test_parse_table1_defaults():
    config = parse_args(["table1"])
    assert config.subcommand == "table1"
    assert config.params.z == 1.0
    assert config.params.alpha0 == 1e-4


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
    assert config.params.alpha0 == pytest.approx(0.25)


def test_parse_precision_bounds():
    with pytest.raises(UsageError, match="precision"):
        parse_args(["energy", "--lambda-d", "5", "--precision", "0"])
    with pytest.raises(UsageError, match="precision"):
        parse_args(["energy", "--lambda-d", "5", "--precision", "18"])


def test_config_file_seeds_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# reference setup\nlambda_d = 100\nalpha0 = 0.0001\nprecision = 9\n")
    config = parse_args(["energy", "--config", str(cfg), "--field", "0.01"])
    assert config.params.lambda_d == 100.0
    assert config.params.alpha0 == 1e-4
    assert config.precision == 9
    # command line wins over the file
    config = parse_args(["energy", "--config", str(cfg), "--lambda-d", "7"])
    assert config.params.lambda_d == 7.0


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("zeta = 3\n")
    with pytest.raises(UsageError, match="zeta"):
        parse_args(["energy", "--config", str(cfg), "--lambda-d", "5"])


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig("bogus", None)
    with pytest.raises(ValueError):
        RunConfig("energy", None, output_format="xml")


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


def test_oracle_nonconvergence_exit_code(capsys):
    # a deliberately coarse box leaves the extrapolation residual above
    # the convergence tolerance
    code, _, err = run_cli(
        capsys,
        ["oracle", "--lambda-d", "100", "--grid-rmax", "50", "--grid-points", "120"],
    )
    assert code == EXIT_NUMERIC
    assert "did not converge" in err


def test_numeric_failure_exit_code(capsys):
    # potential curve sampled across the dressed-potential pole
    code, _, err = run_cli(
        capsys,
        ["potential", "--lambda-d", "5", "--alpha0", "0.5",
         "--r-min", "0.5", "--r-max", "1.0", "--points", "2"],
    )
    assert code == EXIT_NUMERIC
    assert "numeric failure" in err


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
