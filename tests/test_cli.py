import ast
import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import laserplasma
from laserplasma.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _BUILDERS,
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

# the units that ModelParams' band refusals state their bounds in
UNITS = "a0 = hbar^2/(mu z e_charge^2), E_h = z e_charge^2/a0"


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


def test_parse_laser_specification_conflicts(capsys):
    with pytest.raises(UsageError, match="alpha0 = 0.1, but omega and e0_amp fix it at 0.25"):
        parse_args(["energy", "--lambda-d", "5", "--alpha0", "0.1",
                    "--omega", "2", "--e0-amp", "1"])
    with pytest.raises(UsageError, match="together"):
        parse_args(["energy", "--lambda-d", "5", "--omega", "2"])
    config = parse_args(["energy", "--lambda-d", "5", "--omega", "2", "--e0-amp", "1"])
    assert config.request.fixed.alpha0 == 0.25
    # an alpha0 equal to the one the pair fixes is no conflict
    assert parse_args(["energy", "--lambda-d", "5", "--alpha0", "0.25", "--omega", "2",
                       "--e0-amp", "1"]) == config
    # a pair outside its band is one usage line
    for laser, message in ((["--omega", "-1", "--e0-amp", "1", "--alpha0", "0.3"], "got -1"),
                           (["--omega", "0", "--e0-amp", "1"], "got 0"),
                           (["--omega", "nan", "--e0-amp", "1"], "got nan"),
                           (["--omega", "inf", "--e0-amp", "1"], "got inf"),
                           (["--omega", "1e200", "--e0-amp", "1"], "omega must lie in"),
                           (["--omega", "1e-200", "--e0-amp", "1"], "omega must lie in"),
                           (["--omega", "1e-4", "--e0-amp", "1e-10"], "omega must lie in"),
                           (["--omega", "2", "--e0-amp", "2000"], "e0_amp must lie in")):
        code, out, err = run_cli(capsys, ["energy", "--lambda-d", "5", *laser])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error: ") and message in err and err.count("\n") == 1


def test_parse_precision_bounds():
    with pytest.raises(UsageError, match="precision"):
        parse_args(["energy", "--lambda-d", "5", "--precision", "0"])
    with pytest.raises(UsageError, match="precision"):
        parse_args(["energy", "--lambda-d", "5", "--precision", "18"])


def test_config_file_seeds_defaults(tmp_path):
    args = tmp_path / "run.args"
    args.write_text("# reference setup\n--lambda-d 100 --alpha0 0.0001\n--precision 9\n")
    config = parse_args(["energy", f"@{args}", "--field", "0.01"])
    assert config.request.fixed.lambda_d == 100.0
    assert config.request.fixed.alpha0 == 1e-4
    assert config.precision == 9
    # a flag after the file wins over it, as any later flag does
    config = parse_args(["energy", f"@{args}", "--lambda-d", "7"])
    assert config.request.fixed.lambda_d == 7.0
    config = parse_args(["energy", "--lambda-d", "7", f"@{args}"])
    assert config.request.fixed.lambda_d == 100.0


def test_config_file_sets_output_and_grid_defaults(tmp_path):
    args = tmp_path / "oracle.args"
    args.write_text("--lambda-d 100\n--format json\n--grid-rmax 20\n")
    config = parse_args(["oracle", f"@{args}"])
    assert config.output_format == "json"
    assert config.request.oracle_grid.r_max == 20.0
    assert config.request.vary == "field" and config.request.values == (0.0,)
    assert parse_args(["oracle", f"@{args}", "--format", "csv"]).output_format == "csv"


def test_config_file_rejects_unknown_key(tmp_path):
    args = tmp_path / "bad.args"
    args.write_text("--zeta 3\n")
    with pytest.raises(UsageError, match="unrecognized arguments: --zeta 3"):
        parse_args(["energy", f"@{args}", "--lambda-d", "5"])
    # an unparsable value is reported with its flag
    args.write_text("--lambda-d 100\n--precision abc\n")
    with pytest.raises(UsageError, match="argument --precision: invalid int value: 'abc'"):
        parse_args(["energy", f"@{args}"])


@pytest.mark.parametrize("argv, entry, message", [
    (["energy", "--lambda-d", "5"], "--grid-points abc",
     "unrecognized arguments: --grid-points abc"),
    (["table1"], "--z 2", "unrecognized arguments: --z 2"),
], ids=["energy-grid-points", "table1-z"])
def test_config_file_rejects_key_the_subcommand_does_not_take(tmp_path, capsys, argv, entry,
                                                              message):
    args = tmp_path / "run.args"
    args.write_text(entry + "\n")
    with pytest.raises(UsageError, match=message):
        parse_args([*argv, f"@{args}"])
    code, out, err = run_cli(capsys, [*argv, f"@{args}"])
    assert code == EXIT_USAGE and out == "" and err.startswith("usage error: ")


@pytest.mark.parametrize("lines", [
    (("sweep",), ("--vary", "field"), ("--values", "0.0001,0.01,0.04"),
     ("--lambda-d", "100", "--alpha0", "1e-4"), ("--precision", "17")),
    (("sweep", "--vary", "lambda-d"), ("--start", "5", "--stop", "100", "--count", "4"),
     ("--geometric", "--field", "0.01"), ("--format", "json")),
    (("sweep", "--vary", "alpha0", "--values", "0.001,0.002"), ("--lambda-d", "20", "--z", "2")),
], ids=["field", "lambda-d-geometric-json", "alpha0-z2"])
def test_argument_file_holds_a_whole_request(tmp_path, capsys, lines):
    # the subcommand too, with a comment and a quoted output path that holds a space
    target = tmp_path / "out dir" / "sweep rows.csv"
    target.parent.mkdir()
    args = tmp_path / "sweep.args"
    args.write_text("\n".join(["# a stored sweep", *map(shlex.join, lines),
                                f"--output {shlex.quote(str(target))}  # where the rows go"]))
    code, typed, _ = run_cli(capsys, [arg for line in lines for arg in line])
    assert code == EXIT_OK and typed
    code, out, _ = run_cli(capsys, [f"@{args}"])
    assert code == EXIT_OK and out == ""
    assert target.read_bytes() == typed.encode("utf-8")


def test_argument_file_that_names_itself_is_a_usage_error(tmp_path, capsys):
    args = tmp_path / "loop.args"
    args.write_text(f"--lambda-d 5\n@{args}\n")
    code, out, err = run_cli(capsys, ["energy", f"@{args}"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "usage error: an argument file names itself, directly or through others\n"


def test_argument_file_reproduces_the_energy_golden(tmp_path, capsys):
    args = tmp_path / "point.args"
    args.write_text("# a golden point\n--lambda-d 100 --alpha0 1e-4\n"
                    "--field 0.04 --precision 17\n")
    code, out, _ = run_cli(capsys, ["energy", f"@{args}"])
    assert code == EXIT_OK
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "21c901fb12254f32564396da2542b1154a296647eed8358bc16c1fde292d53c4"


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig("bogus", None)
    with pytest.raises(ValueError):
        RunConfig("energy", None, output_format="xml")
    # a float or a bool would reach the format spec as ".7.5f" or ".Truef"
    for precision in (7.5, 7.0, True, 0, 18):
        with pytest.raises(ValueError, match=r"^precision must be an integer in \[1, 17\]"):
            RunConfig("table1", None, precision=precision)
    assert RunConfig("table1", None, precision=np.int64(9)).precision == 9


@pytest.mark.parametrize("subcommand", ["energy", "oracle", "sweep"])
def test_runconfig_without_sweep_spec(subcommand):
    # bare parameters are no request: each of the three takes a sweep spec,
    # energy's and oracle's the one-value field sweep that parse_args builds
    p = ModelParams(lambda_d=5.0, omega=2.0, e0_amp=1.0, alpha0=0.25, field=0.002)
    with pytest.raises(ValueError, match=f"^{subcommand} takes .*sweep spec"):
        RunConfig(subcommand, p)


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
    table = PotentialTable(P5, (1.0, 2.0), with_quadrature=False)
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


@pytest.mark.parametrize("argv", [
    ["energy", "--lambda-d", "5", "--omega", "3", "--e0-amp", "1"],
    ["oracle", "--lambda-d", "100", "--alpha0", "1e-4", "--field", "0.01", "--grid-rmax", "20"],
    ["potential", "--lambda-d", "5", "--alpha0", "0.001", "--field", "0.01", "--points", "3"],
], ids=["energy-laser", "oracle", "potential"])
def test_header_rebuilds_the_request_parameters(capsys, argv):
    # every artifact is reproducible from its own header; the laser pair's
    # alpha0 = 1/9 is no dyadic fraction, and its .17g line must still
    # equal, bit for bit, the value the pair fixes
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    comments, _, _ = parse_csv(out)
    header = {key: float(value) for key, value in
              (comment.split(" = ") for comment in comments if " = " in comment)}
    request = parse_args(argv).request
    params = request.params if isinstance(request, PotentialTable) else request.fixed
    assert ModelParams(**header) == params


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
                "oracle_energy", "deviation", "overlap", "error_estimate"):
        assert key in payload
    assert 0.0 < payload["error_estimate"] < 1e-4
    assert abs(payload["deviation"]) < 1e-4
    assert payload["overlap"] >= 0.999


_ONE_TABLE_CASES = [
    ["energy", "--lambda-d", "100", "--alpha0", "1e-4", "--field", "0.04"],
    ["oracle", "--lambda-d", "100", "--alpha0", "1e-4", "--field", "0.01", "--grid-rmax", "20"],
    ["sweep", "--vary", "field", "--values", "0.0001,0.01", "--lambda-d", "100",
     "--alpha0", "1e-4", "--with-overlap", "--grid-rmax", "20"],
    ["table1"],
    ["figure", "--which", "fig1c"],
    ["potential", "--lambda-d", "5", "--alpha0", "0.001", "--field", "0.01", "--points", "5",
     "--log", "--with-quadrature"],
]


def _printed_to_its_places(token, value):
    """Whether a CSV token is the JSON value rounded to the decimal places it shows."""
    if not isinstance(value, float):
        return token == str(value)
    mantissa, _, exponent = token.partition("e")
    places = len(mantissa.partition(".")[2]) - int(exponent or 0)
    return abs(Decimal(token) - Decimal(value)) <= Decimal(10) ** -places / 2


@pytest.mark.parametrize("argv", _ONE_TABLE_CASES, ids=lambda argv: argv[0])
def test_csv_and_json_print_one_table(capsys, argv):
    # both formats render the same header, columns and rows; energy and
    # oracle print their one row as a flat JSON record under "params"
    code, text, _ = run_cli(capsys, [*argv, "--precision", "17"])
    assert code == EXIT_OK
    comments, columns, rows = parse_csv(text)
    assert comments[0] == f"laserplasma {argv[0]}"
    header = dict(comment.split(" = ", 1) for comment in comments[1:])
    code, text, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload.pop("subcommand") == argv[0]
    if argv[0] in ("energy", "oracle"):
        json_header = payload.pop("params")
        json_columns, json_rows = list(payload), [list(payload.values())]
    else:
        json_columns, json_rows = payload.pop("columns"), payload.pop("rows")
        json_header = payload
    assert list(json_header) == list(header)
    for key, value in json_header.items():
        assert (ast.literal_eval(header[key]) if isinstance(value, str)
                else float(header[key])) == value, key
    assert json_columns == columns
    assert len(json_rows) == len(rows) >= 1
    for row, json_row in zip(rows, json_rows):
        assert len(row) == len(json_row) == len(columns)
        for token, value in zip(row, json_row):
            assert _printed_to_its_places(token, value), (token, value)


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


def _first_column(capsys, argv):
    """The first column of a JSON table request, as the floats it printed."""
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert code == EXIT_OK
    return [row[0] for row in json.loads(out)["rows"]]


@pytest.mark.parametrize("start, stop, num", [
    (0.05, 10.0, 100), (1e-3, 20.0, 7), (0.3, 0.30000000000000004, 2), (2.5e-7, 1.7e3, 1000),
    (1e-12, 1.1e-12, 50)])
def test_potential_radii_are_np_linspace_and_geomspace(capsys, start, stop, num):
    # built in plain floats: the linear radii equal np.linspace bit for bit; the
    # --log radii keep both ends exact and lie within 1e-14 relative of
    # np.geomspace (libm's pow against numpy's SIMD power in the last bits)
    argv = ["potential", "--lambda-d", "5", "--r-min", repr(start), "--r-max", repr(stop),
            "--points", str(num)]
    assert _first_column(capsys, argv) == np.linspace(start, stop, num).tolist()
    radii = _first_column(capsys, [*argv, "--log"])
    assert (radii[0], radii[-1]) == (start, stop)
    np.testing.assert_allclose(radii, np.geomspace(start, stop, num), rtol=1e-14, atol=0)


@pytest.mark.parametrize("start, stop, num", [
    (5.0, 100.0, 3), (1.0, 1e6, 25), (0.5, 2.0, 400), (100.0, 5.0, 9), (20.0, 10.0, 1)])
def test_geometric_sweep_range_is_np_geomspace(capsys, start, stop, num):
    # exact ends, every value within 1e-14 relative of np.geomspace; a
    # decreasing range and a one-value range, which holds --start, too
    values = _first_column(capsys, ["sweep", "--vary", "lambda-d", "--start", repr(start),
                                    "--stop", repr(stop), "--count", str(num), "--geometric"])
    assert len(values) == num and values[0] == start and values[-1] == (stop if num > 1 else start)
    np.testing.assert_allclose(values, np.geomspace(start, stop, num), rtol=1e-14, atol=0)


def test_sweep_with_oracle_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--vary", "field", "--values", "0.0001", "--lambda-d", "100",
         "--alpha0", "0.0001", "--with-overlap", "--grid-rmax", "20",
         "--grid-points", "2000"],
    )
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    assert header[-4:] == ["oracle_energy", "deviation", "overlap", "error_estimate"]
    row = dict(zip(header, map(float, rows[0])))
    assert abs(row["deviation"]) < 1e-4
    assert row["overlap"] >= 0.999
    assert 0.0 < row["error_estimate"] < 1e-4


def test_sweep_with_oracle_json_rows_carry_the_estimate(capsys):
    # every oracle row prints its error estimate, as the oracle command does
    code, out, _ = run_cli(
        capsys,
        ["sweep", "--vary", "field", "--values", "0.0001,0.01", "--lambda-d", "100",
         "--alpha0", "0.0001", "--with-oracle", "--grid-rmax", "20", "--grid-points", "2000",
         "--format", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["columns"] == ["field", "e0", "const_shift", "e1", "e2", "e3", "total",
                                  "oracle_energy", "deviation", "error_estimate"]
    assert len(payload["rows"]) == 2
    for row in payload["rows"]:
        assert 0.0 < row[-1] < 1e-4


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
    assert out == "" and "field must lie in [0, 1000 E_h/a0]" in err


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
    ["--vary", "lambda-d", "--start", "5", "--stop", "-1", "--count", "3", "--geometric",
     "--field", "0.01"],
    ["--vary", "field", "--start", "-0.02", "--stop", "0.01", "--count", "3", "--geometric",
     "--lambda-d", "5"],
], ids=["non-monotone", "negative-field", "zero-lambda-d", "empty-range", "zero-count",
        "negative-count", "zero-count-geometric", "values-geometric", "geometric-negative-stop",
        "geometric-negative-start"])
def test_bad_sweep_values_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, ["sweep", *argv])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("argv, args_text, message", [
    (["energy", "--lambda-d", "5", "@ARGS"], None, "No such file or directory"),
    (["sweep", "--vary", "field", "--values", "0.1,abc", "--lambda-d", "5"], None,
     "cannot parse --values"),
    (["potential", "--lambda-d", "5", "--points", "1"], None, "--points must be >= 2, got 1"),
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
    (["energy", "--lambda-d", "-inf"], None,
     f"lambda_d must lie in [0.001 a0, inf] = [0.001, inf] ({UNITS}); got -inf"),
    (["energy", "--lambda-d", "5", "--field", "-nan"], None,
     f"field must lie in [0, 1000 E_h/a0] = [0, 1000] ({UNITS}); got nan"),
    (["energy", "--lambda-d", "-information"], None, "argument --lambda-d: expected one argument"),
    (["oracle", "--lambda-d", "100", "--grid-rmin", "0.5"], None,
     "unrecognized arguments: --grid-rmin 0.5"),
    (["oracle", "@ARGS"], "--lambda-d 100\n--grid-rmin 0.5\n",
     "unrecognized arguments: --grid-rmin 0.5"),
    # NaN breaks every order, but the fault to name is the value outside the domain
    (["sweep", "--vary", "field", "--values", "0.01,nan", "--lambda-d", "100"], None,
     f"sweep value nan for field: field must lie in [0, 1000 E_h/a0] = [0, 1000] ({UNITS}); "
     "got nan"),
    (["sweep", "--vary", "field", "--values", "nan,0.01", "--lambda-d", "100"], None,
     f"sweep value nan for field: field must lie in [0, 1000 E_h/a0] = [0, 1000] ({UNITS}); "
     "got nan"),
    (["sweep", "--vary", "field", "--values", "0.01,0.01", "--lambda-d", "100"], None,
     "sweep values must be strictly monotone"),
    # all three Richardson grids share the far wall, so the error estimate cannot
    # see a box that cuts the state: at 1 it printed -0.476 with estimate 1e-8
    *((["oracle", "--lambda-d", "100", "--alpha0", "1e-4", "--field", "0.01", "--grid-rmax", r],
       None, f"oracle_grid r_max = {r} is too small for the bound state, which needs r_max >= 10")
      for r in ("1e-100", "1e-10", "1", "9.99")),
    (["sweep", "--vary", "field", "--values", "0.01,0.02", "--lambda-d", "100", "--alpha0", "1e-4",
      "--with-oracle", "--grid-rmax", "3"], None, "oracle_grid r_max = 3 is too small"),
    # the n // 4 grid of 399 points would have 99, below RadialGrid's floor of 100
    (["oracle", "--lambda-d", "100", "--grid-points", "399"], None,
     "oracle_grid n_points = 399 is too few for the n_points // 4 Richardson grid,"
     " which needs n_points >= 400"),
    (["sweep", "--vary", "field", "--values", "0.01", "--lambda-d", "100", "--with-oracle",
      "--grid-points", "399"], None, "oracle_grid n_points = 399 is too few"),
    # below RadialGrid's own floor of 100 too, the oracle's floor is the one to name
    (["oracle", "--lambda-d", "100", "--grid-points", "99"], None,
     "oracle_grid n_points = 99 is too few for the n_points // 4 Richardson grid,"
     " which needs n_points >= 400"),
    # flags that no printed column uses
    (["sweep", "--vary", "field", "--values", "0.01", "--lambda-d", "5", "--grid-points", "20000"],
     None, 'oracle_grid requires the "oracle" output'),
    # the cycle average chooses its own node count
    (["potential", "--lambda-d", "5", "--quad-nodes", "32"], None,
     "unrecognized arguments: --quad-nodes 32"),
    # a non-finite endpoint used to reach the domain check as a NaN the user never gave
    (["sweep", "--vary", "field", "--start", "0", "--stop", "inf", "--count", "3",
      "--lambda-d", "5"], None, "--start and --stop must be finite, got --start 0 --stop inf"),
    (["sweep", "--vary", "lambda-d", "--start", "5", "--stop", "inf", "--count", "3",
      "--field", "0.01"], None, "--start and --stop must be finite, got --start 5 --stop inf"),
    (["sweep", "--vary", "field", "--start", "nan", "--stop", "0.1", "--count", "3",
      "--lambda-d", "5"], None, "--start and --stop must be finite, got --start nan --stop 0.1"),
], ids=["unreadable-config", "unparsable-values",
        "one-point", "reversed-radii", "infinite-r-max", "oracle-infinite-grid-rmax",
        "sweep-infinite-grid-rmax", "negative-first-value", "zero-first-lambda-d",
        "minus-inf", "minus-nan", "flag-like-word", "grid-rmin-flag", "grid-rmin-key",
        "nan-last-value", "nan-first-value", "repeated-value", "oracle-box-1e-100",
        "oracle-box-1e-10", "oracle-box-1", "oracle-box-9.99", "sweep-box-3",
        "oracle-grid-points-399", "sweep-grid-points-399", "oracle-grid-points-99",
        "sweep-grid-without-oracle", "quad-nodes-is-no-flag", "linear-stop-inf-field",
        "linear-stop-inf-lambda-d", "linear-start-nan"])
def test_input_errors_are_usage_errors(tmp_path, capsys, argv, args_text, message):
    # @ARGS names an argument file, written only when the case gives its text
    args = tmp_path / "run.args"
    if args_text is not None:
        args.write_text(args_text)
    code, out, err = run_cli(capsys, [f"@{args}" if arg == "@ARGS" else arg for arg in argv])
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
        ["oracle", "--lambda-d", "100", "--grid-rmax", "50", "--grid-points", "400"],
    )
    assert code == EXIT_NUMERIC
    assert "did not converge" in err


def test_oracle_passes_where_the_two_grid_estimate_refused(capsys):
    # the two-grid estimate read 3.1e-4 both at Z = 2 and on 2000 points
    model = ["--lambda-d", "100", "--alpha0", "1e-4", "--field", "0.01"]
    code, out, _ = run_cli(capsys, ["oracle", *model, "--z", "2"])
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    assert float(rows[0][header.index("error_estimate")]) < 1e-5
    code, _, _ = run_cli(capsys, ["oracle", *model, "--grid-points", "2000"])
    assert code == EXIT_OK


def test_oracle_nonconvergence_names_the_grid(capsys):
    # at Z = 5 a 50 a.u. box's estimate is 3.6e-4; four times the points pass
    model = ["--lambda-d", "100", "--alpha0", "1e-4", "--field", "0.01", "--z", "5",
             "--grid-rmax", "50"]
    code, out, err = run_cli(capsys, ["oracle", *model])
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("oracle did not converge: error estimate 3.6")
    assert "r_max = 50, n_points = 8000" in err and "--grid-points" in err
    code, _, _ = run_cli(capsys, ["oracle", *model, "--grid-points", "32000"])
    assert code == EXIT_OK
    # the default box spans 100 decay lengths, and passes at Z = 5 and 8
    for z in ("5", "8"):
        code, _, _ = run_cli(capsys, ["oracle", *model[:-4], "--z", z])
        assert code == EXIT_OK


def test_sweep_oracle_nonconvergence_matches_oracle_command(capsys):
    # the grid the oracle command refuses must not yield sweep rows either
    model = ["--lambda-d", "100", "--grid-points", "400"]
    code, out, err = run_cli(
        capsys, ["sweep", "--vary", "field", "--values", "0.01,0.02", "--with-oracle", *model]
    )
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("oracle did not converge: error estimate ")
    _, _, oracle_err = run_cli(capsys, ["oracle", "--field", "0.01", *model])
    assert err == oracle_err


def test_potential_rejects_too_few_quadrature_nodes(capsys):
    # --with-quadrature takes no node count, too few or any other
    for count in ("4", "32"):
        code, out, err = run_cli(
            capsys, ["potential", "--lambda-d", "5", "--with-quadrature", count]
        )
        assert (code, out, err) == (EXIT_USAGE, "",
                                    f"usage error: unrecognized arguments: {count}\n")


def test_with_quadrature_is_a_switch():
    argv = ["potential", "--lambda-d", "5", "--alpha0", "0.001", "--field", "0.01"]
    switch = [parse_args([*argv, *flag]).request.with_quadrature
              for flag in ([], ["--with-quadrature"])]
    assert switch == [False, True]


@pytest.mark.parametrize("argv", [[], ["potential"], ["energy"], ["oracle"], ["sweep"],
                                  ["table1"], ["figure"]],
                         ids=lambda argv: argv[0] if argv else "top-level")
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: laserplasma")
    if argv == ["potential"]:
        assert "[--with-quadrature]" in out


def test_negative_point_count_is_a_usage_error(capsys):
    # named by its flag, not as the one-radius table a negative count spaces
    code, out, err = run_cli(capsys, ["potential", "--lambda-d", "5", "--points", "-1"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "usage error: --points must be >= 2, got -1\n"


@pytest.mark.parametrize("radii, message", [
    ((0.0, 1.0), "radii must be finite and > 0, got 0.0"),
    ((), "potential needs at least 2 radii, got 0"),
    ((1.0,), "potential needs at least 2 radii, got 1"),
], ids=["zero-radius", "no-radii", "one-radius"])
def test_potential_table_refuses_what_potential_cannot_print(radii, message):
    # each of these used to exit 3 or print a table with fewer than two rows
    with pytest.raises(ValueError, match=message):
        PotentialTable(ModelParams(lambda_d=5.0), radii, with_quadrature=True)


def test_potential_table_stores_radii_as_floats():
    table = PotentialTable(ModelParams(lambda_d=5.0), np.array([1, 2]))
    assert table.radii == (1.0, 2.0) and all(type(r) is float for r in table.radii)


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
    # a column leaves the floats at a finite radius: the cubic series, the
    # dressed form past exp's range (alpha0 > r + 709 lambda_D), the screened
    # form's 1/r at a subnormal radius, and r / lambda_D past the largest
    # float, where math.cos(inf) raises; no inf row, no numpy warning
    for argv, message in [
        (["--lambda-d", "20", "--r-max", "1e300"], "series is not finite at r = 5e+299"),
        (["--lambda-d", "1", "--alpha0", "1000"], "dressed is not finite at r = 0.05"),
        (["--lambda-d", "5", "--r-min", "1e-320"], "screened is not finite at r = 9.99989e-321"),
        (["--lambda-d", "0.01", "--r-max", "1e307"], "screened is not finite at r = 5e+306"),
    ]:
        code, out, err = run_cli(capsys, ["potential", *argv, "--points", "3"])
        assert (code, out, err) == (EXIT_NUMERIC, "", f"numeric failure: {message}\n"), argv


def test_potential_names_the_point_whose_coefficients_leave_the_floats(capsys):
    # c3 was nan here; the band refuses the screening length, in units of the
    # Bohr radius a0 = 1/Z, before any coefficient is computed
    code, out, err = run_cli(capsys, ["potential", "--lambda-d", "1e-77", "--z", "10"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"usage error: lambda_d must lie in [0.001 a0, inf] = [0.0001, inf] ({UNITS}); "
                   "got 1e-77\n")


def test_potential_notes_the_endpoint_form_error_on_stderr(capsys, tmp_path):
    # (alpha0/r_min)^2/2 above 1e-3 prints one note; stdout and the exit code
    # are those of the same table written to a file
    argv = ["potential", "--lambda-d", "5", "--points", "4"]
    for flags, r_min, estimate in [
        (["--alpha0", "0.01"], "0.05", "0.02"),
        (["--alpha0", "0.0023"], "0.05", "0.0011"),
        (["--alpha0", "0.5", "--r-min", "0.6", "--r-max", "1", "--log"], "0.6", "0.35"),
        (["--alpha0", "0.5", "--r-min", "0.6", "--with-quadrature"], "0.6", "0.35"),
        (["--alpha0", "0.0022"], None, None),
        (["--alpha0", "0.001"], None, None),
        ([], None, None),
    ]:
        code, out, err = run_cli(capsys, [*argv, *flags])
        target = tmp_path / "table.csv"
        assert run_cli(capsys, [*argv, *flags, "--output", str(target)])[:2] == (EXIT_OK, "")
        assert (code, out) == (EXIT_OK, target.read_text(encoding="utf-8")), flags
        if r_min is None:
            assert err == "", flags
        else:
            assert err.count("\n") == 1 and err.startswith(f"note: at r = {r_min} "), err
            assert f"at least about {estimate} relative" in err
            points_at = ("the cycle_avg column holds the cycle average\n"
                         if "--with-quadrature" in flags
                         else "--with-quadrature adds the cycle average\n")
            assert err.endswith(points_at) and "exact" not in err, err


def test_builders_write_nothing(capsys):
    # every builder only returns its table, the potential note included;
    # the renderer is the one writer
    for argv in (["potential", "--lambda-d", "5", "--alpha0", "0.01"],
                 ["energy", "--lambda-d", "20"],
                 ["sweep", "--lambda-d", "20", "--vary", "field", "--values", "0,0.01"],
                 ["table1"], ["figure", "--which", "fig1a"]):
        config = parse_args(argv)
        built = _BUILDERS[config.subcommand][0](config)
        assert capsys.readouterr() == ("", ""), argv
        assert len(built) == (4 if argv[0] == "potential" else 3), argv
        if argv[0] == "potential":
            assert built[3].startswith("note: at r = 0.05 ")


@pytest.mark.filterwarnings("error")
@pytest.mark.filterwarnings("error")
def test_oracle_grid_out_of_float_range(capsys):
    # a spacing whose square underflows or overflows is refused as a usage error
    # naming the grid, and so is a grid whose n // 4 Richardson grid's square overflows
    for argv, start, end in [
        (["oracle", "--lambda-d", "20", "--grid-rmax", "1e-300"],
         "grid r_min = 0, r_max = 1e-300, n_points = 8000", "underflows"),
        (["oracle", "--lambda-d", "20", "--grid-rmax", "1e308"],
         "grid r_min = 0, r_max = 1e+308, n_points = 8000", "overflows"),
        (["oracle", "--lambda-d", "inf", "--grid-rmax", "1e300"],
         "grid r_min = 0, r_max = 1e+300, n_points = 8000", "overflows"),
        (["sweep", "--vary", "field", "--values", "0", "--lambda-d", "inf", "--with-oracle",
          "--grid-rmax", "8e157"],
         "oracle_grid's n_points // 4 Richardson grid is refused: "
         "grid r_min = 0, r_max = 8e+157, n_points = 2000", "overflows"),
    ]:
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"usage error: {start}") and err.count("\n") == 1
        assert err.endswith(f"whose square {end}\n") and "ModelParams" not in err
    # a box whose series overflows gives its one diagnostic and no numpy warning
    code, out, err = run_cli(capsys, ["oracle", "--lambda-d", "20", "--grid-rmax", "1e150"])
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == "numeric failure: potential is not finite at grid point r = 1.24984e+146\n"


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


@pytest.mark.parametrize("argv, message", [
    (["energy", "--lambda-d", "1e-80"],
     f"lambda_d must lie in [0.001 a0, inf] = [0.001, inf] ({UNITS}); got 1e-80"),
    (["energy", "--lambda-d", "1e-77"],
     f"lambda_d must lie in [0.001 a0, inf] = [0.001, inf] ({UNITS}); got 1e-77"),
    (["energy", "--lambda-d", "5", "--field", "1e300"],
     f"field must lie in [0, 1000 E_h/a0] = [0, 1000] ({UNITS}); got 1e+300"),
    (["energy", "--lambda-d", "5", "--z", "1e200"], "z must lie in [1, 1000], got 1e+200"),
    (["energy", "--lambda-d", "5", "--z", "1e300"], "z must lie in [1, 1000], got 1e+300"),
    # the first value outside the band is named, not the first value
    (["sweep", "--vary", "lambda-d", "--values", "1,0.01,1e-20"],
     "sweep value 1e-20 for lambda_d: "
     f"lambda_d must lie in [0.001 a0, inf] = [0.001, inf] ({UNITS}); got 1e-20"),
    (["potential", "--lambda-d", "1e-120", "--alpha0", "1e-3", "--field", "0.01"],
     f"lambda_d must lie in [0.001 a0, inf] = [0.001, inf] ({UNITS}); got 1e-120"),
], ids=["lambda-tiny", "ladder-overflow", "field-huge", "z-huge", "z-errno", "sweep-ladder",
        "potential-lambda-tiny"])
def test_input_past_the_floats_is_a_usage_error_naming_the_band(capsys, argv, message):
    # these inputs left the floats (a power of lambda_D, e3, the ladder's
    # products) and exited 3; each lies outside ModelParams' band, which
    # refuses it as one usage line naming the parameter and its band
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["energy", "--lambda-d", "1e26"],
    ["energy", "--lambda-d", "1e30"],
    ["energy", "--lambda-d", "1e300"],
    ["sweep", "--vary", "lambda-d", "--values", "1e25,1e30"],
    ["potential", "--lambda-d", "1e30"],
], ids=["lambda-1e26", "lambda-huge", "lambda-1e300", "sweep-lambda", "potential-lambda-huge"])
def test_huge_screening_lengths_print_the_unscreened_row(capsys, argv):
    # each coefficient is A lambda_D**-(k+1) times a polynomial in
    # (alpha0/lambda_D)^2, so no power overflows past lambda_D = 4.87e25; every
    # row rounds to the lambda_D = inf row at the printed 7 decimals (a part
    # near 0, such as const_shift = 2e-30, prints in scientific notation)
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    _, _, rows = parse_csv(out)
    if argv[0] == "sweep":  # each row leads with its lambda_d value
        rows, argv = [row[1:] for row in rows], ["energy"]
    _, _, unscreened = parse_csv(run_cli(capsys, [argv[0], "--lambda-d", "inf"])[1])
    assert [[round(float(v), 7) for v in row] for row in rows] == [
        [float(v) for v in row] for row in unscreened * (len(rows) // len(unscreened))]


@pytest.mark.parametrize("argv, prefix, ratio", [
    (["energy", "--lambda-d", "1", "--alpha0", "2.5"], "", "2.5"),
    (["energy", "--lambda-d", "1", "--alpha0", "6"], "", "6"),
    (["energy", "--lambda-d", "5", "--alpha0", "1000"], "", "200"),
    (["oracle", "--lambda-d", "1", "--alpha0", "1.8703595502933186"], "", "1.87036"),
    (["sweep", "--vary", "field", "--values", "0,0.01", "--lambda-d", "1", "--alpha0", "2.5"],
     "", "2.5"),
    (["sweep", "--vary", "alpha0", "--values", "1,2.5", "--lambda-d", "1"],
     "sweep value 2.5 for alpha0: ", "2.5"),
    (["sweep", "--vary", "lambda-d", "--values", "1,2", "--alpha0", "2.5"],
     "sweep value 1.0 for lambda_d: ", "2.5"),
], ids=["energy", "c3-positive-again", "alpha0-huge", "oracle-at-root", "sweep-field",
        "sweep-alpha0", "sweep-lambda"])
def test_alpha0_past_the_c3_sign_change_is_a_usage_error(capsys, argv, prefix, ratio):
    # c3 = A lambda_D^-4 (1/3 - y/36 + y^2/22680), y = (alpha0/lambda_D)^4,
    # changes sign at alpha0/lambda_D = 1.8703596 and again at 4.98546; the
    # cubic model has no ground state between them (energy printed -4.2166301
    # at 2.5), so every ratio from the first root on is refused; a field
    # sweep's message names no sweep value, since no field moves the ratio
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"usage error: {prefix}the cubic model needs alpha0/lambda_d below "
                   f"1.8703596, where c3 first changes sign; got alpha0/lambda_d = {ratio}\n")


def test_alpha0_just_below_the_c3_sign_change_is_served(capsys):
    # the refused set is a ratio interval, so sweep endpoints still bound it;
    # potential prints radial curves and takes no energy, so it refuses nothing
    for argv in (["energy", "--lambda-d", "1", "--alpha0", "1.87"],
                 ["sweep", "--vary", "alpha0", "--values", "0,1.87", "--lambda-d", "1"],
                 ["sweep", "--vary", "lambda-d", "--values", "1e4,1", "--alpha0", "1.87"],
                 ["potential", "--lambda-d", "1", "--alpha0", "2.5"]):
        code, out, _ = run_cli(capsys, argv)
        assert code == EXIT_OK and out


def test_unscreened_energy_output_is_unchanged(capsys):
    code, out, _ = run_cli(capsys, ["energy", "--lambda-d", "inf"])
    assert code == EXIT_OK
    assert out == (
        "# laserplasma energy\n# z = 1\n# lambda_d = inf\n# alpha0 = 0\n# field = 0\n"
        "# mu = 1\n# hbar = 1\n# e_charge = 1\ne0,const_shift,e1,e2,e3,total\n"
        "-2.0000000,0.0000000,0.0000000,0.0000000,0.0000000,-2.0000000\n"
    )


def test_values_from_1e16_print_in_scientific_notation(capsys):
    # in fixed point -1e200 would print as a 201-digit integer, most of its
    # digits past what a double holds; from 10^max(15 - precision, 1) on,
    # fixed point would show more than 15 digits (-1999999999.5999997 at 2e9)
    for exponent in ("200", "09"):
        code, out, _ = run_cli(capsys, ["potential", "--lambda-d", "5", "--r-min", f"1e-{exponent}",
                                        "--r-max", f"2e-{exponent}", "--points", "2"])
        assert code == EXIT_OK
        _, header, rows = parse_csv(out)
        assert dict(zip(header, rows[0])) == {
            "r": f"1.0000000e-{exponent}", "screened": f"-1.0000000e+{exponent}",
            "dressed": f"-2.0000000e+{exponent}", "effective": f"-2.0000000e+{exponent}",
            "series": f"-2.0000000e+{exponent}"}


def test_potential_refuses_a_quadrature_short_of_its_tolerance(capsys):
    # r = 1.0002 alpha0 takes 709 nodes (64 put cycle_avg at -170.8891218, 14% off);
    # r = 1.0000003 alpha0 would take 18284, past the cap of 2**14
    argv = ["potential", "--lambda-d", "5", "--alpha0", "0.5", "--r-max", "0.6",
            "--points", "2", "--with-quadrature"]
    code, out, _ = run_cli(capsys, [*argv, "--r-min", "0.5001"])
    assert code == EXIT_OK
    _, header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["cycle_avg"] == "-199.5918404"
    code, out, err = run_cli(capsys, [*argv, "--r-min", "0.50000015"])
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err == ("numeric failure: cycle average at r = 0.50000015, 1.0000003 alpha0 needs "
                   "18284 nodes to meet 1e-12, past the cap of 16384\n")


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
    # the table is evaluated one float radius at a time, so each entry
    # equals the library's value at that radius bit for bit
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
        assert screened == ecsc_eval(r, p)
        assert dressed == dressed_pair_eval(r, p)
        assert effective == dressed_pair_eval(r, p) + 0.01 * r
        assert series == veff_series_eval(r, coeffs)
        assert cycle_avg == v0_quadrature(r, p)


# Run by a fresh interpreter: import the CLI, run one request if argv gives
# one, then print a last line holding the exit code and which of numpy and
# scipy got imported.
_IMPORT_PROBE = """
import sys
import laserplasma.cli
code = laserplasma.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *(name for name in ("numpy", "scipy") if name in sys.modules))
"""

_BOTH = ("numpy", "scipy")


def _request(name, argv, loaded):
    # the id names the request and whether it loads scipy
    return pytest.param(argv, loaded, id=f"{name}-{'scipy' in loaded}")


@pytest.mark.parametrize("argv, loaded", [
    _request("energy", ["energy", "--lambda-d", "100", "--field", "0.01"], ()),
    _request("table1", ["table1"], ()),
    _request("figure", ["figure", "--which", "fig2c"], ()),
    *(_request(tag, ["figure", "--which", tag], ())
      for tag in ("fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig2d")),
    _request("potential",
             ["potential", "--lambda-d", "5", "--alpha0", "0.001", "--with-quadrature"], ()),
    _request("potential-log", ["potential", "--lambda-d", "5", "--alpha0", "0.001", "--log",
                               "--with-quadrature"], ()),
    _request("sweep", ["sweep", "--vary", "field", "--values", "0.001,0.01", "--lambda-d", "20"],
             ()),
    _request("sweep-range", ["sweep", "--vary", "field", "--start", "0.001", "--stop", "0.01",
                             "--count", "3", "--lambda-d", "20"], ()),
    _request("sweep-geometric", ["sweep", "--vary", "field", "--start", "0.001", "--stop", "0.01",
                                 "--count", "3", "--geometric", "--lambda-d", "20"], ()),
    _request("sweep-with-oracle", ["sweep", "--vary", "field", "--values", "0.001,0.01",
                                   "--lambda-d", "20", "--with-oracle", "--grid-rmax", "20"],
             _BOTH),
    _request("oracle", ["oracle", "--lambda-d", "100", "--field", "0.01", "--grid-rmax", "20"],
             _BOTH),
    _request("import", [], ()),
])
def test_only_the_oracle_imports_scipy(argv, loaded):
    # numpy and scipy.linalg take most of the CLI's import time, so both
    # load only for a request that runs the eigensolver; every closed-form
    # request (`potential` and its --log radii, the geometric sweep range
    # and every figure) computes in plain floats, one radius at a time; the
    # "import" case imports laserplasma and laserplasma.cli and runs
    # nothing, and the oracle cases show the probe would see both
    env = dict(os.environ)
    src = str(Path(laserplasma.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == " ".join((str(EXIT_OK), *loaded)), proc.stderr


@pytest.mark.filterwarnings("error")
def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # each "laserplasma ..." line of the README's command-line block runs as printed
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("laserplasma ")]
    assert len(commands) == len(block.splitlines()) > 0
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (EXIT_OK, ""), argv


def test_readme_python_blocks_run(capsys):
    # the library quick start and the cross-check run as printed, in one namespace
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = [part.split("```", 1)[0]
              for part in readme.read_text(encoding="utf-8").split("```python\n")[1:]]
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert round(float(lines[0]), 7) == -1.9799255
    energy, overlap_value = map(float, lines[-1].split())
    assert abs(energy - float(lines[0])) < 1e-6 and overlap_value >= 0.999
