"""Command-line front end.

Subcommands: potential (radial curves), energy (closed-form breakdown),
oracle (eigensolver cross-check), sweep (one varying parameter), table1
(reference-energy regeneration with deviations), figure (datasets behind
the named figures).  Output is CSV with a self-describing ``#`` comment
header, or JSON.  Exit codes: 0 success, 2 usage error (including
parameters and sweep values outside the model's domain), 3 numeric
failure, 4 I/O failure.

argparse holds every default.  The entries of a ``--config`` file become
the chosen subcommand's defaults, so flags still win.  ``oracle`` runs a
one-value ``field`` sweep with the oracle and overlap outputs through the
same `run_sweep` as ``sweep``.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from .oracle import ConvergenceError, GroundStateError, RadialGrid, default_grid
from .perturbation import total_energy
from .potential import (
    ModelParams,
    PoleProximityError,
    dressed_pair_eval,
    ecsc_eval,
    taylor_coefficients,
    v0_quadrature,
    veff_series_eval,
)
from .sweep import FIGURE_TAGS, TABLE1_ALPHA0, SweepSpec, figure_dataset, run_sweep, table1_rows

__all__ = ["RunConfig", "UsageError", "parse_args", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# a config file's keys are the dests of the flags whose defaults they set
_CONFIG_KEYS = (
    "z", "lambda_d", "alpha0", "field", "omega", "e0_amp",
    "out_format", "output", "precision", "grid_rmin", "grid_rmax", "grid_points",
)


class UsageError(Exception):
    """Bad command line or config file; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: ModelParams | None
    output_format: str = "csv"
    output_path: str | None = None
    precision: int = 7
    figure_tag: str | None = None
    sweep: SweepSpec | None = None
    r_values: tuple = ()
    with_quadrature: bool = False
    quad_nodes: int = 64

    def __post_init__(self):
        if self.subcommand not in _RUNNERS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"output_format must be csv or json, got {self.output_format!r}")
        if not 1 <= self.precision <= 17:
            raise ValueError(f"precision must be in [1, 17], got {self.precision}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_config_file(path):
    """key = value pairs, one per line, # comments; returns a dict."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _build_parser():
    """The top-level parser and its subcommand parsers by name."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--config", metavar="PATH", help="key=value file seeding defaults")
    output.add_argument("--format", choices=("csv", "json"), default="csv", dest="out_format")
    output.add_argument("--output", metavar="PATH", default=None, help="write here instead of stdout")
    output.add_argument("--precision", type=int, default=7, help="printed decimal places (1..17)")

    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--z", type=float, default=1.0, help="nuclear charge number")
    params.add_argument("--lambda-d", type=float, default=None, dest="lambda_d",
                        help="Debye screening length (a.u.)")
    params.add_argument("--alpha0", type=float, default=None, help="laser quiver amplitude (a.u.)")
    params.add_argument("--field", type=float, default=0.0, help="static field strength (a.u.)")
    params.add_argument("--omega", type=float, default=None,
                        help="laser angular frequency; with --e0-amp derives alpha0")
    params.add_argument("--e0-amp", type=float, default=None, dest="e0_amp",
                        help="laser field amplitude; with --omega derives alpha0")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-rmin", type=float, default=None, help="lower wall of the solver box")
    grid.add_argument("--grid-rmax", type=float, default=None, help="upper wall of the solver box")
    grid.add_argument("--grid-points", type=int, default=None, help="interior grid points")

    parser = _Parser(prog="laserplasma", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_pot = sub.add_parser("potential", parents=[params, output],
                           help="radial potential curves")
    p_pot.add_argument("--r-min", type=float, default=0.05)
    p_pot.add_argument("--r-max", type=float, default=10.0)
    p_pot.add_argument("--points", type=int, default=100)
    p_pot.add_argument("--log", action="store_true", help="log-spaced radii")
    p_pot.add_argument("--with-quadrature", action="store_true",
                       help="add the cycle-average column (needs r > alpha0)")
    p_pot.add_argument("--quad-nodes", type=int, default=64)

    sub.add_parser("energy", parents=[params, output],
                   help="closed-form energy breakdown")

    sub.add_parser("oracle", parents=[params, grid, output],
                   help="eigensolver cross-check of the closed forms")

    p_sweep = sub.add_parser("sweep", parents=[params, grid, output],
                             help="sweep one parameter")
    p_sweep.add_argument("--vary", choices=("field", "lambda-d", "alpha0"), required=True)
    p_sweep.add_argument("--values", default=None,
                         help="comma-separated list of values")
    p_sweep.add_argument("--start", type=float, default=None)
    p_sweep.add_argument("--stop", type=float, default=None)
    p_sweep.add_argument("--count", type=int, default=None)
    p_sweep.add_argument("--geometric", action="store_true", help="log-spaced range")
    p_sweep.add_argument("--with-oracle", action="store_true")
    p_sweep.add_argument("--with-overlap", action="store_true")

    sub.add_parser("table1", parents=[output], help="regenerate the reference energy table")

    p_fig = sub.add_parser("figure", parents=[output], help="figure datasets")
    p_fig.add_argument("--which", choices=FIGURE_TAGS, required=True)

    return parser, sub.choices


def _model_params(ns):
    if ns.lambda_d is None:
        raise UsageError("missing required parameter lambda_d (--lambda-d)")
    if ns.alpha0 is not None and (ns.omega is not None or ns.e0_amp is not None):
        raise UsageError(
            "conflicting laser specification: give either --alpha0 or the "
            "pair --omega/--e0-amp, not both"
        )
    if (ns.omega is None) != (ns.e0_amp is None):
        raise UsageError("--omega and --e0-amp must be given together")
    if ns.omega is not None:
        return ModelParams.from_laser(ns.omega, ns.e0_amp, lambda_d=ns.lambda_d,
                                      field=ns.field, z=ns.z)
    return ModelParams(lambda_d=ns.lambda_d, alpha0=ns.alpha0 or 0.0, field=ns.field, z=ns.z)


def _grid_from(ns, params):
    """Solver box from the grid flags, missing fields taken from default_grid."""
    if ns.grid_rmin is None and ns.grid_rmax is None and ns.grid_points is None:
        return None
    default = default_grid(params)
    return RadialGrid(
        default.r_min if ns.grid_rmin is None else ns.grid_rmin,
        default.r_max if ns.grid_rmax is None else ns.grid_rmax,
        default.n_points if ns.grid_points is None else ns.grid_points,
    )


def _sweep_values(ns):
    if ns.values is not None:
        if ns.start is not None or ns.stop is not None or ns.count is not None:
            raise UsageError("give --values or --start/--stop/--count, not both")
        try:
            return tuple(float(v) for v in ns.values.split(","))
        except ValueError as exc:
            raise UsageError(f"cannot parse --values: {exc}") from exc
    if None in (ns.start, ns.stop, ns.count):
        raise UsageError("sweep needs --values or all of --start/--stop/--count")
    space = np.geomspace if ns.geometric else np.linspace
    return tuple(float(v) for v in space(ns.start, ns.stop, ns.count))


def parse_args(argv) -> RunConfig:
    """Parse argv into a validated RunConfig; raises UsageError on bad input."""
    parser, subparsers = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        # the file's entries become the subcommand's defaults, which argparse
        # converts and checks on a second parse
        subparsers[ns.subcommand].set_defaults(**_read_config_file(ns.config))
        try:
            ns = parser.parse_args(argv)
        except UsageError as exc:
            raise UsageError(f"{ns.config}: {exc}") from exc

    common = dict(output_format=ns.out_format, output_path=ns.output, precision=ns.precision)
    try:
        if ns.subcommand == "table1":
            return RunConfig("table1", None, **common)
        if ns.subcommand == "figure":
            return RunConfig("figure", None, figure_tag=ns.which, **common)
        params = _model_params(ns)
        if ns.subcommand == "energy":
            return RunConfig("energy", params, **common)
        if ns.subcommand == "potential":
            if ns.points < 2:
                raise UsageError("--points must be >= 2")
            if ns.quad_nodes < 8:
                raise UsageError("--quad-nodes must be >= 8")
            if not 0 < ns.r_min < ns.r_max:
                raise UsageError("need 0 < --r-min < --r-max")
            space = np.geomspace if ns.log else np.linspace
            radii = tuple(float(r) for r in space(ns.r_min, ns.r_max, ns.points))
            return RunConfig("potential", params, r_values=radii,
                             with_quadrature=ns.with_quadrature,
                             quad_nodes=ns.quad_nodes, **common)
        # oracle is the one-value field sweep at the given parameters
        vary, values, outputs = "field", (params.field,), {"breakdown", "oracle", "overlap"}
        if ns.subcommand == "sweep":
            vary, values, outputs = ns.vary.replace("-", "_"), _sweep_values(ns), {"breakdown"}
            if ns.with_oracle or ns.with_overlap:
                outputs.add("oracle")
            if ns.with_overlap:
                outputs.add("overlap")
        spec = SweepSpec(vary, values, params, outputs=frozenset(outputs),
                         oracle_grid=_grid_from(ns, params))
        return RunConfig(ns.subcommand, params, sweep=spec, **common)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _fmt(value, precision):
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        # below the fixed-point resolution, switch to scientific notation so
        # small deviations stay distinguishable from zero
        if value != 0.0 and abs(value) < 10.0 ** (-precision):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def _params_header(p: ModelParams | None):
    if p is None:
        return {}
    header = {"z": p.z, "lambda_d": p.lambda_d, "alpha0": p.alpha0, "field": p.field,
              "mu": p.mu, "hbar": p.hbar, "e_charge": p.e_charge}
    if p.omega is not None:
        header["omega"] = p.omega
        header["e0_amp"] = p.e0_amp
    return header


def _write(config: RunConfig, text: str):
    """The one output sink: stdout, or the --output file."""
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(config: RunConfig, header: dict, columns, rows):
    """Table output: CSV (with # comment header) or JSON with columns and rows."""
    if config.output_format == "csv":
        buf = io.StringIO()
        buf.write(f"# laserplasma {config.subcommand}\n")
        for key, value in header.items():
            buf.write(f"# {key} = {value!r}\n" if isinstance(value, str)
                      else f"# {key} = {value:.17g}\n" if isinstance(value, float)
                      else f"# {key} = {value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v, config.precision) for v in row])
        text = buf.getvalue()
    else:
        payload = {"subcommand": config.subcommand, **header,
                   "columns": list(columns),
                   "rows": [list(row) for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    _write(config, text)


def _emit_mapping(config: RunConfig, header: dict, mapping: dict):
    """Single-record output: one CSV row or a flat JSON object."""
    if config.output_format == "json":
        payload = {"subcommand": config.subcommand, "params": header, **mapping}
        _write(config, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(config, header, list(mapping.keys()), [tuple(mapping.values())])


_BREAKDOWN_KEYS = ("e0", "const_shift", "e1", "e2", "e3", "total")


def _breakdown(b) -> dict:
    """The additive energy parts and their total, in output column order."""
    return {key: getattr(b, key) for key in _BREAKDOWN_KEYS}


def _run_potential(config: RunConfig):
    p = config.params
    r = np.array(config.r_values)
    # the quadrature runs first, so radii r <= alpha0 are reported as such
    # and not as the dressed form's pole at r = alpha0
    quadrature = v0_quadrature(r, p, config.quad_nodes) if config.with_quadrature else None
    dressed = dressed_pair_eval(r, p)
    columns = {"r": r, "screened": ecsc_eval(r, p), "dressed": dressed,
               "effective": dressed + p.field * r,
               "series": veff_series_eval(r, taylor_coefficients(p))}
    if quadrature is not None:
        columns["cycle_avg"] = quadrature
    rows = zip(*(column.tolist() for column in columns.values()))
    _emit(config, _params_header(p), list(columns), rows)
    return EXIT_OK


def _run_energy(config: RunConfig):
    _emit_mapping(config, _params_header(config.params), _breakdown(total_energy(config.params)))
    return EXIT_OK


def _run_sweep(config: RunConfig):
    """``sweep`` prints one row per value; ``oracle`` the one record of its sweep."""
    spec = config.sweep
    # optional columns are named after the SweepRow fields that fill them
    extra = []
    if "oracle" in spec.outputs:
        extra += ["oracle_energy", "deviation"]
    if "overlap" in spec.outputs:
        extra.append("overlap")
    if config.subcommand == "oracle":
        extra.append("error_estimate")
    records = [{spec.vary: row.value, **_breakdown(row.breakdown),
                **{key: getattr(row, key) for key in extra}} for row in run_sweep(spec)]
    header = _params_header(config.params)
    if config.subcommand == "oracle":
        (record,) = records
        del record[spec.vary]  # the header already holds the field
        _emit_mapping(config, header, record)
    else:
        _emit(config, header, list(records[0]), [tuple(record.values()) for record in records])
    return EXIT_OK


def _run_table1(config: RunConfig):
    table = table1_rows()
    header = {"z": 1.0, "alpha0": TABLE1_ALPHA0}
    _emit(config, header, list(table[0]), [tuple(row.values()) for row in table])
    return EXIT_OK


def _run_figure(config: RunConfig):
    ds = figure_dataset(config.figure_tag)
    header = {"figure": ds.tag, "note": ds.note,
              "x_label": ds.x_label, "y_label": ds.y_label}
    _emit(config, header, ["series", ds.x_label, ds.y_label], ds.rows)
    return EXIT_OK


_RUNNERS = {
    "potential": _run_potential,
    "energy": _run_energy,
    "oracle": _run_sweep,
    "sweep": _run_sweep,
    "table1": _run_table1,
    "figure": _run_figure,
}


def run(config: RunConfig) -> int:
    """Execute a parsed RunConfig; returns the process exit code."""
    try:
        return _RUNNERS[config.subcommand](config)
    except ConvergenceError as exc:
        print(exc, file=sys.stderr)
        return EXIT_NUMERIC
    except (PoleProximityError, GroundStateError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        target = config.output_path or "<stdout>"
        print(f"cannot write output to {target}: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
