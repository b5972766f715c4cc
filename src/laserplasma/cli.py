"""Command-line front end.

Subcommands: potential (radial curves), energy (closed-form breakdown),
oracle (eigensolver cross-check), sweep (one varying parameter), table1
(reference-energy regeneration with deviations), figure (datasets behind
the named figures).  Output is CSV with a self-describing ``#`` comment
header, or JSON; ``sweep``'s header leaves out the varied parameter,
which its rows hold.  Exit codes: 0 success, 2 usage error (including
parameters and sweep values outside the model's domain), 3 numeric
failure, 4 I/O failure.

argparse holds every default.  A ``--config`` file's keys are the dests
of the shared flags, and its entries become the chosen subcommand's
defaults, so flags still win.  Each subcommand takes one request of a
fixed type: ``sweep`` a `SweepSpec`, ``energy`` and ``oracle`` the
one-value ``field`` `SweepSpec` at its own field, ``potential`` a
`PotentialTable`, ``figure`` a tag and ``table1`` None.
"""

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass, replace

from .oracle import ConvergenceError, GroundStateError, default_grid
from .perturbation import EnergyBreakdown
from .potential import (
    ModelParams,
    dressed_pair_eval,
    ecsc_eval,
    taylor_coefficients,
    v0_quadrature,
    veff_series_eval,
)
from .sweep import (
    FIGURE_TAGS,
    TABLE1_ALPHA0,
    SweepSpec,
    _linspace,
    figure_dataset,
    run_sweep,
    table1_rows,
)

__all__ = ["RunConfig", "PotentialTable", "UsageError", "parse_args", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

class UsageError(Exception):
    """Bad command line or config file; maps to exit code 2."""


@dataclass(frozen=True)
class PotentialTable:
    """``potential``'s request; ``quad_nodes=None`` leaves out the cycle-average column."""

    params: ModelParams
    radii: tuple
    quad_nodes: int | None = None


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    request: object
    output_format: str = "csv"
    output_path: str | None = None
    precision: int = 7

    def __post_init__(self):
        if self.subcommand not in _RUNNERS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"output_format must be csv or json, got {self.output_format!r}")
        if not 1 <= self.precision <= 17:
            raise ValueError(f"precision must be in [1, 17], got {self.precision}")
        if self.subcommand == "energy" and isinstance(self.request, ModelParams):
            p = self.request
            object.__setattr__(self, "request", SweepSpec("field", (p.field,), p))
        _, accepts, words = _RUNNERS[self.subcommand]
        if not accepts(self.request):
            raise ValueError(f"{self.subcommand} takes {words}, got {self.request!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_config_file(path, subcommand, keys, dests):
    """key = value pairs, one per line, # comments; each key a config key in ``dests``."""
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
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key not in dests:
            raise UsageError(f"{path}:{lineno}: {subcommand} takes no config key {key!r}")
        values[key] = value
    return values


def _build_parser():
    """The top-level parser, its subcommand parsers and the config keys (shared flags' dests)."""
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

    for subparser in sub.choices.values():
        # "-0.01,0.02", "-1e-3" or "-inf" is a value for the domain checks, not a flag
        subparser._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.I)
    keys = {key for parent in (params, output, grid) for key in vars(parent.parse_args([]))}
    return parser, sub.choices, keys - {"config"}


def _model_params(ns):
    if ns.lambda_d is None and getattr(ns, "vary", None) == "lambda-d":
        ns.lambda_d = float("inf")  # a valid stand-in, which every row replaces
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
    """Solver box from the grid flags, the rest from default_grid, whose wall
    at r = 0 is where the solved cubic series has its pole and u(0) = 0."""
    flags = zip(("r_max", "n_points"), (ns.grid_rmax, ns.grid_points))
    given = {field: value for field, value in flags if value is not None}
    return replace(default_grid(params), **given) if given else None


def _sweep_values(ns):
    if ns.values is not None:
        if ns.start is not None or ns.stop is not None or ns.count is not None or ns.geometric:
            raise UsageError("give --values or --start/--stop/--count [--geometric], not both")
        try:
            return tuple(float(v) for v in ns.values.split(","))
        except ValueError as exc:
            raise UsageError(f"cannot parse --values: {exc}") from exc
    if None in (ns.start, ns.stop, ns.count):
        raise UsageError("sweep needs --values or all of --start/--stop/--count")
    if ns.count < 1:
        raise UsageError(f"--count must be >= 1, got {ns.count}")
    if ns.geometric:
        import numpy as np

        return tuple(float(v) for v in np.geomspace(ns.start, ns.stop, ns.count))
    return _linspace(ns.start, ns.stop, ns.count)  # loads no numpy


def parse_args(argv) -> RunConfig:
    """Parse argv into a validated RunConfig; raises UsageError on bad input."""
    parser, subparsers, keys = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        # the file's entries become the subcommand's defaults, which argparse
        # converts and checks on a second parse
        entries = _read_config_file(ns.config, ns.subcommand, keys, vars(ns))
        subparsers[ns.subcommand].set_defaults(**entries)
        try:
            ns = parser.parse_args(argv)
        except UsageError as exc:
            raise UsageError(f"{ns.config}: {exc}") from exc

    common = dict(output_format=ns.out_format, output_path=ns.output, precision=ns.precision)
    try:
        if ns.subcommand in ("table1", "figure"):  # a figure's request is its tag
            return RunConfig(ns.subcommand, getattr(ns, "which", None), **common)
        params = _model_params(ns)
        if ns.subcommand == "energy":
            return RunConfig("energy", params, **common)
        if ns.subcommand == "potential":
            if ns.points < 2:
                raise UsageError("--points must be >= 2")
            if ns.quad_nodes < 8:
                raise UsageError("--quad-nodes must be >= 8")
            if not 0 < ns.r_min < ns.r_max < float("inf"):
                raise UsageError("need 0 < --r-min < --r-max < inf")
            import numpy as np

            space = np.geomspace if ns.log else np.linspace
            radii = tuple(float(r) for r in space(ns.r_min, ns.r_max, ns.points))
            table = PotentialTable(params, radii, ns.quad_nodes if ns.with_quadrature else None)
            return RunConfig("potential", table, **common)
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
        return RunConfig(ns.subcommand, spec, **common)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _fmt(value, precision):
    if isinstance(value, float):
        # below the fixed-point resolution, switch to scientific notation so
        # small deviations stay distinguishable from zero
        if value != 0.0 and abs(value) < 10.0 ** (-precision):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def _params_header(p: ModelParams):
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
                      else f"# {key} = {value:.17g}\n")
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


_BREAKDOWN_KEYS = EnergyBreakdown._fields + ("total",)


def _run_potential(config: RunConfig):
    import numpy as np

    table = config.request
    p, r = table.params, np.array(table.radii)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by column and radius
        # the quadrature runs first, so radii r <= alpha0 are reported as such
        # and not as the dressed form's pole at r = alpha0
        quadrature = None if table.quad_nodes is None else v0_quadrature(r, p, table.quad_nodes)
        dressed = dressed_pair_eval(r, p)
        try:
            coeffs = taylor_coefficients(p)
        except ArithmeticError as exc:
            raise type(exc)(f"{exc.args[-1]} at {p}") from exc
        columns = {"r": r, "screened": ecsc_eval(r, p), "dressed": dressed,
                   "effective": dressed + p.field * r, "series": veff_series_eval(r, coeffs)}
    if quadrature is not None:
        columns["cycle_avg"] = quadrature
    for name, column in columns.items():
        finite = np.isfinite(column)
        if not finite.all():
            raise ValueError(f"{name} is not finite at r = {r[~finite][0]:g}")
    rows = zip(*(column.tolist() for column in columns.values()))
    _emit(config, _params_header(p), list(columns), rows)
    return EXIT_OK


def _run_sweep(config: RunConfig):
    """``sweep`` prints one row per value; ``energy`` and ``oracle`` print
    the one record of their sweep, as a CSV row or a flat JSON object."""
    spec = config.request
    # optional columns are named after the SweepRow fields that fill them
    extra = []
    if "oracle" in spec.outputs:
        extra += ["oracle_energy", "deviation"]
    if "overlap" in spec.outputs:
        extra.append("overlap")
    if config.subcommand == "oracle":
        extra.append("error_estimate")
    records = [{spec.vary: row.value, **{k: getattr(row.breakdown, k) for k in _BREAKDOWN_KEYS},
                **{k: getattr(row, k) for k in extra}} for row in run_sweep(spec)]
    header = _params_header(spec.fixed)
    if config.subcommand == "sweep":
        del header[spec.vary]  # each row holds its own value
    else:
        del records[0]["field"]  # the header already holds the one field value
        if config.output_format == "json":
            payload = {"subcommand": config.subcommand, "params": header, **records[0]}
            _write(config, json.dumps(payload, indent=2) + "\n")
            return EXIT_OK
    _emit(config, header, list(records[0]), [tuple(record.values()) for record in records])
    return EXIT_OK


def _run_table1(config: RunConfig):
    table = table1_rows()
    header = {"z": 1.0, "alpha0": TABLE1_ALPHA0}
    _emit(config, header, list(table[0]), [tuple(row.values()) for row in table])
    return EXIT_OK


def _run_figure(config: RunConfig):
    ds = figure_dataset(config.request)
    header = {"figure": ds.tag, "note": ds.note,
              "x_label": ds.x_label, "y_label": ds.y_label}
    _emit(config, header, ["series", ds.x_label, ds.y_label], ds.rows)
    return EXIT_OK


def _one_record(q):
    return isinstance(q, SweepSpec) and q.vary == "field" and q.values == (q.fixed.field,)


_RUNNERS = {
    "potential": (_run_potential, lambda q: isinstance(q, PotentialTable), "a PotentialTable"),
    "energy": (_run_sweep, _one_record, "a one-value field sweep spec at its own field"),
    "oracle": (_run_sweep, lambda q: _one_record(q) and "oracle" in q.outputs,
               "a one-value field sweep spec at its own field, with oracle outputs"),
    "sweep": (_run_sweep, lambda q: isinstance(q, SweepSpec), "a sweep spec"),
    "table1": (_run_table1, lambda q: q is None, "no request (None)"),
    "figure": (_run_figure, lambda q: q in FIGURE_TAGS, f"a figure tag in {FIGURE_TAGS}"),
}


def run(config: RunConfig) -> int:
    """Execute a parsed RunConfig; returns the process exit code."""
    try:
        return _RUNNERS[config.subcommand][0](config)
    except ConvergenceError as exc:
        print(exc, file=sys.stderr)
        return EXIT_NUMERIC
    except (GroundStateError, ValueError, ArithmeticError) as exc:
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
