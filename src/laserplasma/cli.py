"""Command-line front end.

Subcommands: potential (radial curves), energy (closed-form breakdown),
oracle (eigensolver cross-check), sweep (one varying parameter), table1
(reference-energy regeneration with deviations), figure (datasets behind
the named figures).  Exit codes: 0 success, 2 usage error (including
parameters and sweep values outside the model's domain), 3 numeric
failure, 4 I/O failure.

A request runs in three stages.  `parse_args` reads argv into a validated
`RunConfig`.  argparse holds every default, and reads an ``@PATH`` argument
as the flags in that file, written as on the command line.  Each subcommand
takes one request of a fixed type: ``sweep`` a `SweepSpec`, ``energy``
and ``oracle`` the one-value ``field`` `SweepSpec` at its own field,
``potential`` a `PotentialTable`, ``figure`` a tag and ``table1`` None.
`run` then calls the subcommand's builder, which computes a table (a header
dict, the column names and the rows, and for ``potential`` a note or None)
and writes nothing.  `_emit` alone renders the table and writes it, to
stdout or to the ``--output`` file, which opens only once the table is
built, and writes the note to stderr.  It has three shapes: CSV with
a self-describing ``#`` comment header; a JSON table, the header's keys
beside ``columns`` and ``rows``; and, for ``energy`` and ``oracle``, which
print the one row of their sweep, a flat JSON record with the header
under ``params``.  Sweep rows print their breakdown and each later
`SweepRow` field they fill.  ``sweep``'s header leaves out the varied
parameter, which its rows hold; a record leaves out the field column,
which its header holds.
"""

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass, replace

from .oracle import ConvergenceError, GroundStateError, _require_points, default_grid
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
    _spacing,
    _with_field,
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
    """Bad command line or argument file; maps to exit code 2."""


@dataclass(frozen=True)
class PotentialTable:
    """``potential``'s request: two or more finite radii > 0, stored as a tuple of
    floats; ``with_quadrature`` adds the `v0_quadrature` cycle_avg column."""

    params: ModelParams
    radii: tuple
    with_quadrature: bool = False

    def __post_init__(self):
        radii = tuple(map(float, self.radii))
        object.__setattr__(self, "radii", radii)
        if len(radii) < 2:
            raise ValueError(f"potential needs at least 2 radii, got {len(radii)}")
        for r in radii:
            if not 0.0 < r < float("inf"):
                raise ValueError(f"radii must be finite and > 0, got {r}")


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    request: object
    output_format: str = "csv"
    output_path: str | None = None
    precision: int = 7

    def __post_init__(self):
        if self.subcommand not in _BUILDERS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"output_format must be csv or json, got {self.output_format!r}")
        n = self.precision  # a bool is no count of decimal places
        if isinstance(n, bool) or not hasattr(n, "__index__") or not 1 <= n <= 17:
            raise ValueError(f"precision must be an integer in [1, 17], got {n!r}")
        _, accepts, words = _BUILDERS[self.subcommand]
        if not accepts(self.request):
            raise ValueError(f"{self.subcommand} takes {words}, got {self.request!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def convert_arg_line_to_args(self, arg_line):
        import shlex  # loaded only by a request with an @PATH argument

        return shlex.split(arg_line, comments=True)


def _build_parser():
    """The top-level parser, with one subparser per subcommand."""
    output = argparse.ArgumentParser(add_help=False)
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

    parser = _Parser(prog="laserplasma", description=__doc__.splitlines()[0],
                     fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_pot = sub.add_parser("potential", parents=[params, output],
                           help="radial potential curves")
    p_pot.add_argument("--r-min", type=float, default=0.05)
    p_pot.add_argument("--r-max", type=float, default=10.0)
    p_pot.add_argument("--points", type=int, default=100)
    p_pot.add_argument("--log", action="store_true", help="log-spaced radii")
    p_pot.add_argument("--with-quadrature", action="store_true",
                       help="add the cycle-average column (needs r > alpha0)")

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
    return parser


def _model_params(ns):
    if ns.lambda_d is None and getattr(ns, "vary", None) == "lambda-d":
        ns.lambda_d = float("inf")  # a valid stand-in, which every row replaces
    if ns.lambda_d is None:
        raise UsageError("missing required parameter lambda_d (--lambda-d)")
    return ModelParams(lambda_d=ns.lambda_d, alpha0=ns.alpha0, field=ns.field, z=ns.z,
                       omega=ns.omega, e0_amp=ns.e0_amp)


def _grid_from(ns, params):
    """Solver box from the grid flags, the rest from default_grid."""
    if ns.grid_points is not None:
        # before RadialGrid, whose floor of 100 is not the oracle's
        _require_points(ns.grid_points, "oracle_grid")
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
    if not (math.isfinite(ns.start) and math.isfinite(ns.stop)):
        raise UsageError(f"--start and --stop must be finite, "
                         f"got --start {ns.start:g} --stop {ns.stop:g}")
    if ns.geometric and not (ns.start > 0 and ns.stop > 0):
        raise UsageError(f"--geometric needs --start and --stop > 0, "
                         f"got --start {ns.start:g} --stop {ns.stop:g}")
    return _spacing(ns.start, ns.stop, ns.count, ns.geometric)


def parse_args(argv) -> RunConfig:
    """Parse argv into a validated RunConfig; raises UsageError on bad input."""
    try:
        ns = _build_parser().parse_args(argv)
    except RecursionError:  # argparse reads each @PATH inside a file too
        raise UsageError("an argument file names itself, directly or through others") from None
    common = dict(output_format=ns.out_format, output_path=ns.output, precision=ns.precision)
    try:
        if ns.subcommand in ("table1", "figure"):  # a figure's request is its tag
            return RunConfig(ns.subcommand, getattr(ns, "which", None), **common)
        params = _model_params(ns)
        if ns.subcommand == "potential":
            if not 0 < ns.r_min < ns.r_max < float("inf"):
                raise UsageError("need 0 < --r-min < --r-max < inf")
            if ns.points < 2:
                raise UsageError(f"--points must be >= 2, got {ns.points}")
            table = PotentialTable(params, _spacing(ns.r_min, ns.r_max, ns.points, ns.log),
                                   ns.with_quadrature)
            return RunConfig("potential", table, **common)
        # energy and oracle are the one-value field sweep at the given parameters
        vary, values, outputs = "field", (params.field,), {"breakdown"}
        if ns.subcommand == "oracle":
            outputs |= {"oracle", "overlap"}
        if ns.subcommand == "sweep":
            vary, values = ns.vary.replace("-", "_"), _sweep_values(ns)
            if ns.with_oracle or ns.with_overlap:
                outputs.add("oracle")
            if ns.with_overlap:
                outputs.add("overlap")
        grid = None if ns.subcommand == "energy" else _grid_from(ns, params)  # energy has none
        spec = SweepSpec(vary, values, params, outputs=frozenset(outputs), oracle_grid=grid)
        return RunConfig(ns.subcommand, spec, **common)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _fmt(value, precision, small, big):
    if isinstance(value, float):
        # scientific notation below small = 10^-precision, so small deviations
        # stay distinguishable from zero, and from big = 10^max(15 - precision, 1),
        # so fixed point shows no more than the 15 digits a double holds, but
        # for a one-digit integer part
        if value != 0.0 and not small <= abs(value) < big:
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def _params_header(p: ModelParams):
    laser = ("omega", "e0_amp") if p.omega is not None else ()
    names = ("z", "lambda_d", "alpha0", "field", "mu", "hbar", "e_charge", *laser)
    return {name: getattr(p, name) for name in names}


_RECORDS = ("energy", "oracle")  # these print the one row of their sweep as a record


def _emit(config: RunConfig, header: dict, columns, rows, note=None):
    """The one renderer, to stdout or the --output file: CSV with a ``#`` comment
    header, a JSON table with columns and rows, or, for a record, a flat JSON object.
    A builder's note goes to stderr, before the table is written."""
    if config.output_format == "csv":
        buf = io.StringIO()
        buf.write(f"# laserplasma {config.subcommand}\n")
        for key, value in header.items():
            buf.write(f"# {key} = {value!r}\n" if isinstance(value, str)
                      else f"# {key} = {value:.17g}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        n = config.precision
        small, big = 10.0 ** -n, 10.0 ** max(15 - n, 1)
        for row in rows:
            writer.writerow([_fmt(v, n, small, big) for v in row])
        text = buf.getvalue()
    elif config.subcommand in _RECORDS:
        payload = {"subcommand": config.subcommand, "params": header, **dict(zip(columns, rows[0]))}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        payload = {"subcommand": config.subcommand, **header,
                   "columns": list(columns), "rows": [list(row) for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    if note is not None:
        print(note, file=sys.stderr)
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)


_BREAKDOWN_KEYS = EnergyBreakdown._fields + ("total",)


def _build_potential(config: RunConfig):
    table = config.request
    p, radii = table.params, table.radii
    # the quadrature runs first, so radii r <= alpha0 are reported as such
    # and not as the dressed form's pole at r = alpha0
    quadrature = [v0_quadrature(r, p) for r in radii] if table.with_quadrature else None
    dressed = [dressed_pair_eval(r, p) for r in radii]
    coeffs = taylor_coefficients(p)
    columns = {"r": radii, "screened": [ecsc_eval(r, p) for r in radii],
               "dressed": dressed, "effective": _with_field(dressed, radii, p.field),
               "series": [veff_series_eval(r, coeffs) for r in radii]}
    if quadrature is not None:
        columns["cycle_avg"] = quadrature
    for name, column in columns.items():  # reported by column, then by radius
        for r, value in zip(radii, column):
            if not math.isfinite(value):
                raise ValueError(f"{name} is not finite at r = {r:g}")
    r_min = min(radii)
    ratio = p.alpha0 / r_min
    estimate = ratio * ratio / 2  # the endpoint form's relative error where r >> alpha0
    note = None
    if estimate > 1e-3:
        where = ("--with-quadrature adds the cycle average" if quadrature is None
                 else "the cycle_avg column holds the cycle average")
        note = (f"note: at r = {r_min:g} the dressed and effective columns (endpoint form) are "
                f"off the cycle average by at least about {estimate:.2g} relative, "
                f"(alpha0/r)^2/2; {where}")
    return _params_header(p), list(columns), zip(*columns.values()), note


def _build_sweep(config: RunConfig):
    """One row per value: the value, the breakdown with its total, then each later
    `SweepRow` field that holds a value.  A record leaves the value out."""
    spec = config.request
    rows = run_sweep(spec)
    extra = [k for k in rows[0]._fields[2:] if getattr(rows[0], k) is not None]
    header = _params_header(spec.fixed)
    columns = [spec.vary, *_BREAKDOWN_KEYS, *extra]
    table = [(row.value, *row.breakdown, row.breakdown.total, *(getattr(row, k) for k in extra))
             for row in rows]
    if config.subcommand in _RECORDS:  # the header already holds the one field value
        return header, columns[1:], [table[0][1:]]
    del header[spec.vary]  # each row holds its own value
    return header, columns, table


def _build_table1(config: RunConfig):
    table = table1_rows()
    return {"z": 1.0, "alpha0": TABLE1_ALPHA0}, list(table[0]), [tuple(r.values()) for r in table]


def _build_figure(config: RunConfig):
    ds = figure_dataset(config.request)
    header = {"figure": ds.tag, "note": ds.note, "x_label": ds.x_label, "y_label": ds.y_label}
    return header, ["series", ds.x_label, ds.y_label], ds.rows


def _one_record(q):
    return isinstance(q, SweepSpec) and q.vary == "field" and q.values == (q.fixed.field,)


_BUILDERS = {
    "potential": (_build_potential, lambda q: isinstance(q, PotentialTable), "a PotentialTable"),
    "energy": (_build_sweep, _one_record, "a one-value field sweep spec at its own field"),
    "oracle": (_build_sweep, lambda q: _one_record(q) and "oracle" in q.outputs,
               "a one-value field sweep spec at its own field, with oracle outputs"),
    "sweep": (_build_sweep, lambda q: isinstance(q, SweepSpec), "a sweep spec"),
    "table1": (_build_table1, lambda q: q is None, "no request (None)"),
    "figure": (_build_figure, lambda q: q in FIGURE_TAGS, f"a figure tag in {FIGURE_TAGS}"),
}


def run(config: RunConfig) -> int:
    """Build the config's table and print it; returns the process exit code."""
    try:
        _emit(config, *_BUILDERS[config.subcommand][0](config))
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
    return EXIT_OK


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
