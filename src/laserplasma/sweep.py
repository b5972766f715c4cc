"""Parameter sweeps and the datasets behind the reference table and figures.

Rows are a pure function of the sweep specification, evaluated in input order,
so reruns are byte-identical.  Each `SweepRow` holds the `EnergyBreakdown`
that `perturbation._breakdowns`, the one loop from coefficients to energies,
yields with no ModelParams per point, as it does for the table and the energy
figures.  The CLI's ``energy`` and ``oracle`` are one-value ``field`` sweeps.
Every figure is one entry of a table naming its builder and its parameter
axes.  The field leaves both the dressed potential and the field-free
coefficient parts unchanged: the potential figures evaluate the dressed
potential once per screening length, and every energy figure is one
`_breakdowns` call with its field axis as ``fields``, so each point of its
other axis computes its coefficient parts once for every field.  Sweeps
without the oracle, the table and all seven figures compute in plain floats
and load no numpy: the potential figures (fig1a-fig1c) take their radii from
`_linspace` and evaluate the potentials one float radius at a time.  Oracle
rows load numpy and scipy through the solver.
"""

from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

from .oracle import (RadialGrid, default_grid, overlap, require_converged, require_grid,
                     solve_ground_state)
from .perturbation import EnergyBreakdown, _breakdowns, wavefunction_eval
from .potential import (ModelParams, _dressed, _require_cubic_domain, taylor_coefficients,
                        veff_series_eval)

__all__ = [
    "SweepSpec",
    "SweepRow",
    "run_sweep",
    "table1_rows",
    "figure_dataset",
    "FigureDataset",
    "FIGURE_TAGS",
    "TABLE1_ALPHA0",
    "TABLE1_FIELD_VALUES",
    "TABLE1_FIELD_ENERGIES",
    "TABLE1_LAMBDA_VALUES",
    "TABLE1_LAMBDA_ENERGIES",
]

# Reference ground-state energies (a.u.) for Z = 1, alpha0 = 1e-4:
# one row sweeping the static field at lambda_D = 100, one sweeping the
# screening length at F = 0.01.  Regeneration must match to 5e-7.
TABLE1_ALPHA0 = 1e-4
TABLE1_FIELD_LAMBDA = 100.0
TABLE1_FIELD_VALUES = (0.0001, 0.0004, 0.001, 0.004, 0.01, 0.04)
TABLE1_FIELD_ENERGIES = (-1.9799255, -1.9797005, -1.9792506, -1.9770016, -1.9725072, -1.9501083)
TABLE1_LAMBDA_FIELD = 0.01
TABLE1_LAMBDA_VALUES = (5.0, 10.0, 20.0, 40.0, 80.0, 100.0)
TABLE1_LAMBDA_ENERGIES = (-1.5959955, -1.7929741, -1.8925671, -1.9425144, -1.9675077, -1.9725072)

_VARY_FIELDS = ("field", "lambda_d", "alpha0")
_OUTPUT_CHOICES = ("breakdown", "oracle", "overlap")


@dataclass(frozen=True)
class SweepSpec:
    """One varying parameter, explicit values, everything else fixed.

    outputs selects the optional columns: "breakdown" is always cheap;
    "oracle" adds the eigensolver energy, its deviation from the
    closed-form total and its error estimate; "overlap" additionally
    compares wavefunctions (requires "oracle").  ``oracle_grid`` also
    requires "oracle", and it must pass `require_grid` at ``fixed``, as
    `default_grid` does.  The values are checked against the model's
    domain here, so a bad value fails at construction, naming the first one
    in input order.  The cubic model's domain is alpha0/lambda_D below the
    smaller root of c3 (`laserplasma.potential._require_cubic_domain`); a ``field``
    sweep outside it is refused for ``fixed``, and any other sweep for its first
    value outside it.
    """

    vary: str
    values: tuple
    fixed: ModelParams
    outputs: frozenset = frozenset({"breakdown"})
    oracle_grid: RadialGrid | None = None

    def __post_init__(self):
        if self.vary not in _VARY_FIELDS:
            raise ValueError(f"vary must be one of {_VARY_FIELDS}, got {self.vary!r}")
        if self.vary == "field":  # no field value moves alpha0/lambda_D
            _require_cubic_domain(self.fixed)
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("sweep needs at least one value")
        rest = values[1:]
        if not (all(map(float.__lt__, values, rest)) or all(map(float.__gt__, values, rest))):
            # a value outside the domain (NaN breaks every order) is the real fault
            for value in values:
                self._params_at(value)
            raise ValueError("sweep values must be strictly monotone")
        unknown = set(self.outputs) - set(_OUTPUT_CHOICES)
        if unknown:
            raise ValueError(f"unknown outputs {sorted(unknown)}")
        if "overlap" in self.outputs and "oracle" not in self.outputs:
            raise ValueError('the "overlap" output requires "oracle"')
        grid = self.oracle_grid
        if grid is not None and "oracle" not in self.outputs:
            raise ValueError('an oracle_grid requires the "oracle" output')
        if grid is not None:
            require_grid(grid, self.fixed, "oracle_grid")
        object.__setattr__(self, "outputs", frozenset(self.outputs))
        # the values are strictly monotone and every domain is an interval,
        # so valid endpoints make every value valid
        try:
            self._params_at(values[0]), self._params_at(values[-1])
        except ValueError:
            for value in values:
                self._params_at(value)

    def _params_at(self, value: float) -> ModelParams:
        try:
            return _require_cubic_domain(replace(self.fixed, **{self.vary: value}))
        except ValueError as exc:
            raise ValueError(f"sweep value {value!r} for {self.vary}: {exc}") from exc


class SweepRow(NamedTuple):
    """A value's breakdown and oracle fields; the CLI prints each field not None, in order."""

    value: float
    breakdown: EnergyBreakdown
    oracle_energy: float | None = None
    deviation: float | None = None
    overlap: float | None = None
    error_estimate: float | None = None


def _oracle_row(spec: SweepSpec, value: float, breakdown: EnergyBreakdown) -> SweepRow:
    p = spec._params_at(value)
    grid = spec.oracle_grid if spec.oracle_grid is not None else default_grid(p)
    coeffs = taylor_coefficients(p)
    result = require_converged(
        solve_ground_state(lambda r: veff_series_eval(r, coeffs), grid, p))
    ov = overlap(result, lambda r: wavefunction_eval(r, p)) if "overlap" in spec.outputs else None
    return SweepRow(value, breakdown, result.energy, breakdown.total - result.energy, ov,
                    result.error_estimate)


def run_sweep(spec: SweepSpec):
    """Evaluate every sweep value; one SweepRow per value, input order.

    Oracle rows pass the ``oracle`` command's convergence verdict (`ConvergenceError`
    on a grid too coarse for them); an ArithmeticError is raised again naming its point.
    """
    rows, values, none = [], spec.values, repeat(None)
    breakdowns = _breakdowns(spec.fixed, spec.vary, values)
    if "oracle" in spec.outputs:
        made = map(_oracle_row, repeat(spec), values, breakdowns)
    else:
        made = map(tuple.__new__, repeat(SweepRow),
                   zip(values, breakdowns, none, none, none, none))
    try:
        # list.extend keeps the rows made before a failure, so len(rows) names its point
        rows.extend(made)
    except ArithmeticError as exc:
        raise type(exc)(f"{exc.args[-1]} at {spec._params_at(values[len(rows)])}") from exc
    return rows


def table1_rows():
    """Regenerate both reference-table rows with deviations from the stored values.

    Returns a list of dicts with keys: vary, value, total, reference,
    deviation.
    """
    field_fixed = ModelParams(lambda_d=TABLE1_FIELD_LAMBDA, alpha0=TABLE1_ALPHA0)
    lam_fixed = ModelParams(lambda_d=1.0, alpha0=TABLE1_ALPHA0, field=TABLE1_LAMBDA_FIELD)
    rows = []
    for vary, fixed, values, refs in (
        ("field", field_fixed, TABLE1_FIELD_VALUES, TABLE1_FIELD_ENERGIES),
        ("lambda_d", lam_fixed, TABLE1_LAMBDA_VALUES, TABLE1_LAMBDA_ENERGIES),
    ):
        for value, ref, b in zip(values, refs, _breakdowns(fixed, vary, values)):
            rows.append({"vary": vary, "value": value, "total": b.total,
                         "reference": ref, "deviation": b.total - ref})
    return rows


@dataclass(frozen=True)
class FigureDataset:
    """(series label, x, y) triples plus axis names and a provenance note."""

    tag: str
    x_label: str
    y_label: str
    note: str
    rows: tuple


def _linspace(start, stop, num):
    """np.linspace(start, stop, num) as a tuple of floats, equal bit for bit (num >= 1)."""
    if num == 1:
        return (float(start),)
    step = (stop - start) / (num - 1)
    return tuple(start + i * step for i in range(num - 1)) + (stop,)


# Axis ranges are not pinned by the captions being reproduced; these
# defaults bracket the described features and are recorded in each
# dataset's note so files remain self-describing.  An axis is a
# (parameter name, values) pair; labels and notes use the short names.
# Every axis is a tuple of plain floats, so no figure loads numpy.
_FIG1C_FIELDS = (0.1, 10.0)
_FIG1C_LAMBDAS = (1.0, 100.0)
_FIG1_ALPHA0 = 1e-3
_FIG2AB_FIELD_AXIS = ("field", (0.0001, 0.001, 0.01))
_FIG2AB_ALPHA_AXIS = ("alpha0", _linspace(0.0, 0.5, 51))
_FIG2_ALPHA0 = 1e-4
# np.geomspace(1e-4, 4e-2, 25), written out: the CLI's pow-based `_spacing`
# rounds 1 of the 25 values (index 2) differently in the last bit
_FIG2C_FIELD_AXIS = ("field", (
    0.0001, 0.00012835688421125162, 0.00016475489724420656, 0.00021147425268811283,
    0.00027144176165949066, 0.00034841418771425404, 0.00044721359549995795,
    0.0005740294369528563, 0.0007368062997280774, 0.000945741609003176,
    0.0012139244620058345, 0.0015581556161088884, 0.0020000000000000005,
    0.0025671376842250327, 0.0032950979448841317, 0.0042294850537622575,
    0.005428835233189814, 0.006968283754285082, 0.008944271909999161,
    0.011480588739057126, 0.01473612599456155, 0.01891483218006352,
    0.024278489240116694, 0.03116311232217777, 0.04,
))
_SHORT_NAMES = {"field": "F"}


def _short(name):
    return _SHORT_NAMES.get(name, name)


def _dressed_curve(lambda_d, radii):
    """The dressed potential at Z = 1, lambda_d and `_FIG1_ALPHA0`, one float per radius."""
    return [_dressed(r, 1.0, lambda_d, _FIG1_ALPHA0) for r in radii]


def _with_field(dressed, radii, field):
    """V_eff = dressed + F r at each radius."""
    return [v + field * r for v, r in zip(dressed, radii)]


def _potential_figure(tag, outer, inner):
    """V_eff(r) curves, one per (outer, inner) pair of the lambda_d and field
    axes; the dressed part, which the field leaves fixed, is built once per lambda_d."""
    (outer_name, outer_values), (inner_name, inner_values) = outer, inner
    radii = _linspace(0.05, 10.0, 120)
    dressed = {lam: _dressed_curve(lam, radii) for lam in dict((outer, inner))["lambda_d"]}
    rows = []
    for a in outer_values:
        for b in inner_values:
            at = {outer_name: a, inner_name: b}
            label = f"{_short(outer_name)}={a:g},{_short(inner_name)}={b:g}"
            curve = _with_field(dressed[at["lambda_d"]], radii, at["field"])
            rows.extend(zip(repeat(label), radii, curve))
    return FigureDataset(
        tag, "r", "V_eff",
        f"effective potential vs radius; alpha0={_FIG1_ALPHA0:g}, "
        f"{_short(outer_name)} in {outer_values}, {_short(inner_name)} in {inner_values}",
        tuple(rows),
    )


def _fig1c(tag):
    rows = []
    for lam in _FIG1C_LAMBDAS:
        radii = _linspace(0.02, 1.2 * lam, 60) if lam <= 2.0 else _linspace(0.05, 10.0, 60)
        dressed = _dressed_curve(lam, radii)
        for f in _FIG1C_FIELDS:
            coeffs = taylor_coefficients(ModelParams(lambda_d=lam, alpha0=_FIG1_ALPHA0, field=f))
            curves = (("exact", _with_field(dressed, radii, f)),
                      ("series", [veff_series_eval(r, coeffs) for r in radii]))
            for kind, curve in curves:
                label = f"{kind},lambda_d={lam:g},F={f:g}"
                rows.extend(zip(repeat(label), radii, curve))
    return FigureDataset(
        tag, "r", "V_eff",
        "exact dressed potential vs its cubic expansion; the expansion is "
        f"only trustworthy for r/lambda_d << 1; alpha0={_FIG1_ALPHA0:g}, "
        f"F in {_FIG1C_FIELDS}, lambda_d in {_FIG1C_LAMBDAS}",
        tuple(rows),
    )


def _energy_figure(tag, fixed, outer, x, about, remark=""):
    """Closed-form energy against the x axis, one curve per outer value.

    The field axis, outer or x, is `_breakdowns`' fields, so each point of
    the other axis computes its field-free coefficient parts once; the
    totals come with the field varying fastest.
    """
    (outer_name, outer_values), (x_name, x_values) = outer, x
    n, m = len(outer_values), len(x_values)
    (vary, values), (_, fields) = (x, outer) if outer_name == "field" else (outer, x)
    start = ModelParams(**fixed, **{vary: values[0]})
    totals = list(map(EnergyBreakdown.total.fget, _breakdowns(start, vary, values, fields)))
    curves = ([totals[k::n] for k in range(n)] if outer_name == "field"
              else [totals[k * m:(k + 1) * m] for k in range(n)])
    rows = []
    for o, curve in zip(outer_values, curves):
        rows.extend(zip(repeat(f"{_short(outer_name)}={o:g}"), x_values, curve))
    at = ", ".join(f"{name}={value:g}" for name, value in fixed.items())
    note = f"energy vs {about} at {at}; {_short(outer_name)} in {outer_values}"
    if remark:
        note += f"; {remark}"
    return FigureDataset(tag, _short(x_name), "E", note, tuple(rows))


_FIGURES = {
    "fig1a": (_potential_figure, ("field", (0.4, 1.2)), ("lambda_d", (1.0, 2.0, 5.0, 100.0))),
    "fig1b": (_potential_figure, ("lambda_d", (1.0, 100.0)), ("field", (0.1, 0.4, 0.8, 1.2))),
    "fig1c": (_fig1c,),
    "fig2a": (_energy_figure, {"lambda_d": 1.0}, _FIG2AB_FIELD_AXIS,
              _FIG2AB_ALPHA_AXIS, "quiver amplitude",
              "the shift only becomes visible near alpha0 ~ 0.06"),
    "fig2b": (_energy_figure, {"lambda_d": 4.0}, _FIG2AB_FIELD_AXIS,
              _FIG2AB_ALPHA_AXIS, "quiver amplitude"),
    "fig2c": (_energy_figure, {"alpha0": _FIG2_ALPHA0}, ("lambda_d", (5.0, 10.0, 50.0, 100.0)),
              _FIG2C_FIELD_AXIS, "static field"),
    "fig2d": (_energy_figure, {"alpha0": _FIG2_ALPHA0}, ("field", (0.0001, 0.001, 0.01, 0.04)),
              ("lambda_d", _linspace(2.0, 100.0, 50)), "screening length",
              "curves flatten beyond lambda_d ~ 25"),
}

FIGURE_TAGS = tuple(_FIGURES)


def figure_dataset(which: str) -> FigureDataset:
    """Tabular data behind one of the named figures."""
    try:
        builder, *args = _FIGURES[which]
    except KeyError:
        raise ValueError(f"unknown figure tag {which!r}; choose from {FIGURE_TAGS}") from None
    return builder(which, *args)
