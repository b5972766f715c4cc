import math
import random
from dataclasses import replace

import numpy as np
import pytest

from laserplasma import potential, sweep
from laserplasma.oracle import ConvergenceError, RadialGrid
from laserplasma.perturbation import EnergyBreakdown, total_energy
from laserplasma.potential import (ModelParams, dressed_pair_eval, ecsc_eval, taylor_coefficients,
                                   veff_series_eval)
from laserplasma.sweep import (
    _FIGURES,
    FIGURE_TAGS,
    SweepRow,
    SweepSpec,
    TABLE1_FIELD_ENERGIES,
    TABLE1_FIELD_VALUES,
    TABLE1_LAMBDA_ENERGIES,
    TABLE1_LAMBDA_VALUES,
    figure_dataset,
    run_sweep,
    table1_rows,
)

FIXED = ModelParams(lambda_d=100.0, alpha0=1e-4)


def test_single_value_sweep_equals_total_energy():
    spec = SweepSpec("field", (0.01,), FIXED)
    rows = run_sweep(spec)
    assert len(rows) == 1
    direct = total_energy(ModelParams(lambda_d=100.0, alpha0=1e-4, field=0.01))
    assert rows[0].breakdown.total == direct.total
    assert rows[0].oracle_energy is None


def test_field_row_matches_reference():
    spec = SweepSpec("field", TABLE1_FIELD_VALUES, FIXED)
    totals = [row.breakdown.total for row in run_sweep(spec)]
    for got, ref in zip(totals, TABLE1_FIELD_ENERGIES):
        assert got == pytest.approx(ref, abs=5e-7)


def test_lambda_row_matches_reference():
    fixed = ModelParams(lambda_d=1.0, alpha0=1e-4, field=0.01)
    spec = SweepSpec("lambda_d", TABLE1_LAMBDA_VALUES, fixed)
    totals = [row.breakdown.total for row in run_sweep(spec)]
    for got, ref in zip(totals, TABLE1_LAMBDA_ENERGIES):
        assert got == pytest.approx(ref, abs=5e-7)


def test_table1_rows_structure():
    rows = table1_rows()
    assert len(rows) == 12
    assert max(abs(r["deviation"]) for r in rows) < 5e-7


def test_sweep_validation():
    with pytest.raises(ValueError, match="vary"):
        SweepSpec("zeta", (1.0,), FIXED)
    with pytest.raises(ValueError, match="monotone"):
        SweepSpec("field", (0.1, 0.05, 0.2), FIXED)
    with pytest.raises(ValueError, match="at least one"):
        SweepSpec("field", (), FIXED)
    with pytest.raises(ValueError, match="oracle"):
        SweepSpec("field", (0.1,), FIXED, outputs=frozenset({"breakdown", "overlap"}))
    with pytest.raises(ValueError, match="unknown outputs"):
        SweepSpec("field", (0.1,), FIXED, outputs=frozenset({"banana"}))
    with pytest.raises(ValueError, match='oracle_grid requires the "oracle" output'):
        SweepSpec("field", (0.1,), FIXED, oracle_grid=RadialGrid(0.0, 20.0, 2000))


def test_invalid_value_aborts_with_named_value():
    with pytest.raises(ValueError) as err:
        run_sweep(SweepSpec("lambda_d", (-3.0,), FIXED))
    assert "lambda_d" in str(err.value)
    assert "-3" in str(err.value)


def test_an_arithmetic_error_is_raised_again_naming_its_row(monkeypatch):
    # the second row's solve overflows, so the message names the second row's point
    solve = sweep.solve_ground_state

    def overflow_at_second_row(potential, grid, p):
        if p.field == 0.02:
            raise OverflowError("cannot convert float infinity to integer")
        return solve(potential, grid, p)

    monkeypatch.setattr(sweep, "solve_ground_state", overflow_at_second_row)
    spec = SweepSpec("field", (0.01, 0.02), FIXED, outputs=frozenset({"breakdown", "oracle"}))
    with pytest.raises(OverflowError) as err:
        run_sweep(spec)
    assert str(err.value) == ("cannot convert float infinity to integer at "
                              f"{replace(FIXED, field=0.02)}")


def test_first_bad_value_in_input_order_is_named():
    # the last value fails first at the endpoints, but -0.01 comes before it
    with pytest.raises(ValueError, match=r"sweep value -0\.01 for field"):
        SweepSpec("field", (0.02, -0.01, -0.03), FIXED)
    # the first value outside the domain lies inside a monotone sweep: the c3 rule
    # refuses 1.9 and 2.0, and the band 5e-4 and 1e-4, so the first is named
    with pytest.raises(ValueError, match=r"sweep value 1\.9 for alpha0"):
        SweepSpec("alpha0", (0.0, 1.9, 2.0), ModelParams(lambda_d=1.0))
    with pytest.raises(ValueError, match=r"sweep value 0\.0005 for lambda_d"):
        SweepSpec("lambda_d", (1.0, 5e-4, 1e-4), ModelParams(lambda_d=1.0))


def test_a_domain_fault_is_named_before_an_outputs_or_grid_fault():
    # monotone or not, values outside the domain are named before a bad output or grid;
    # values only out of order are named as such before them too
    for values, message in [((0.02, -0.01), r"sweep value -0\.01 for field"),
                            ((0.02, -0.01, 0.03), r"sweep value -0\.01 for field"),
                            ((0.02, 0.01, 0.03), "strictly monotone")]:
        with pytest.raises(ValueError, match=message):
            SweepSpec("field", values, FIXED, outputs=frozenset({"banana"}))
        with pytest.raises(ValueError, match=message):
            SweepSpec("field", values, FIXED, oracle_grid=RadialGrid(0.0, 20.0, 2000))


def test_a_sweep_checks_each_endpoint_once(monkeypatch):
    # a monotone sweep checks its two endpoints; a one-value sweep's one value once
    checked = []
    params_at = SweepSpec._params_at
    monkeypatch.setattr(SweepSpec, "_params_at",
                        lambda spec, value: checked.append(value) or params_at(spec, value))
    for values in ((0.01,), (0.01, 0.02, 0.03), (0.03, 0.02, 0.01)):
        checked.clear()
        SweepSpec("field", values, FIXED)
        assert sorted(checked) == sorted({values[0], values[-1]})


def test_alpha0_sweep_rejects_laser_pair():
    # omega and e0_amp fix alpha0 = 0.25, so the first other value is named
    fixed = ModelParams(lambda_d=5.0, omega=2.0, e0_amp=1.0)
    with pytest.raises(ValueError, match=r"sweep value 0\.001 for alpha0: .* fix it at 0\.25"):
        SweepSpec("alpha0", (0.001, 0.002), fixed)
    with pytest.raises(ValueError, match=r"sweep value 0\.3 for alpha0"):
        SweepSpec("alpha0", (0.25, 0.3), fixed)
    assert len(run_sweep(SweepSpec("field", (0.001, 0.002), fixed))) == 2


def test_sweep_spec_refuses_the_ratios_past_the_c3_sign_change():
    # c3 is positive below alpha0/lambda_D = 1.8703596, negative up to
    # 4.98546 and positive again past it; the one interval the cubic model
    # keeps is the first, so a ratio from the root on is refused on every axis
    def c3(ratio):
        return taylor_coefficients(ModelParams(lambda_d=1.0, alpha0=ratio)).c3

    assert c3(1.8703) > 0.0 > c3(1.8704) and c3(4.985) < 0.0 < c3(4.986)
    root = potential._C3_ROOT
    assert root == 1.8703595502933186
    below = math.nextafter(root, 0.0)
    fixed = ModelParams(lambda_d=1.0, alpha0=below)
    for spec in (SweepSpec("field", (0.0, 0.01), fixed), SweepSpec("alpha0", (0.0, below), fixed),
                 SweepSpec("lambda_d", (1e4, 1.0), fixed)):
        assert len(run_sweep(spec)) == 2
    with pytest.raises(ValueError, match=r"^the cubic model needs alpha0/lambda_d below"):
        SweepSpec("field", (0.0,), replace(fixed, alpha0=root))
    with pytest.raises(ValueError, match=r"^sweep value 1\.8703595502933186 for alpha0: .* c3"):
        SweepSpec("alpha0", (0.0, 1.0, root), fixed)
    with pytest.raises(ValueError, match=r"^sweep value 0\.5 for lambda_d: .* c3"):
        SweepSpec("lambda_d", (1e4, 1.0, 0.5), fixed)


def test_breakdown_rows_are_bit_identical_to_total_energy():
    rng = random.Random(7)
    points = 0
    for case in range(60):
        vary = ("field", "lambda_d", "alpha0")[case % 3]
        fixed = ModelParams(
            lambda_d=math.inf if case % 5 == 0 else rng.uniform(2.0, 200.0),
            alpha0=rng.uniform(0.0, 0.05), field=rng.uniform(0.0, 0.1),
            z=rng.choice((1.0, 2.0)), mu=rng.choice((1.0, 0.75)), hbar=rng.choice((1.0, 1.5)),
        )
        lo, hi = {"field": (0.0, 0.1), "lambda_d": (2.0, 200.0), "alpha0": (0.0, 0.05)}[vary]
        values = sorted({rng.uniform(lo, hi) for _ in range(10)})
        if vary == "lambda_d" and case % 2:
            values.append(math.inf)
        spec = SweepSpec(vary, values, fixed)
        for value, row in zip(values, run_sweep(spec), strict=True):
            assert row.value == value
            assert row.breakdown == total_energy(replace(fixed, **{vary: value}))
            points += 1
    assert points >= 500


def test_fixed_value_of_the_varied_parameter_is_never_evaluated():
    # the fixed value is a stand-in that every row replaces; at alpha0/lambda_D = 2,
    # past the smaller root of c3, the cubic model has no ground state
    for vary, fixed in (("lambda_d", ModelParams(lambda_d=1e30)),
                        ("alpha0", ModelParams(lambda_d=5.0, alpha0=10.0))):
        values = (1e-3, 5.0)
        rows = run_sweep(SweepSpec(vary, values, fixed))
        assert [row.breakdown for row in rows] == [
            total_energy(replace(fixed, **{vary: v})) for v in values]


def test_energy_figures_are_bit_identical_to_total_energy():
    for tag in ("fig2a", "fig2b", "fig2c", "fig2d"):
        _, fixed, (outer_name, outer_values), (x_name, x_values), *_ = _FIGURES[tag]
        expected = [total_energy(ModelParams(**fixed, **{outer_name: o, x_name: v})).total
                    for o in outer_values for v in x_values]
        assert [energy for _, _, energy in figure_dataset(tag).rows] == expected


def test_each_energy_figure_is_one_breakdowns_call(monkeypatch):
    # every energy figure has a field axis, outer or x, and passes it to the
    # kernel as its fields, so one call serves every curve
    calls = []
    kernel = sweep._breakdowns
    monkeypatch.setattr(sweep, "_breakdowns", lambda *args: calls.append(args) or kernel(*args))
    counts = {}
    for tag in ("fig2a", "fig2b", "fig2c", "fig2d"):
        calls.clear()
        figure_dataset(tag)
        counts[tag] = len(calls)
    assert counts == {"fig2a": 1, "fig2b": 1, "fig2c": 1, "fig2d": 1}


def test_figure_axes_equal_numpy_spacing():
    # the goldens print 7 decimals, so only this pins every axis bit for bit;
    # fig1c's axis depends on the curve's lambda_d, the label's second field.
    # fig2c's log axis is the CLI's geometric rule: both ends exact and 10**y
    # between them, each within 1e-14 relative of np.geomspace
    logs = np.linspace(math.log10(1e-4), math.log10(4e-2), 25)[1:-1]
    fig2c = np.array([1e-4, *(10.0 ** float(y) for y in logs), 4e-2])
    np.testing.assert_allclose(fig2c, np.geomspace(1e-4, 4e-2, 25), rtol=1e-14, atol=0)
    fig1c = {"lambda_d=1": np.linspace(0.02, 1.2, 60), "lambda_d=100": np.linspace(0.05, 10.0, 60)}
    axes = {"fig1a": np.linspace(0.05, 10.0, 120), "fig1b": np.linspace(0.05, 10.0, 120),
            "fig2a": np.linspace(0.0, 0.5, 51), "fig2b": np.linspace(0.0, 0.5, 51),
            "fig2c": fig2c, "fig2d": np.linspace(2.0, 100.0, 50)}
    for tag in (*axes, "fig1c"):
        rows = figure_dataset(tag).rows
        for label in dict.fromkeys(label for label, _, _ in rows):
            axis = fig1c[label.split(",")[1]] if tag == "fig1c" else axes[tag]
            assert [x for series, x, _ in rows if series == label] == axis.tolist(), (tag, label)


def test_rerun_identical():
    spec = SweepSpec("field", tuple(np.linspace(1e-4, 4e-2, 7)), FIXED)
    assert run_sweep(spec) == run_sweep(spec)


def test_oracle_columns_opt_in():
    grid = RadialGrid(0.0, 20.0, 2000)
    spec = SweepSpec(
        "field", (0.0001,), FIXED,
        outputs=frozenset({"breakdown", "oracle", "overlap"}), oracle_grid=grid,
    )
    (row,) = run_sweep(spec)
    assert row.oracle_energy == pytest.approx(-1.9799255, abs=1e-4)
    assert abs(row.deviation) < 1e-4
    assert row.overlap >= 0.999


def test_sweep_row_is_an_immutable_hashable_record():
    b = total_energy(ModelParams(lambda_d=100.0, alpha0=1e-4, field=0.01))
    row = SweepRow(0.01, b)
    assert (row.oracle_energy, row.deviation, row.overlap, row.error_estimate) == (None,) * 4
    for name in ("value", "breakdown", "oracle_energy", "deviation", "overlap", "error_estimate"):
        with pytest.raises(AttributeError):
            setattr(row, name, 0.0)
    assert hash(row) == hash(SweepRow(0.01, b))
    assert row != SweepRow(0.02, b)


def test_rows_hold_energy_breakdowns_on_every_axis_and_with_the_oracle():
    specs = [
        SweepSpec("field", (0.001, 0.01), FIXED),
        SweepSpec("lambda_d", (5.0, 50.0), FIXED),
        SweepSpec("alpha0", (1e-4, 1e-3), FIXED),
        SweepSpec("field", (0.0001,), FIXED, outputs=frozenset({"breakdown", "oracle"}),
                  oracle_grid=RadialGrid(0.0, 20.0, 2000)),
    ]
    for spec in specs:
        for row in run_sweep(spec):
            b = row.breakdown
            assert type(row) is SweepRow and type(b) is EnergyBreakdown
            assert b.total == b.e0 + b.const_shift + b.e1 + b.e2 + b.e3


def test_oracle_rows_refuse_unconverged_grid():
    spec = SweepSpec(
        "field", (0.01, 0.02), FIXED,
        outputs=frozenset({"breakdown", "oracle"}), oracle_grid=RadialGrid(0.0, 50.0, 400),
    )
    with pytest.raises(ConvergenceError, match="did not converge"):
        run_sweep(spec)


def test_oracle_grid_wall_must_be_at_the_origin():
    # this call used to print an oracle energy of -0.680 with estimate 5.7e-7
    # next to a closed form of -1.973
    with pytest.raises(ValueError, match="r_min"):
        run_sweep(SweepSpec("field", (0.01,), ModelParams(lambda_d=100.0, alpha0=1e-4, field=0.01),
                            outputs={"breakdown", "oracle"},
                            oracle_grid=RadialGrid(0.5, 50.0, 8000)))


def test_oracle_grid_must_span_the_box_of_default_grid():
    # all three Richardson grids share the far wall: at r_max = 1 this printed an
    # oracle energy of -0.476 with estimate 1.05e-8 next to a closed form of
    # -1.973; the bound is 20 decay lengths, as in default_grid
    p = ModelParams(lambda_d=100.0, alpha0=1e-4, field=0.01, mu=0.5)  # decay rate 1
    for r_max in (1.0, 19.99):
        with pytest.raises(ValueError, match=f"r_max = {r_max:g} .* needs r_max >= 20"):
            SweepSpec("field", (0.01,), p, outputs={"breakdown", "oracle"},
                      oracle_grid=RadialGrid(0.0, r_max, 8000))
    SweepSpec("field", (0.01,), p, outputs={"breakdown", "oracle"},
              oracle_grid=RadialGrid(0.0, 20.0, 8000))


def test_all_figure_tags_build():
    for tag in FIGURE_TAGS:
        ds = figure_dataset(tag)
        assert ds.tag == tag
        assert len(ds.rows) > 0
        labels, xs, ys = zip(*ds.rows)
        assert all(np.isfinite(xs)) and all(np.isfinite(ys))
    with pytest.raises(ValueError, match="unknown figure"):
        figure_dataset("fig9z")


def _series(ds, label):
    return [(x, y) for (lab, x, y) in ds.rows if lab == label]


def test_potential_figures_match_the_array_path():
    # the figures evaluate one float radius at a time with math's exp and cos;
    # numpy's array kernels may round each of them differently by a few ulps
    for tag in ("fig1a", "fig1b", "fig1c"):
        ds = figure_dataset(tag)
        for label in dict.fromkeys(label for label, _, _ in ds.rows):
            r, y = map(np.array, zip(*_series(ds, label)))
            given = dict(part.split("=") for part in label.split(",") if "=" in part)
            p = ModelParams(lambda_d=float(given["lambda_d"]), alpha0=1e-3, field=float(given["F"]))
            if label.startswith("series"):
                assert y.tolist() == veff_series_eval(r, taylor_coefficients(p)).tolist(), label
                continue
            scale = np.abs(ecsc_eval(r + p.alpha0, p)) + np.abs(ecsc_eval(r - p.alpha0, p))
            tol = 8.0 * np.finfo(float).eps * (scale + p.field * r)
            assert np.all(np.abs(y - (dressed_pair_eval(r, p) + p.field * r)) <= tol), label


def test_fig1a_field_reduces_attractiveness():
    ds = figure_dataset("fig1a")
    labels = {lab for lab, _, _ in ds.rows}
    for lam in (1.0, 2.0, 5.0, 100.0):
        weak = dict(_series(ds, f"F=0.4,lambda_d={lam:g}"))
        strong = dict(_series(ds, f"F=1.2,lambda_d={lam:g}"))
        assert weak and strong and weak.keys() == strong.keys()
        assert all(strong[r] > weak[r] for r in weak)
    assert len(labels) == 8


def test_fig1c_series_agrees_small_r_and_departs_near_screening_length():
    ds = figure_dataset("fig1c")
    exact = _series(ds, "exact,lambda_d=1,F=0.1")
    series = _series(ds, "series,lambda_d=1,F=0.1")
    inner = [
        abs(ys - ye) / abs(ye)
        for (r, ye), (_, ys) in zip(exact, series)
        if r <= 0.05 and abs(ye) > 1e-6
    ]
    outer = [
        abs(ys - ye) / abs(ye)
        for (r, ye), (_, ys) in zip(exact, series)
        if r >= 1.0 and abs(ye) > 1e-6
    ]
    # sub-percent agreement well inside the screening length, visible
    # departure once r approaches it
    assert inner and max(inner) < 1e-2
    assert outer and max(outer) > 0.1
    # deep inside the validity window (r << lambda_d and r >> alpha0) the
    # agreement tightens by orders of magnitude
    exact_wide = _series(ds, "exact,lambda_d=100,F=0.1")
    series_wide = _series(ds, "series,lambda_d=100,F=0.1")
    tight = [
        abs(ys - ye) / abs(ye)
        for (r, ye), (_, ys) in zip(exact_wide, series_wide)
        if 0.5 <= r <= 5.0 and abs(ye) > 1e-3
    ]
    assert tight and max(tight) < 1e-5


def test_fig2d_monotone_decrease_with_flattening():
    ds = figure_dataset("fig2d")
    for f in (0.0001, 0.001, 0.01, 0.04):
        pts = _series(ds, f"F={f:g}")
        lams = [x for x, _ in pts]
        energies = [y for _, y in pts]
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert all(a > b for a, b in zip(energies, energies[1:]))
        e_at = lambda lam: energies[int(np.argmin(np.abs(np.array(lams) - lam)))]
        drop_before = e_at(2.0) - e_at(25.0)
        drop_after = e_at(25.0) - e_at(100.0)
        assert drop_after < 0.1 * drop_before


def test_fig2a_energy_eventually_decreases_with_quiver_amplitude():
    ds = figure_dataset("fig2a")
    pts = _series(ds, "F=0.001")
    energies = [y for _, y in pts]
    assert energies[-1] < energies[0]
