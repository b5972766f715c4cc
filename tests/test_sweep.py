import numpy as np
import pytest

from laserplasma.oracle import RadialGrid
from laserplasma.perturbation import total_energy
from laserplasma.potential import ModelParams
from laserplasma.sweep import (
    FIGURE_TAGS,
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


def test_invalid_value_aborts_with_named_value():
    spec = SweepSpec("lambda_d", (-3.0,), FIXED)
    with pytest.raises(ValueError) as err:
        run_sweep(spec)
    assert "lambda_d" in str(err.value)
    assert "-3" in str(err.value)


def test_rerun_identical():
    spec = SweepSpec.linear("field", 1e-4, 4e-2, 7, FIXED)
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


def test_geometric_range_builder():
    spec = SweepSpec.geometric("alpha0", 1e-4, 1e-1, 4, FIXED)
    assert spec.values[0] == pytest.approx(1e-4)
    assert spec.values[-1] == pytest.approx(1e-1)
    ratios = np.diff(np.log(spec.values))
    assert np.allclose(ratios, ratios[0])


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
