"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run standalone (``python tests/test_acceptance.py``) for the plain report,
or through pytest (``pytest tests/test_acceptance.py -v``).

Criterion 2's third-order leg integrates the hierarchy's own moment,
<c3 r^3 - 2 W1 W2>: the order-3 equation 2 W1 W2 + 2 W0 W3 - k W3' =
c3 r^3 - E3, k = hbar/sqrt(2 mu), carries the same factor 2 from
expanding W^2 that gives the e2 leg its W1^2 and that criterion 3 checks
at orders 1 and 2.  It pins `e3_hierarchy`.  The printed energies use
the paper's Table-1 third order (`total_energy(p).e3`), which criterion 1
pins; the unit suite (test_perturbation.py) pins the gap between that
form and its own factor-1 moment, and the total built on `e3_hierarchy`
against the oracle.  See README "Known limitations".
"""

import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

if __name__ == "__main__":  # run as a script, import this checkout's package, installed or not
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from laserplasma.cli import main as cli_main
from laserplasma.oracle import RadialGrid, overlap, solve_ground_state, solve_on_grid
from laserplasma.perturbation import (
    e3_hierarchy,
    superpotential_set,
    total_energy,
    wavefunction_eval,
)
from laserplasma.potential import (
    ModelParams,
    dressed_pair_eval,
    taylor_coefficients,
    v0_quadrature,
    veff_series_eval,
)
from laserplasma.sweep import (
    TABLE1_FIELD_VALUES,
    TABLE1_LAMBDA_VALUES,
    figure_dataset,
    table1_rows,
)

from exact import MANUFACTURED_CASES, exact_coefficient, manufactured

SEED = 20240817
ORACLE_GRID = RadialGrid(0.0, 20.0, 8000)


def random_parameter_sets(n=50):
    rng = np.random.default_rng(SEED)
    return [
        ModelParams(
            lambda_d=rng.uniform(2.0, 200.0),
            alpha0=rng.uniform(0.0, 0.01),
            field=rng.uniform(0.0, 0.1),
        )
        for _ in range(n)
    ]


def table1_parameter_sets():
    sets = [ModelParams(lambda_d=100.0, alpha0=1e-4, field=f) for f in TABLE1_FIELD_VALUES]
    sets += [ModelParams(lambda_d=lam, alpha0=1e-4, field=0.01) for lam in TABLE1_LAMBDA_VALUES]
    return sets


def weighted_integral(p, integrand):
    # chi0 is the perturbed state with no screening, laser or field
    coulomb = ModelParams(lambda_d=math.inf, z=p.z, mu=p.mu, hbar=p.hbar, e_charge=p.e_charge)
    upper = 40.0 / p.decay_rate
    val, _ = quad(
        lambda r: wavefunction_eval(r, coulomb) ** 2 * integrand(r), 0.0, upper,
        epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    return val


def criterion_1_reference_table():
    """Reference energies regenerate to 5e-7 in under a second."""
    t0 = time.perf_counter()
    rows = table1_rows()
    exit_code = cli_main(["table1", "--output", "/dev/null"])
    elapsed = time.perf_counter() - t0
    max_dev = max(abs(r["deviation"]) for r in rows)
    ok = len(rows) == 12 and max_dev < 5e-7 and exit_code == 0 and elapsed < 1.0
    return ok, f"12 energies, max |deviation| = {max_dev:.2e} (tol 5e-7), {elapsed:.2f}s"


def criterion_2_defining_integrals():
    """Closed-form corrections match their defining moment integrals to 1e-9."""
    t0 = time.perf_counter()
    worst = {"e1": 0.0, "e2": 0.0, "e3": 0.0}
    for p in random_parameter_sets():
        c = taylor_coefficients(p)
        slope, scale = superpotential_set(p)
        two_over_sig = 2.0 / p.decay_rate
        b = total_energy(p)
        closed = {
            "e1": b.e1,
            "e2": b.e2,
            "e3": e3_hierarchy(p),
        }
        integrals = {
            "e1": weighted_integral(p, lambda r: c.c1 * r),
            "e2": weighted_integral(p, lambda r: c.c2 * r**2 - (slope * r) ** 2),
            "e3": weighted_integral(
                p, lambda r: c.c3 * r**3 - 2.0 * (slope * r) * (scale * r * (r + two_over_sig))),
        }
        for key in worst:
            rel = abs(integrals[key] - closed[key]) / max(abs(closed[key]), 1e-18)
            worst[key] = max(worst[key], rel)
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-9 for v in worst.values()) and elapsed < 30.0
    return ok, (
        f"max rel: e1 {worst['e1']:.2e}, e2 {worst['e2']:.2e}, "
        f"e3 {worst['e3']:.2e} (tol 1e-9), {elapsed:.1f}s"
    )


def criterion_3_riccati_residuals():
    """First/second-order superpotentials satisfy their hierarchy equations."""
    radii = np.geomspace(1e-3, 20.0, 30)
    worst = 0.0
    for p in random_parameter_sets():
        c = taylor_coefficients(p)
        slope, scale = superpotential_set(p)
        k = p.hbar / math.sqrt(2.0 * p.mu)
        b = total_energy(p)
        e1, e2 = b.e1, b.e2
        two_over_sig = 2.0 / p.decay_rate
        # W0, W1, W2 and W2' from the coefficients
        w0v = -k / radii + p.coulomb_strength / k
        w1v, w2v = slope * radii, scale * radii * (radii + two_over_sig)
        res1 = np.abs(2.0 * w0v * w1v - k * slope - (c.c1 * radii - e1))
        dw2 = scale * (2.0 * radii + two_over_sig)
        res2 = np.abs(w1v**2 + 2.0 * w0v * w2v - k * dw2 - (c.c2 * radii**2 - e2))
        worst = max(worst, float(np.max(res1)), float(np.max(res2)))
    ok = worst < 1e-9
    return ok, f"max pointwise residual {worst:.2e} (tol 1e-9) on r in [1e-3, 20]"


def criterion_4_oracle_cross_validation():
    """Eigensolver on the cubic potential agrees with the closed-form total."""
    t0 = time.perf_counter()
    max_dev = 0.0
    min_overlap = 1.0
    for p in table1_parameter_sets():
        c = taylor_coefficients(p)
        result = solve_ground_state(lambda r: veff_series_eval(r, c), ORACLE_GRID, p)
        max_dev = max(max_dev, abs(total_energy(p).total - result.energy))
        min_overlap = min(min_overlap, overlap(result, lambda r: wavefunction_eval(r, p)))
    elapsed = time.perf_counter() - t0
    ok = max_dev <= 1e-4 and min_overlap >= 0.999 and elapsed < 60.0
    return ok, (
        f"12 sets: max |dE| = {max_dev:.2e} (tol 1e-4), min overlap = "
        f"{min_overlap:.6f} (tol 0.999), {elapsed:.1f}s"
    )


def criterion_5_oracle_self_tests():
    """Known closed-form spectra, manufactured eigenpairs and the second-order ratio."""
    p = ModelParams(lambda_d=100.0)
    coulomb = solve_ground_state(lambda r: -2.0 / r, ORACLE_GRID, p)
    harmonic = solve_ground_state(lambda r: 0.5 * r * r, ORACLE_GRID, p)
    dev_c = abs(coulomb.energy + 2.0)
    dev_h = abs(harmonic.energy - 1.5)
    dev_m = max(abs(solve_ground_state(manufactured(2.0, q, b, -1.9), ORACLE_GRID, p).energy + 1.9)
                for q, b in MANUFACTURED_CASES)
    energies = [
        solve_on_grid(lambda r: -2.0 / r, RadialGrid(0.0, 20.0, n), p)[0]
        for n in (1000, 2001, 4003)
    ]
    ratio = (energies[0] - energies[1]) / (energies[1] - energies[2])
    ok = dev_c <= 1e-5 and dev_h <= 1e-5 and dev_m <= 1e-10 and 3.7 <= ratio <= 4.3
    return ok, (
        f"Coulomb dev {dev_c:.1e}, harmonic dev {dev_h:.1e} (tol 1e-5), "
        f"manufactured dev {dev_m:.1e} (tol 1e-10), refinement ratio {ratio:.3f} (4 +/- 0.3)"
    )


def ehlotzky_triples():
    """100 (r, alpha0, lambda_d) triples inside the stated constraint region.

    The endpoint approximation error scales like (alpha0/r)^2 / 2, so the
    1e-5 tolerance needs r several hundred quiver amplitudes out; the grid
    below stays representative of the bound-state region (r up to half the
    screening length) while satisfying r >= 10 alpha0 and
    alpha0/lambda_d <= 1e-3 everywhere.
    """
    triples = []
    for lam in (2.0, 5.0, 10.0, 20.0, 35.0, 50.0, 75.0, 100.0, 150.0, 200.0):
        for frac_alpha, r_fracs in (
            (1e-5, (0.005, 0.02, 0.05, 0.2, 0.5)),
            (1e-4, (0.05, 0.2, 0.5)),
            (3e-4, (0.2, 0.5)),
        ):
            a0 = frac_alpha * lam
            for fr in r_fracs:
                triples.append((fr * lam, a0, lam))
    return triples


def criterion_6_cycle_average_validation():
    """Quadrature cycle average vs endpoint form over 100 triples."""
    triples = ehlotzky_triples()
    assert len(triples) == 100
    worst = 0.0
    for r, a0, lam in triples:
        assert r >= 10.0 * a0 and a0 / lam <= 1e-3
        p = ModelParams(lambda_d=lam, alpha0=a0)
        pair = dressed_pair_eval(r, p)
        rel = abs(v0_quadrature(r, p) - pair) / abs(pair)
        worst = max(worst, rel)
    ok = worst < 1e-5
    return ok, f"100 triples, max rel difference {worst:.2e} (tol 1e-5)"


def criterion_7_figure_behaviors():
    """Monotonicity/flattening behaviors of the emitted figure datasets."""
    ds = figure_dataset("fig2d")
    flattening_ok = True
    monotone_ok = True
    for f in (0.0001, 0.001, 0.01, 0.04):
        pts = [(x, y) for (lab, x, y) in ds.rows if lab == f"F={f:g}"]
        energies = [y for _, y in pts]
        lams = [x for x, _ in pts]
        monotone_ok &= all(a > b for a, b in zip(energies, energies[1:]))
        e_at = lambda target: energies[int(np.argmin(np.abs(np.array(lams) - target)))]
        flattening_ok &= (e_at(25.0) - e_at(100.0)) < 0.1 * (e_at(2.0) - e_at(25.0))
    ds1 = figure_dataset("fig1a")
    repulsion_ok = True
    for lam in (1.0, 2.0, 5.0, 100.0):
        weak = dict(
            (x, y) for (lab, x, y) in ds1.rows if lab == f"F=0.4,lambda_d={lam:g}"
        )
        strong = dict(
            (x, y) for (lab, x, y) in ds1.rows if lab == f"F=1.2,lambda_d={lam:g}"
        )
        repulsion_ok &= all(strong[r] > weak[r] for r in weak)
    ok = monotone_ok and flattening_ok and repulsion_ok
    return ok, (
        f"fig2d monotone decrease {monotone_ok}, flattening beyond ~25 "
        f"{flattening_ok}; fig1a stronger field less attractive {repulsion_ok}"
    )


def criterion_8_expansion_audit():
    """c0..c3 equal the exact expansion series of their own float inputs."""
    worst = 0.0
    for field in (0.0, 0.01):
        p = ModelParams(lambda_d=100.0, alpha0=1e-3, field=field)
        c = taylor_coefficients(p)
        for k, got in enumerate((c.c0, c.c1, c.c2, c.c3)):
            want = exact_coefficient(k, p.coulomb_strength, p.lambda_d, p.alpha0, p.field)
            worst = max(worst, float(abs(Fraction(got) - want) / abs(want)))
    ok = worst <= 1e-15
    return ok, f"max rel coefficient error {worst:.2e} (tol 1e-15) at F in (0, 0.01)"


CRITERIA = [
    ("reference-table reproduction", criterion_1_reference_table),
    ("closed forms vs defining integrals", criterion_2_defining_integrals),
    ("superpotential hierarchy residuals", criterion_3_riccati_residuals),
    ("oracle cross-validation", criterion_4_oracle_cross_validation),
    ("oracle self-tests", criterion_5_oracle_self_tests),
    ("cycle-average endpoint validation", criterion_6_cycle_average_validation),
    ("figure dataset behaviors", criterion_7_figure_behaviors),
    ("expansion coefficient audit", criterion_8_expansion_audit),
]


def _report(index, name, ok, detail):
    line = f"[criterion {index}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    return line


@pytest.mark.parametrize(
    "index,name,check", [(i + 1, n, c) for i, (n, c) in enumerate(CRITERIA)],
    ids=[f"criterion_{i + 1}" for i in range(len(CRITERIA))],
)
def test_acceptance(index, name, check):
    ok, detail = check()
    line = _report(index, name, ok, detail)
    assert ok, line


if __name__ == "__main__":
    failures = 0
    for i, (name, check) in enumerate(CRITERIA, start=1):
        ok, detail = check()
        _report(i, name, ok, detail)
        failures += 0 if ok else 1
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed")
    sys.exit(1 if failures else 0)
