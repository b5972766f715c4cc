import itertools
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from laserplasma import perturbation, potential
from laserplasma.perturbation import (
    EnergyBreakdown,
    e3_hierarchy,
    superpotential_set,
    total_energy,
    wavefunction_eval,
)
from laserplasma.oracle import RadialGrid, solve_ground_state
from laserplasma.potential import ModelParams, taylor_coefficients, veff_series_eval
from laserplasma.sweep import SweepSpec, _spacing, figure_dataset, run_sweep, table1_rows

from exact import series_terms

AU = dict(z=1.0, mu=1.0, hbar=1.0, e_charge=1.0)


def random_params(n, seed=20240817):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        out.append(
            ModelParams(
                lambda_d=rng.uniform(2.0, 200.0),
                alpha0=rng.uniform(0.0, 0.01),
                field=rng.uniform(0.0, 0.1),
            )
        )
    return out


def chi0_of(p):
    """The unit-normalized Coulomb ground state chi0 at p's (Z, mu, hbar, e): the
    perturbed state with no screening, laser or field, where both corrections are 0."""
    coulomb = ModelParams(lambda_d=math.inf, z=p.z, mu=p.mu, hbar=p.hbar, e_charge=p.e_charge)
    return lambda r: wavefunction_eval(r, coulomb)


def weighted_integral(p, integrand):
    """Integral of chi0^2 * integrand over the bound-state support."""
    chi0 = chi0_of(p)
    upper = 40.0 / p.decay_rate
    val, _ = quad(
        lambda r: chi0(r) ** 2 * integrand(r), 0.0, upper,
        epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    return val


def profiles(p):
    """W0, W1 and W2 written from the two superpotential coefficients."""
    slope, scale = superpotential_set(p)
    k = p.hbar / math.sqrt(2.0 * p.mu)
    a, two_over_sig = p.coulomb_strength, 2.0 / p.decay_rate
    return (lambda r: -k / r + a / k, lambda r: slope * r,
            lambda r: scale * r * (r + two_over_sig))


def test_zeroth_order_reference_case():
    p = ModelParams(lambda_d=100.0)
    energy, chi0 = total_energy(p).e0, chi0_of(p)
    assert energy == -2.0
    # chi0 vanishes linearly at the wall, which lies outside every evaluator's domain
    assert chi0(1e-300) == 2.0 * 2.0**1.5 * 1e-300
    with pytest.raises(ValueError, match="radial distance must be finite and > 0"):
        chi0(0.0)


def test_zeroth_order_normalization_and_moment():
    p = ModelParams(lambda_d=50.0, alpha0=1e-3, field=0.01)
    assert weighted_integral(p, lambda r: 1.0) == pytest.approx(1.0, abs=1e-10)
    mean_r = weighted_integral(p, lambda r: r)
    assert mean_r == pytest.approx(1.5 / p.decay_rate, rel=1e-10)
    assert mean_r == pytest.approx(0.75, rel=1e-10)


def test_zeroth_order_scaling_in_z():
    # doubling the charge quadruples the binding, independent of screening
    e1 = total_energy(ModelParams(lambda_d=1e12, z=1.0)).e0
    e2 = total_energy(ModelParams(lambda_d=1e12, z=2.0)).e0
    assert e2 == 4.0 * e1


@pytest.mark.parametrize("z, mu, hbar, e_charge", [
    (1.0, 1.0, 1.0, 1.0), (2.0, 1.0, 1.0, 1.0), (1.0, 0.5, 1.5, 1.2), (3.0, 2.0, 0.7, 0.9),
])
def test_unperturbed_wavefunction_is_chi0_and_e0_is_minus_sigma_a(
        z, mu, hbar, e_charge):
    # at lambda_D = inf, alpha0 = F = 0 the W1 slope and W2 scale are 0, so the
    # perturbed state is 2 sigma^{3/2} r e^{-sigma r} exactly
    p = ModelParams(lambda_d=math.inf, z=z, mu=mu, hbar=hbar, e_charge=e_charge)
    sig = p.decay_rate
    for r in (1e-300, 0.05, 1.0 / sig, 3.7, 20.0 / sig):
        assert wavefunction_eval(r, p) == 2.0 * sig**1.5 * r * math.exp(-sig * r)
    r = np.linspace(0.01, 20.0 / sig, 500)
    assert np.array_equal(wavefunction_eval(r, p), 2.0 * sig**1.5 * r * np.exp(-sig * r))
    screened = ModelParams(lambda_d=7.0, alpha0=1e-3, field=0.02, z=z, mu=mu, hbar=hbar,
                           e_charge=e_charge)
    assert total_energy(screened).e0 == -sig * p.coulomb_strength


def test_e1_hand_value():
    p = ModelParams(lambda_d=100.0, alpha0=1e-4, field=0.04)
    assert total_energy(p).e1 == pytest.approx(0.03, abs=1e-10)


def test_e1_vanishes_without_perturbation():
    assert total_energy(ModelParams(lambda_d=5.0)).e1 == 0.0


def test_e1_matches_defining_integral():
    for p in random_params(6):
        c = taylor_coefficients(p)
        integral = weighted_integral(p, lambda r: c.c1 * r)
        assert integral == pytest.approx(total_energy(p).e1, rel=1e-10, abs=1e-14)


def test_e1_sign_threshold():
    # e1 >= 0 exactly when the field beats the dressing contribution
    a0, lam = 0.2, 2.0
    threshold = a0**6 / (180.0 * lam**8) - a0**2 / lam**4
    # threshold is negative here, so even F = 0 keeps e1 positive
    assert threshold < 0
    assert total_energy(ModelParams(lambda_d=lam, alpha0=a0)).e1 >= 0.0
    # extreme quiver amplitude flips the threshold sign, but only past
    # alpha0/lambda_D = 180**(1/4) = 3.66, beyond the smaller root of c3:
    # total_energy refuses the point, and the unchecked ladder loop shows it
    a0, lam = 8.0, 2.0
    threshold = a0**6 / (180.0 * lam**8) - a0**2 / lam**4
    assert threshold > 0
    fixed = ModelParams(lambda_d=lam, alpha0=a0)
    with pytest.raises(ValueError, match=r"^the cubic model needs alpha0/lambda_d below"):
        total_energy(replace(fixed, field=2.0))
    above, below = perturbation._breakdowns(fixed, "field", (2.0, 1.0))
    assert above.e1 >= 0.0 > below.e1


def test_w1_profile():
    p = ModelParams(lambda_d=100.0, field=0.01)
    _, w1, _ = profiles(p)
    # (1/(hbar*sigma)) sqrt(mu/2) c1 at r=1: 0.01 / (2 * 2 / sqrt(2))
    assert w1(1.0) == pytest.approx(0.0035355339059327377, rel=1e-14)
    _, zero, _ = profiles(ModelParams(lambda_d=1e12))
    assert zero(3.0) == 0.0


def test_w1_riccati_residual():
    for p in random_params(6, seed=11):
        c = taylor_coefficients(p)
        w0, w1, _ = profiles(p)
        k, dw1 = p.hbar / math.sqrt(2.0 * p.mu), superpotential_set(p)[0]
        e1 = total_energy(p).e1
        for r in (0.1, 0.5, 1.0, 2.0, 5.0):
            lhs = 2.0 * w0(r) * w1(r) - k * dw1
            assert abs(lhs - (c.c1 * r - e1)) < 1e-10


def test_e2_hand_value():
    p = ModelParams(lambda_d=100.0, alpha0=0.0, field=0.04)
    assert total_energy(p).e2 == pytest.approx(-1.505e-4, rel=1e-12)


def test_e2_two_closed_forms_agree():
    for p in random_params(8, seed=5):
        a = p.coulomb_strength
        lam, a0 = p.lambda_d, p.alpha0
        bracket = (
            -(a0**8) / (4620.0 * lam**11)
            + a0**6 / (135.0 * lam**9)
            + a0**4 / (7.0 * lam**7)
            - 6.0 * a0**2 / (5.0 * lam**5)
            - 2.0 / lam**3
        )
        lin = p.field / a - a0**6 / (180.0 * lam**8) + a0**2 / lam**4
        direct = (
            p.hbar**4 / (4.0 * p.mu**2 * a) * bracket
            - 3.0 * p.hbar**6 / (32.0 * p.mu**3 * a**2) * lin**2
        )
        assert total_energy(p).e2 == pytest.approx(direct, rel=1e-12)


def test_e2_vanishes_in_free_limit():
    assert abs(total_energy(ModelParams(lambda_d=1e12)).e2) < 1e-20


def test_e2_matches_defining_integral():
    for p in random_params(6, seed=3):
        c = taylor_coefficients(p)
        _, w1, _ = profiles(p)
        integral = weighted_integral(p, lambda r: c.c2 * r**2 - w1(r) ** 2)
        assert integral == pytest.approx(total_energy(p).e2, rel=1e-10)


def test_w2_structure():
    _, _, nearly_zero = profiles(ModelParams(lambda_d=1e12))
    assert abs(nearly_zero(2.0)) < 1e-30


def test_w2_riccati_residual():
    # authoritative correctness check for the second-order superpotential
    for p in random_params(8, seed=99):
        c = taylor_coefficients(p)
        w0, w1, w2 = profiles(p)
        k, scale = p.hbar / math.sqrt(2.0 * p.mu), superpotential_set(p)[1]
        e2 = total_energy(p).e2
        two_over_sig = 2.0 / p.decay_rate
        for r in (0.1, 0.5, 1.0, 2.0, 5.0):
            dw2 = scale * (2.0 * r + two_over_sig)
            lhs = w1(r) ** 2 + 2.0 * w0(r) * w2(r) - k * dw2
            assert abs(lhs - (c.c2 * r**2 - e2)) < 1e-9


def test_e3_hand_value():
    p = ModelParams(lambda_d=100.0, alpha0=0.0, field=0.04)
    assert total_energy(p).e3 == pytest.approx(4.219625e-5, rel=1e-9)


def test_e3_vanishes_in_free_limit():
    assert abs(total_energy(ModelParams(lambda_d=1e12)).e3) < 1e-20


def test_e3_gap_to_defining_integral_is_the_known_term():
    # <c3 r^3 - w1*w2> is the Table-1 form's own factor-1 moment, not the
    # hierarchy's third order (that is <c3 r^3 - 2 w1*w2>, `e3_hierarchy`).
    # The Table-1 form carries a c1^2 cross term where this moment has
    # c1^3, and the same mixed c1*c2 term.  The gap between the two is
    # therefore exactly (27 mu^2 / (4 hbar^4 sigma^4)) (c1^2 - c1^3) / (2 sigma^3);
    # pin it.
    for p in random_params(6, seed=42):
        c = taylor_coefficients(p)
        _, w1, w2 = profiles(p)
        integral = weighted_integral(p, lambda r: c.c3 * r**3 - w1(r) * w2(r))
        sig = p.decay_rate
        gap = (
            27.0 * p.mu**2 * (c.c1**2 - c.c1**3) / (4.0 * p.hbar**4 * sig**4)
        ) / (2.0 * sig**3)
        assert total_energy(p).e3 - integral == pytest.approx(gap, rel=1e-9)


def test_e3_hierarchy_equals_its_expanded_form():
    # (7.5 c3 - 27 slope scale) / sigma^3 expanded in mu, hbar and sigma
    scaled = [ModelParams(lambda_d=lambda_d, alpha0=alpha0, field=field, z=z, mu=0.75,
                          hbar=1.5, e_charge=1.2)
              for z in (1.3, 2.0)
              for lambda_d, alpha0, field in ((20.0, 1e-3, 0.01), (5.0, 1e-2, 0.04),
                                              (100.0, 1e-4, 1e-4))]
    for p in random_params(20, seed=23) + scaled:
        c = taylor_coefficients(p)
        sig = p.decay_rate
        expanded = (15.0 * c.c3 - 27.0 * p.mu * c.c1 * c.c2 / (p.hbar**2 * sig**2)
                    + 27.0 * p.mu**2 * c.c1**3 / (2.0 * p.hbar**4 * sig**4)) / (2.0 * sig**3)
        assert e3_hierarchy(p) == pytest.approx(expanded, rel=1e-14, abs=0.0)


def test_hierarchy_refuses_a_value_past_the_floats(monkeypatch):
    # the inputs whose hierarchy or ladder left the floats (e3 = inf at
    # lambda_D = 1e-77, A = Z e**2 at e = 1e200, the scale's c1^2 /
    # (8 sigma^3 k^3) at hbar = 1e10, F = 1e150, a zero divisor sigma**3 at
    # hbar = 1e80 and 4 hbar**4 sigma**4 at hbar = 1e50) lie outside
    # ModelParams' band, which refuses them before any energy is computed
    for kwargs, name in (({"lambda_d": 1e-77}, "lambda_d"),
                         ({"lambda_d": 1.0, "e_charge": 1e200}, "e_charge"),
                         ({"lambda_d": 100.0, "field": 1e150, "hbar": 1e10}, "hbar"),
                         ({"lambda_d": 100.0, "hbar": 1e80}, "hbar"),
                         ({"lambda_d": 100.0, "hbar": 1e50}, "hbar")):
        with pytest.raises(ValueError, match=f"^{name} must "):
            ModelParams(**kwargs)
    # at the band's edges in hbar, with lambda_D = 100 a0 and alpha0 = a0 for
    # the Bohr radius a0 = hbar^2, and at the band's largest field, every
    # superpotential and energy is finite
    for hbar in (1e-3, 1e3):
        for field in (0.0, 1e3 / (hbar**2) ** 2):
            p = ModelParams(lambda_d=100.0 * hbar**2, alpha0=hbar**2, field=field, hbar=hbar)
            values = (*superpotential_set(p), e3_hierarchy(p), *total_energy(p))
            assert all(map(math.isfinite, values)), p
    # e3_hierarchy takes its coefficients in one pass
    calls = []
    monkeypatch.setattr(perturbation, "taylor_coefficients",
                        lambda q: calls.append(q) or taylor_coefficients(q))
    p = ModelParams(lambda_d=20.0, alpha0=1e-3, field=0.01)
    e3_hierarchy(p)
    assert calls == [p]


def test_library_energies_refuse_the_ratios_past_the_c3_sign_change():
    # the CLI's refusal, raised by the library too: past the smaller root of
    # c3 the cubic model has no ground state, where total_energy gave
    # -4.2166301 and e3_hierarchy 7.2186 at alpha0/lambda_D = 2.5
    root = potential._C3_ROOT
    for p, ratio in ((ModelParams(lambda_d=1.0, alpha0=2.5), "2.5"),
                     (ModelParams(lambda_d=2.0, alpha0=2.0 * root), "1.87036")):
        for evaluate in (total_energy, e3_hierarchy):
            with pytest.raises(ValueError, match=r"^the cubic model needs alpha0/lambda_d below "
                                                 r"1\.8703596, where c3 first changes sign; "
                                                 rf"got alpha0/lambda_d = {ratio}$"):
                evaluate(p)
    below = ModelParams(lambda_d=1.0, alpha0=math.nextafter(root, 0.0))
    assert math.isfinite(total_energy(below).total) and math.isfinite(e3_hierarchy(below))


def _band_corners():
    """(corner, largest field) for every corner of ModelParams' band, with lambda_D
    at a0/BAND or inf, and at each (mu, hbar, e_charge, Z, F) corner alpha0/lambda_D
    just below the c3 root at the smallest lambda_D; the bounds are computed as
    ModelParams computes them, so each corner lies in the band."""
    band, root = potential.BAND, potential._C3_ROOT
    for mu, hbar, e_charge, z in itertools.product(*[(1 / band, band)] * 3, (1.0, band)):
        base = ModelParams(lambda_d=math.inf, z=z, mu=mu, hbar=hbar, e_charge=e_charge)
        a0 = hbar**2 / (mu * base.coulomb_strength)
        field_max = band * base.coulomb_strength / a0**2
        for field in (0.0, field_max):
            for lambda_d, alpha0 in itertools.product((a0 / band, math.inf), (0.0, band * a0)):
                yield replace(base, lambda_d=lambda_d, alpha0=alpha0, field=field), field_max
            alpha0 = root * a0 / band
            while not alpha0 / (a0 / band) < root:
                alpha0 = math.nextafter(alpha0, 0.0)
            yield replace(base, lambda_d=a0 / band, alpha0=alpha0, field=field), field_max


def test_every_corner_of_the_band_is_finite():
    # the band is what lets the closed forms drop their overflow checks: at each
    # corner every coefficient, superpotential and energy is a finite float, and
    # no RuntimeWarning is raised (pyproject turns it into an error); where
    # alpha0/lambda_D lies past the c3 root the energies refuse the point instead
    corners = 0
    for p, field_max in _band_corners():
        values = [*vars(taylor_coefficients(p)).values(), *superpotential_set(p)]
        if p.alpha0 / p.lambda_d < potential._C3_ROOT:
            rows = run_sweep(SweepSpec("field", _spacing(0.0, field_max, 1000), p))
            assert len(rows) == 1000
            values += [*total_energy(p), e3_hierarchy(p), *(row.breakdown.total for row in rows)]
        else:
            for evaluate in (total_energy, e3_hierarchy):
                with pytest.raises(ValueError, match="^the cubic model needs"):
                    evaluate(p)
        assert all(map(math.isfinite, values)), p
        corners += 1
    assert corners == 16 * 2 * 5


def test_every_laser_corner_gives_a_float_alpha0_or_the_alpha0_band_refusal():
    # at each corner of (mu, e_charge, omega, E0) the quotient e E0 / (mu omega^2)
    # needs no overflow handler: it is a float that the alpha0 band accepts or refuses
    band = potential.BAND
    accepted = 0
    for mu, e_charge, omega, e0_amp in itertools.product(*[(1 / band, band)] * 3, (0.0, band)):
        alpha0 = e_charge * e0_amp / (mu * omega**2)
        assert math.isfinite(alpha0) and alpha0 <= 1e15
        try:
            p = ModelParams(lambda_d=math.inf, mu=mu, e_charge=e_charge, omega=omega,
                            e0_amp=e0_amp)
        except ValueError as exc:
            assert str(exc).startswith("alpha0 must lie in [0, 1000 a0]"), exc
        else:
            assert p.alpha0 == alpha0 and p.alpha0 <= 1e9
            accepted += 1
    assert accepted == 12


def test_physical_atoms_lie_in_the_band():
    # muonic hydrogen (reduced mass 185.84), positronium (mu = 0.5) and Z = 118
    # are accepted, with finite energies, from lambda_D = 1 to the unscreened limit
    for atom in ({"mu": 185.84}, {"mu": 0.5}, {"z": 118.0}):
        for lambda_d in (1.0, 100.0, math.inf):
            p = ModelParams(lambda_d=lambda_d, alpha0=1e-4, field=0.01, **atom)
            assert all(map(math.isfinite, (*total_energy(p), e3_hierarchy(p)))), p
    # CO2 (omega = 0.0043), Ti:sapphire (0.057) and 100 eV XUV (3.67 a.u.) lasers at
    # E0 = 1e-4 and 1e-2 fix alpha0 <= 541 a0, in the band; their energies may still
    # lie past the c3 root, a separate check
    for omega, e0_amp in itertools.product((0.0043, 0.057, 3.67), (1e-4, 1e-2)):
        p = ModelParams(lambda_d=math.inf, omega=omega, e0_amp=e0_amp)
        assert p.alpha0 == p.e_charge * e0_amp / (p.mu * omega**2) <= 541.0


def test_breakdowns_refuses_a_total_past_the_floats():
    # lambda_D = 1e-77 lies outside the band, so only a direct call reaches the last
    # guard: c3 is about 3.3e307 and 15 c3 overflows to inf, with no RuntimeWarning
    breakdowns = perturbation._breakdowns(ModelParams(lambda_d=5.0), "lambda_d", (1e-77,))
    with pytest.raises(OverflowError, match="^energy is not finite$"):
        next(breakdowns)


def test_e3_hierarchy_total_matches_oracle():
    # The oracle solves the same cubic potential.  With the hierarchy's
    # third order the total misses it by an F^4 term (1.19e-7 here); the
    # factor-1 moment <c3 r^3 - w1*w2> misses it by about 8 times the bound.
    p = ModelParams(lambda_d=100.0, alpha0=1e-4, field=0.04)
    c = taylor_coefficients(p)
    oracle = solve_ground_state(
        lambda r: veff_series_eval(r, c), RadialGrid(0.0, 20.0, 8000), p
    )
    b = total_energy(p)
    closed = b.e0 + b.const_shift + b.e1 + b.e2 + e3_hierarchy(p)
    assert abs(closed - oracle.energy) <= 2e-7


def _by_the_scaling_law(energy, p):
    """E_h * energy(p in reduced units): the model's one exact symmetry,
    E(A, mu, hbar; lambda_D, alpha0, F) = E_h E(1, 1, 1; lambda_D/a0, alpha0/a0, F a0/E_h),
    with A = Z e^2, a0 = hbar^2/(mu A) and E_h = mu A^2/hbar^2."""
    a = p.coulomb_strength
    a0, e_h = p.hbar**2 / (p.mu * a), p.mu * a**2 / p.hbar**2
    reduced = ModelParams(lambda_d=p.lambda_d / a0, alpha0=p.alpha0 / a0,
                          field=p.field * a0 / e_h)
    return e_h * energy(reduced)


def _hierarchy_total(p):
    b = total_energy(p)
    return b.total - b.e3 + e3_hierarchy(p)


def _printed_total(p):
    return total_energy(p).total


@pytest.mark.parametrize("z, hbar, mu", itertools.product((1.0, 2.0, 1.3), (1.0, 1.5), (1.0, 0.7)))
def test_hierarchy_total_obeys_the_scaling_law(z, hbar, mu):
    for lambda_d, alpha0, field in ((20.0, 1e-3, 0.01), (5.0, 1e-2, 0.04), (100.0, 1e-4, 1e-4)):
        p = ModelParams(lambda_d=lambda_d, alpha0=alpha0, field=field, z=z, mu=mu, hbar=hbar,
                        e_charge=1.2)
        expected = _by_the_scaling_law(_hierarchy_total, p)
        assert _hierarchy_total(p) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("scale, low, high", [({"hbar": 1.5}, 1.5e-4, 1.7e-4),
                                              ({"z": 2.0}, 1.7e-8, 2.0e-8)])
def test_total_energy_breaks_the_scaling_law(scale, low, high):
    # the Table-1 e3's c1^2 term has the units of a length, so the printed
    # total misses the law wherever a0 != 1, while the hierarchy total keeps it
    p = ModelParams(lambda_d=20.0, alpha0=1e-3, field=0.01, **scale)
    assert low < abs(_printed_total(p) / _by_the_scaling_law(_printed_total, p) - 1.0) < high
    assert abs(_hierarchy_total(p) / _by_the_scaling_law(_hierarchy_total, p) - 1.0) < 1e-15


def test_total_energy_reference_values():
    cases = [
        (0.0001, 100.0, -1.9799255),
        (0.04, 100.0, -1.9501083),
        (0.01, 5.0, -1.5959955),
    ]
    for f, lam, expected in cases:
        b = total_energy(ModelParams(lambda_d=lam, alpha0=1e-4, field=f))
        assert b.total == pytest.approx(expected, abs=5e-7)


def test_total_is_exact_component_sum():
    for p in random_params(5, seed=1):
        b = total_energy(p)
        assert b.total == b.e0 + b.const_shift + b.e1 + b.e2 + b.e3
        assert b.e0 < 0.0


def test_energy_breakdown_is_an_immutable_hashable_record():
    p = ModelParams(lambda_d=20.0, alpha0=1e-3, field=0.004)
    b = total_energy(p)
    for name in ("e0", "const_shift", "e1", "e2", "e3", "total"):
        with pytest.raises(AttributeError):
            setattr(b, name, 0.0)
    assert hash(b) == hash(total_energy(p))
    assert b == EnergyBreakdown(b.e0, b.const_shift, b.e1, b.e2, b.e3)
    assert b.total == b.e0 + b.const_shift + b.e1 + b.e2 + b.e3


def test_total_monotonic_in_field_and_screening():
    # the total rises with F on a grid over the benchmark window (lambda_D 5-100,
    # alpha0 1e-4 - 1e-2, F 1e-4 - 0.04), and falls as lambda_D grows
    fields = (0.0001, 0.0004, 0.001, 0.004, 0.01, 0.04)
    for lam, alpha0 in itertools.product((5.0, 10.0, 30.0, 100.0), (1e-4, 1e-3, 1e-2)):
        totals = [total_energy(ModelParams(lambda_d=lam, alpha0=alpha0, field=f)).total
                  for f in fields]
        assert all(a < b for a, b in zip(totals, totals[1:])), (lam, alpha0)
    lams = (5.0, 10.0, 20.0, 40.0, 80.0, 100.0)
    totals = [
        total_energy(ModelParams(lambda_d=lam, alpha0=1e-4, field=0.01)).total
        for lam in lams
    ]
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_table_energies_insensitive_to_alpha0_choice():
    # dressing terms scale like alpha0^2/lambda^4 and are invisible at 1e-7
    for f in (0.0001, 0.04):
        base = total_energy(ModelParams(lambda_d=100.0, alpha0=0.0, field=f)).total
        for a0 in (1e-4, 1e-3):
            shifted = total_energy(ModelParams(lambda_d=100.0, alpha0=a0, field=f)).total
            assert abs(shifted - base) < 1e-7


def test_wavefunction_reduces_to_unperturbed():
    p = ModelParams(lambda_d=1e12)
    chi0 = chi0_of(p)
    r = np.linspace(0.05, 12.0, 40)
    assert np.allclose(wavefunction_eval(r, p), chi0(r), rtol=1e-13)


def test_wavefunction_positive_and_decaying():
    for f, lam in ((0.0001, 100.0), (0.04, 100.0), (0.01, 5.0)):
        p = ModelParams(lambda_d=lam, alpha0=1e-4, field=f)
        r = np.geomspace(1e-4, 20.0, 300)
        psi = wavefunction_eval(r, p)
        assert np.all(psi > 0.0)
        peak = np.max(psi)
        assert psi[0] < 1e-3 * peak
        assert psi[-1] < 1e-10 * peak
    with pytest.raises(ValueError):
        wavefunction_eval(0.0, ModelParams(lambda_d=5.0))


def test_wavefunction_overflow_names_the_radius_and_the_parameters():
    # the cubic exponent overflows math.exp at a float radius; an array holds inf
    p = ModelParams(lambda_d=5.0, field=0.04)
    for r in (1e3, 1e200):
        message = f"wavefunction overflows at r = {r:g} for {p!r}"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            wavefunction_eval(r, p)
    with np.errstate(over="ignore"):
        assert wavefunction_eval(np.array([1.0, 1e3]), p)[1] == math.inf


def test_wavefunction_matches_explicit_moderating_factor():
    p = ModelParams(lambda_d=5.0, alpha0=1e-3, field=0.01)
    _, w1, w2 = profiles(p)
    chi0 = chi0_of(p)
    k = p.hbar / math.sqrt(2.0 * p.mu)
    for r in (0.3, 1.0, 2.5):
        prim, _ = quad(lambda x: w1(x) + w2(x), 0.0, r, epsabs=1e-14)
        expected = chi0(r) * math.exp(-prim / k)
        assert wavefunction_eval(r, p) == pytest.approx(expected, rel=1e-10)


def _count_calls(monkeypatch, names):
    """Wrap each named perturbation global to log its name on every call; returns the log."""
    calls = []

    def counted(name):
        original = getattr(perturbation, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(perturbation, name, counted(name))
    return calls


def test_total_energy_computes_coefficients_once(monkeypatch):
    # total_energy is the one-value sweep of the one kernel loop, so it
    # builds the coefficient parts once
    calls = _count_calls(monkeypatch, ("_coefficients",))
    total_energy(ModelParams(lambda_d=20.0, alpha0=1e-3, field=0.01))
    assert calls == ["_coefficients"]
    # the field enters c1 alone: a field sweep builds the field-free parts
    # once, and a figure whose curves differ in the field once per x point
    calls.clear()
    fixed = ModelParams(lambda_d=20.0, alpha0=1e-3)
    rows = run_sweep(SweepSpec("field", [1e-4 + 1e-5 * i for i in range(1000)], fixed))
    assert (len(rows), len(calls)) == (1000, 1)
    counts = {}
    for tag in ("fig2a", "fig2b", "fig2c", "fig2d"):
        calls.clear()
        figure_dataset(tag)
        counts[tag] = len(calls)
    calls.clear()
    table1_rows()
    counts["table1"] = len(calls)
    assert counts == {"fig2a": 51, "fig2b": 51, "fig2c": 4, "fig2d": 50, "table1": 7}


def _reference_coefficients(a, lambda_d, alpha0, field):
    """(c_m1, c0, c1, c2, c3) summed in plain floats from the exact table,
    in the kernel's operation order: with s = A lambda_D**-(k+1) and
    x = (alpha0/lambda_D)**2, c_k is s u0 (Horner's rule in u over the
    table's terms past j = 0, as floats) + float(j = 0 term) s, where u0 is
    x^(j/2) at the lowest nonzero j and u is x^(j/2) at the step between
    its js.  Adding 0.0 changes only a -0.0, as the kernel's c2 + 0.0 does."""
    x = (alpha0 / lambda_d)**2
    powers = {2: x, 4: x * x}
    coeffs = [-2.0 * a]
    for k in range(4):
        s = a * lambda_d**-(k + 1)
        terms = series_terms(k)  # (j, n, coef), descending j
        rest = [(j, float(coef)) for j, _, coef in terms if j]
        u = powers[rest[-2][0] - rest[-1][0]]
        h = rest[0][1]
        for _, coef in rest[1:]:
            h = coef + u * h
        c = s * powers[rest[-1][0]] * h
        if terms[-1][0] == 0:
            c = c + float(terms[-1][2]) * s
        coeffs.append((field + c if k == 1 else c) + 0.0)
    return tuple(coeffs)


def _reference_ladder(c0, c1, c2, c3, a, mu, hbar):
    """The (e0, c0, e1, e2, e3) expressions as one plain-float function."""
    sig = 2.0 * mu * a / hbar**2
    e2 = 3.0 * c2 / sig**2 - 3.0 * hbar**6 * c1**2 / (32.0 * mu**3 * a**4)
    term_cubic = 15.0 * c3
    term_cross = 27.0 * mu**2 * c1**2 / (4.0 * hbar**4 * sig**4)
    term_mixed = 27.0 * mu * c1 * c2 / (2.0 * hbar**2 * sig**2)
    e3 = (term_cubic + term_cross - term_mixed) / (2.0 * sig**3)
    return -sig * a, c0, 1.5 * c1 / sig, e2, e3


def _reference_sweeps():
    """(vary, fixed, values): 5 bases per axis, 110 values each, with the
    edge values lambda_D = inf, alpha0 = 0 and F = 0 on and off the axis."""
    rng = random.Random(16)
    laser = ModelParams(lambda_d=30.0, field=0.02, z=2.0, omega=0.3, e0_amp=0.002)
    ranges = {"lambda_d": (0.5, 1e4), "alpha0": (1e-6, 1.0), "field": (1e-6, 1.0)}
    edges = {"lambda_d": math.inf, "alpha0": 0.0, "field": 0.0}
    for vary, (lo, hi) in ranges.items():
        bases = [
            ModelParams(lambda_d=7.0, alpha0=0.03, field=0.01),
            ModelParams(lambda_d=math.inf, alpha0=0.0, field=0.0, z=2.0),
            ModelParams(lambda_d=2.5, alpha0=0.2, field=0.3, mu=0.75, hbar=1.5),
            ModelParams(lambda_d=math.inf, alpha0=0.0, field=0.0, z=2.0, mu=0.75, hbar=1.5),
            laser if vary != "alpha0" else ModelParams(lambda_d=40.0, alpha0=laser.alpha0),
        ]
        for fixed in bases:
            values = sorted({math.exp(rng.uniform(math.log(lo), math.log(hi)))
                             for _ in range(109)} | {edges[vary]})
            yield vary, fixed, values


def test_kernel_matches_reference_bit_for_bit():
    points = {"lambda_d": 0, "alpha0": 0, "field": 0}
    fields, several_points = (0.0, 0.01, 0.3), 0
    for vary, fixed, values in _reference_sweeps():
        rows = run_sweep(SweepSpec(vary, values, fixed))
        for value, row in zip(values, rows, strict=True):
            p = replace(fixed, **{vary: value})
            a = p.coulomb_strength
            coeffs = _reference_coefficients(a, p.lambda_d, p.alpha0, p.field)
            expected = _reference_ladder(*coeffs[1:], a, p.mu, p.hbar)
            c = taylor_coefficients(p)
            assert (c.c_m1, c.c0, c.c1, c.c2, c.c3) == coeffs
            b = total_energy(p)
            assert (b.e0, b.const_shift, b.e1, b.e2, b.e3) == expected
            assert row.breakdown == b
            points[vary] += 1
        if vary == "field":
            continue
        # with several fields per point, each point's coefficient parts are
        # shared across the fields without changing a bit
        several = perturbation._breakdowns(fixed, vary, values, fields)
        for (value, field), b in zip(itertools.product(values, fields), several, strict=True):
            p = replace(fixed, **{vary: value})
            a = p.coulomb_strength
            coeffs = _reference_coefficients(a, p.lambda_d, p.alpha0, field)
            assert tuple(b) == _reference_ladder(*coeffs[1:], a, p.mu, p.hbar)
            several_points += 1
    assert min(points.values()) >= 500
    assert several_points >= 2 * 500 * len(fields)


# Complex-step derivatives (Squire & Trapp, SIAM Rev. 40, 110, 1998): with
# step ih, Im E(x + ih) / h is dE/dx to rounding, with no cancellation, so
# it holds only while the kernel is analytic arithmetic on its inputs.  A
# math.* call refuses a complex value and abs drops its imaginary part, so
# either one on a quantity that depends on lambda_D, F or alpha0 in
# `_breakdowns` or `_coefficients` fails these tests.
_STEP = 1e-30
_DERIVATIVE_POINTS = [(100.0, 0.04, 1e-4), (20.0, 0.004, 1e-3), (5.0, 0.01, 1e-4),
                      (4.0, 0.01, 0.06), (1.0, 0.01, 0.3)]


def _complex_step(p, axis):
    value = getattr(p, axis)
    return next(perturbation._breakdowns(p, axis, (complex(value, _STEP),))).total.imag / _STEP


def _central_difference(p, axis):
    value = getattr(p, axis)
    h = 1e-5 * value
    up, down = (total_energy(replace(p, **{axis: value + s})).total for s in (h, -h))
    return (up - down) / (2.0 * h)


@pytest.mark.parametrize("lambda_d, field, alpha0", _DERIVATIVE_POINTS)
def test_field_derivative_is_the_analytic_c1_derivative(lambda_d, field, alpha0):
    # the field enters c1 alone, with dc1/dF = 1, so dE/dF is dE/dc1 of the ladder
    p = ModelParams(lambda_d=lambda_d, field=field, alpha0=alpha0)
    sig, a, mu, hbar = p.decay_rate, p.coulomb_strength, p.mu, p.hbar
    c = taylor_coefficients(p)
    analytic = (1.5 / sig - 6.0 * hbar**6 * c.c1 / (32.0 * mu**3 * a**4)
                + (54.0 * mu**2 * c.c1 / (4.0 * hbar**4 * sig**4)
                   - 27.0 * mu * c.c2 / (2.0 * hbar**2 * sig**2)) / (2.0 * sig**3))
    assert _complex_step(p, "field") == pytest.approx(analytic, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("lambda_d, field, alpha0", _DERIVATIVE_POINTS)
def test_screening_derivative_matches_central_differences(lambda_d, field, alpha0):
    p = ModelParams(lambda_d=lambda_d, field=field, alpha0=alpha0)
    assert _complex_step(p, "lambda_d") == pytest.approx(
        _central_difference(p, "lambda_d"), rel=1e-7, abs=0.0)


@pytest.mark.parametrize("lambda_d, field, alpha0",
                         [point for point in _DERIVATIVE_POINTS if point[2] >= 0.06])
def test_quiver_derivative_matches_central_differences(lambda_d, field, alpha0):
    p = ModelParams(lambda_d=lambda_d, field=field, alpha0=alpha0)
    assert _complex_step(p, "alpha0") == pytest.approx(
        _central_difference(p, "alpha0"), rel=1e-6, abs=0.0)


def test_derivatives_at_the_first_point():
    p = ModelParams(lambda_d=100.0, field=0.04, alpha0=1e-4)
    assert f"{_complex_step(p, 'field'):.14f}" == "0.74460951562500"
    # the alpha0 terms sit below the total's last bit here, so central
    # differences cancel to 0; the complex step still resolves them
    assert _central_difference(p, "alpha0") == 0.0
    assert _complex_step(p, "alpha0") == pytest.approx(-1.3185e-10, rel=1e-4, abs=0.0)
