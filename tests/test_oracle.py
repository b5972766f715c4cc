import numpy as np
import pytest

from laserplasma.oracle import (
    GroundStateError,
    OracleResult,
    RadialGrid,
    _interior_sign_changes,
    default_grid,
    hamiltonian_arrays,
    overlap,
    solve_ground_state,
    solve_on_grid,
)
from laserplasma.perturbation import wavefunction_eval, zeroth_order
from laserplasma.potential import ModelParams, taylor_coefficients, veff_series_eval

COULOMB_GRID = RadialGrid(0.0, 20.0, 8000)
AU = ModelParams(lambda_d=100.0)


def coulomb(r):
    return -2.0 / r


def harmonic(r):
    return 0.5 * r * r


def model_potential(p):
    c = taylor_coefficients(p)
    return lambda r: veff_series_eval(r, c)


def test_grid_geometry():
    g = RadialGrid(0.0, 10.0, 999)
    assert g.spacing == pytest.approx(0.01)
    pts = g.points
    assert len(pts) == 999
    assert pts[0] == pytest.approx(0.01)
    assert pts[-1] == pytest.approx(10.0 - 0.01)
    assert np.all(np.diff(pts) > 0)
    fine = g.refined()
    assert fine.n_points == 1999
    assert fine.spacing == pytest.approx(g.spacing / 2.0)
    # every other fine node coincides with a coarse node
    assert np.allclose(fine.points[1::2], pts)


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(-1.0, 10.0, 500)
    with pytest.raises(ValueError):
        RadialGrid(5.0, 5.0, 500)
    with pytest.raises(ValueError):
        RadialGrid(0.0, 10.0, 50)


def test_default_grid_scales_with_binding():
    assert default_grid(AU).r_max == 50.0
    weak = ModelParams(lambda_d=10.0, mu=0.1)  # decay rate 0.2
    assert default_grid(weak).r_max == pytest.approx(100.0)


def test_coulomb_ground_state():
    result = solve_ground_state(coulomb, COULOMB_GRID, AU)
    assert result.energy == pytest.approx(-2.0, abs=1e-5)
    assert result.converged
    assert result.error_estimate < 1e-4


def test_harmonic_ground_state():
    result = solve_ground_state(harmonic, COULOMB_GRID, AU)
    assert result.energy == pytest.approx(1.5, abs=1e-5)


def test_ground_state_normalization_and_nodelessness():
    result = solve_ground_state(coulomb, COULOMB_GRID, AU)
    h = result.grid.spacing
    assert np.sum(result.u_samples**2) * h == pytest.approx(1.0, abs=1e-10)
    assert _interior_sign_changes(result.u_samples) == 0
    assert np.all(result.u_samples > -1e-12)


def test_second_order_convergence_ratio():
    for potential in (coulomb, harmonic):
        energies = [
            solve_on_grid(potential, RadialGrid(0.0, 20.0, n), AU)[0]
            for n in (1000, 2001, 4003)
        ]
        ratio = (energies[0] - energies[1]) / (energies[1] - energies[2])
        assert 3.7 < ratio < 4.3


def test_richardson_estimate_bounds_true_error():
    result = solve_ground_state(coulomb, RadialGrid(0.0, 20.0, 2000), AU)
    assert abs(result.energy + 2.0) < 10.0 * result.error_estimate


def test_model_potential_matches_reference_energy():
    p = ModelParams(lambda_d=100.0, alpha0=1e-4, field=0.0001)
    result = solve_ground_state(model_potential(p), COULOMB_GRID, p)
    assert result.energy == pytest.approx(-1.9799255, abs=1e-4)


def test_box_size_independence():
    p = ModelParams(lambda_d=100.0, alpha0=1e-4, field=0.0001)
    e20 = solve_ground_state(model_potential(p), RadialGrid(0.0, 20.0, 4000), p).energy
    e30 = solve_ground_state(model_potential(p), RadialGrid(0.0, 30.0, 6000), p).energy
    assert abs(e20 - e30) < 1e-7


def test_nonfinite_potential_rejected():
    with pytest.raises(ValueError, match="not finite"):
        solve_ground_state(
            lambda r: np.where(r > 5.0, -np.inf, -1.0 / r), COULOMB_GRID, AU
        )


def test_interior_node_detection():
    u = np.sin(np.linspace(0.1, 6.0, 500))  # one interior sign change
    assert _interior_sign_changes(u) == 1
    assert _interior_sign_changes(np.abs(u) + 0.01) == 0


def test_overlap_with_self_is_unity():
    result = solve_ground_state(coulomb, COULOMB_GRID, AU)
    pts = result.grid.points
    u = result.u_samples

    def interpolant(r):
        return np.interp(r, pts, u)

    assert overlap(result, interpolant) == pytest.approx(1.0, abs=1e-9)


def test_overlap_with_exact_coulomb_eigenstate():
    result = solve_ground_state(coulomb, COULOMB_GRID, AU)
    _, chi0 = zeroth_order(AU)
    assert overlap(result, chi0) >= 0.99999


def test_overlap_with_perturbed_wavefunction():
    p = ModelParams(lambda_d=100.0, alpha0=1e-4, field=0.0001)
    result = solve_ground_state(model_potential(p), COULOMB_GRID, p)
    ov = overlap(result, lambda r: wavefunction_eval(r, p))
    assert ov >= 0.999
    assert ov <= 1.0 + 1e-9


def test_overlap_rejects_zero_norm():
    result = solve_ground_state(coulomb, COULOMB_GRID, AU)
    with pytest.raises(ValueError, match="zero norm"):
        overlap(result, lambda r: np.zeros_like(r))


def test_variational_bound():
    # Rayleigh quotients of arbitrary normalized trial vectors cannot fall
    # below the matrix ground energy.
    grid = RadialGrid(0.0, 20.0, 2000)
    diag, off = hamiltonian_arrays(coulomb, grid, AU)
    e_raw, _ = solve_on_grid(coulomb, grid, AU)
    rng = np.random.default_rng(12345)
    pts = grid.points
    for width in (0.5, 1.0, 3.0):
        center = rng.uniform(1.0, 8.0)
        trial = pts * np.exp(-((pts - center) ** 2) / (2.0 * width**2))
        trial /= np.linalg.norm(trial)
        rq = trial @ (diag * trial) + 2.0 * trial[:-1] @ (off * trial[1:])
        assert rq >= e_raw - 1e-12


def test_node_capture_flagged():
    # force the solver to look at a state with a node by handing it an
    # eigenvector check directly; full solves on sane potentials always
    # return nodeless states, so exercise the guard at the unit level
    u = np.sin(np.linspace(0.1, 6.0, 500))
    assert _interior_sign_changes(u) > 0
