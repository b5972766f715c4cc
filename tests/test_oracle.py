import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from laserplasma import oracle
from laserplasma.oracle import (
    GroundStateError,
    OracleResult,
    RadialGrid,
    _interior_sign_changes,
    _lowest_eigenpair,
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


# corners and middle of the window the benchmark draws its points from
WINDOW_POINTS = (
    ModelParams(lambda_d=100.0, field=1e-4, alpha0=1e-4),
    ModelParams(lambda_d=5.0, field=0.04, alpha0=1e-2),
    ModelParams(lambda_d=20.0, field=0.004, alpha0=1e-3),
)
# (name, potential, params): three shapes with known spectra and the cubic model
SOLVER_CASES = [
    ("coulomb", coulomb, AU),
    ("harmonic", harmonic, AU),
    ("box", lambda r: 0.25, AU),
    *((f"model-lambda{p.lambda_d:g}", model_potential(p), p) for p in WINDOW_POINTS),
]


def _bisected_lowest(diag, off):
    """Lowest eigenvalue by bisection run to full precision."""
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0),
                            tol=2.0 * np.finfo(float).tiny)[0]


def _rounding_bound(diag, off):
    """4 eps |T|_inf: the accuracy any backward-stable eigensolver can claim."""
    row = np.abs(diag) + np.pad(np.abs(off), (1, 0)) + np.pad(np.abs(off), (0, 1))
    return 4.0 * np.finfo(float).eps * np.max(row)


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
    # an infinite box has no spacing: its nodes would sample V at r = inf
    for r_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match="r_max must be finite"):
            RadialGrid(0.0, r_max, 500)
    # the kinetic term divides by h^2, so h^2 must not underflow
    with pytest.raises(ValueError, match="r_max = 1e-300, n_points = 500 .* underflows"):
        RadialGrid(0.0, 1e-300, 500)
    RadialGrid(0.0, 1e-140, 500)


def test_default_grid_scales_with_binding():
    assert default_grid(AU).r_max == 50.0
    weak = ModelParams(lambda_d=10.0, mu=0.1)  # decay rate 0.2
    assert default_grid(weak).r_max == pytest.approx(100.0)


def test_coulomb_ground_state():
    result = solve_ground_state(coulomb, COULOMB_GRID, AU)
    assert result.energy == pytest.approx(-2.0, abs=1e-5)
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


@pytest.mark.parametrize("name, potential, p", SOLVER_CASES, ids=[c[0] for c in SOLVER_CASES])
def test_solver_matches_full_precision_bisection(name, potential, p):
    for grid in (COULOMB_GRID, COULOMB_GRID.refined(), default_grid(p)):
        diag, off = hamiltonian_arrays(potential, grid, p)
        energy, u = solve_on_grid(potential, grid, p)
        assert abs(energy - _bisected_lowest(diag, off)) <= _rounding_bound(diag, off)
        assert np.all(u > 0.0)  # nodeless at every node, not only up to noise


def test_shift_search_is_certified_whatever_the_guess():
    # a guess above E_1 = -0.5 must not converge to E_1, and one 100 Ha
    # below E_0 must not stall; both return E_0
    diag, off = hamiltonian_arrays(coulomb, COULOMB_GRID, AU)
    exact = _bisected_lowest(diag, off)
    assert -2.0 < exact < -1.99
    for guess in (-0.4, exact - 100.0):
        energy, u = _lowest_eigenpair(diag, off, guess, np.ones(diag.size))
        assert abs(energy - exact) <= _rounding_bound(diag, off)
        assert np.all(u > 0.0)
        assert np.linalg.norm(u) == pytest.approx(1.0)


def test_carried_vector_keeps_shared_nodes_and_is_zero_at_the_walls():
    grid = RadialGrid(0.0, 10.0, 999)
    u = np.exp(-grid.points) * grid.points
    fine = oracle._carried(u, grid, grid.refined())
    # on a nested refinement: the shared nodes kept, each midpoint the mean
    # of its neighbours, with u = 0 at the walls
    walled = np.concatenate(([0.0], u, [0.0]))
    nested = np.empty(2 * u.size + 1)
    nested[1::2] = u
    nested[0::2] = 0.5 * (walled[:-1] + walled[1:])
    assert np.allclose(fine, nested, rtol=1e-10, atol=0.0)
    # from the 16x coarser grid of an unseeded solve: positive at every
    # node, the first and last included
    grid, coarse = RadialGrid(0.0, 10.0, 8000), RadialGrid(0.0, 10.0, 8000 // 16)
    assert np.all(oracle._carried(np.exp(-coarse.points) * coarse.points, coarse, grid) > 0.0)


@pytest.mark.parametrize("name, potential, p", SOLVER_CASES, ids=[c[0] for c in SOLVER_CASES])
def test_seeded_refined_solve_is_certified(name, potential, p):
    # the h/2 solve of solve_ground_state, seeded by the h-grid eigenpair
    for grid in (COULOMB_GRID, default_grid(p)):
        e_coarse, u_coarse = solve_on_grid(potential, grid, p)
        fine = grid.refined()
        diag, off = hamiltonian_arrays(potential, fine, p)
        energy, u = solve_on_grid(potential, fine, p,
                                  seed=(e_coarse, oracle._carried(u_coarse, grid, fine)))
        assert abs(energy - _bisected_lowest(diag, off)) <= _rounding_bound(diag, off)
        assert np.all(u > 0.0)  # the first and last node included
        assert np.sum(u * u) * fine.spacing == pytest.approx(1.0)


def test_a_wrong_seed_still_returns_the_ground_state():
    fine = COULOMB_GRID.refined()
    diag, off = hamiltonian_arrays(coulomb, fine, AU)
    exact = _bisected_lowest(diag, off)
    e_harmonic, u_harmonic = solve_on_grid(harmonic, COULOMB_GRID, AU)
    _, u_coulomb = solve_on_grid(coulomb, COULOMB_GRID, AU)
    # the harmonic eigenpair (E = 1.5, wrong shape), and the right vector
    # with an energy above E_1 = -0.5
    for seed in ((e_harmonic, oracle._carried(u_harmonic, COULOMB_GRID, fine)),
                 (-0.4, oracle._carried(u_coulomb, COULOMB_GRID, fine))):
        energy, u = solve_on_grid(coulomb, fine, AU, seed=seed)
        assert abs(energy - exact) <= _rounding_bound(diag, off)
        assert np.all(u > 0.0)


def test_refined_solve_reuses_the_coarse_eigenpair(monkeypatch):
    # deterministic work count with one eigensolver: no bisection anywhere,
    # an h grid that starts from the carried coarse eigenvector in no more
    # back-substitutions than it took from a flat vector and a bisected
    # guess (6, 5 and 6), and a refined solve that starts converged enough
    # to need one factorization and few back-substitutions
    import scipy.linalg
    import scipy.linalg.lapack

    def bisection(*args, **kwargs):
        raise AssertionError("eigh_tridiagonal called")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", bisection)
    calls = []

    def counted(name):
        real = getattr(scipy.linalg.lapack, name)

        def wrapper(*args, **kwargs):
            calls.append((name, np.size(args[0])))
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, wrapper)

    counted("dpttrf")
    counted("dpttrs")
    for p, flat_start_solves in zip(WINDOW_POINTS, (6, 5, 6)):
        calls.clear()
        grid = default_grid(p)
        solve_ground_state(model_potential(p), grid, p)
        n_fine = grid.refined().n_points
        assert calls.count(("dpttrs", grid.n_points)) <= flat_start_solves
        assert calls.count(("dpttrf", n_fine)) == 1
        assert calls.count(("dpttrs", n_fine)) <= 4


def test_solver_caps_raise_instead_of_returning_a_number(monkeypatch):
    diag, off = hamiltonian_arrays(coulomb, COULOMB_GRID, AU)
    monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 1)
    with pytest.raises(GroundStateError, match="did not settle"):
        _lowest_eigenpair(diag, off, -2.0, np.ones(diag.size))
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_MAX_FACTORIZATIONS", 3)
    with pytest.raises(GroundStateError, match="no certified shift"):
        # three steps down from -0.4 stay above E_0
        _lowest_eigenpair(diag, off, -0.4, np.ones(diag.size))


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


def test_constant_potential_is_broadcast_to_the_grid():
    # one number for the whole grid is a particle in a box of length 10,
    # shifted by that number: pi^2 hbar^2 / (2 mu L^2) + 0.25
    result = solve_ground_state(lambda r: 0.25, RadialGrid(0.0, 10.0, 2000), AU)
    assert result.energy == pytest.approx(np.pi**2 / 200.0 + 0.25, abs=1e-9)
    with pytest.raises(ValueError):
        solve_ground_state(lambda r: np.zeros(3), COULOMB_GRID, AU)


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
