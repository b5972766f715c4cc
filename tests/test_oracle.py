import math
import warnings

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

from exact import MANUFACTURED_CASES, manufactured

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
        assert np.sum(u * u) * grid.spacing == pytest.approx(1.0)
    # a box so large that the start vector r exp(-2 r) underflows to its
    # floor over most of it, and a steep state's tail to 0
    grid = RadialGrid(0.0, 1000.0, 8000)
    diag, off = hamiltonian_arrays(potential, grid, p)
    energy, u = solve_on_grid(potential, grid, p)
    assert abs(energy - _bisected_lowest(diag, off)) <= _rounding_bound(diag, off)
    assert np.all(u >= 0.0)


@pytest.mark.parametrize("name, potential, p", SOLVER_CASES, ids=[c[0] for c in SOLVER_CASES])
def test_seeded_refined_solve_is_certified(name, potential, p):
    # the h/2 solve of solve_ground_state, which starts from the same
    # hydrogen-like vector as the h grid rather than from its eigenpair
    for grid in (COULOMB_GRID, default_grid(p)):
        fine = grid.refined()
        diag, off = hamiltonian_arrays(potential, fine, p)
        energy, u = solve_on_grid(potential, fine, p)
        assert abs(energy - _bisected_lowest(diag, off)) <= _rounding_bound(diag, off)
        assert np.all(u > 0.0)  # the first and last node included
        assert np.sum(u * u) * fine.spacing == pytest.approx(1.0)


def test_shift_search_is_certified_whatever_the_guess():
    # a guess above E_1 = -0.5 must not converge to E_1, and one 100 Ha
    # below E_0 must not stall; both return E_0, from a flat start vector
    # far from the state's shape
    diag, off = hamiltonian_arrays(coulomb, COULOMB_GRID, AU)
    exact = _bisected_lowest(diag, off)
    assert -2.0 < exact < -1.99
    for guess in (-0.4, exact - 100.0):
        energy, u = _lowest_eigenpair(diag, off, guess, np.ones(diag.size))
        assert abs(energy - exact) <= _rounding_bound(diag, off)
        assert np.all(u > 0.0)
        assert np.linalg.norm(u) == pytest.approx(1.0)


def test_each_grid_solve_factors_once(monkeypatch):
    # deterministic work count with one eigensolver: no bisection anywhere,
    # and each grid of a ground state, started from r exp(-s r) and its
    # Rayleigh quotient, factors once, with no failed factorization, and
    # converges in few back-substitutions
    import scipy.linalg
    import scipy.linalg.lapack

    def bisection(*args, **kwargs):
        raise AssertionError("eigh_tridiagonal called")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", bisection)
    calls = []

    def counted(name):
        real = getattr(scipy.linalg.lapack, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append((name, np.size(args[0])))
            if name == "dpttrf":
                assert out[-1] == 0, "dpttrf failed"
            return out

        monkeypatch.setattr(scipy.linalg.lapack, name, wrapper)

    counted("dpttrf")
    counted("dpttrs")
    for p in WINDOW_POINTS:
        calls.clear()
        grid = default_grid(p)
        solve_ground_state(model_potential(p), grid, p)
        sizes = {grid.n_points, grid.refined().n_points}
        assert {n for _, n in calls} == sizes
        for n in sizes:
            assert calls.count(("dpttrf", n)) == 1
            assert calls.count(("dpttrs", n)) <= 4


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


def test_box_too_small_for_the_state_is_refused_by_the_solver():
    # the state needs r_max >= 20 / decay_rate = 10: both Richardson grids
    # share the wall, so a smaller box gives a wrong energy with a tiny
    # estimate (-0.476 for -1.973 at r_max = 1), or warns and fails to settle
    p = ModelParams(lambda_d=100.0, alpha0=1e-4, field=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r_max in (1e-100, 1.0, 9.99):
            grid = RadialGrid(0.0, r_max, 8000)
            for solve in (solve_on_grid, solve_ground_state):
                with pytest.raises(ValueError, match=f"r_max = {r_max:g} is too small"):
                    solve(model_potential(p), grid, p)
        result = solve_ground_state(model_potential(p), RadialGrid(0.0, 10.0, 8000), p)
    assert result.energy == pytest.approx(-1.9725072, abs=1e-5)  # Table 1


def test_manufactured_ground_states_on_the_default_grid():
    # exact eigenpairs r exp(-Q) at E_m = -1.9: FD's true error, not an estimate
    for q, b in MANUFACTURED_CASES:
        result = solve_ground_state(manufactured(2.0, q, b, -1.9), default_grid(AU), AU)
        assert abs(result.energy + 1.9) <= 2e-9


def test_manufactured_true_error_is_fourth_order():
    # the Richardson energy's error falls like h^4: 256x per 4x refinement
    potential = manufactured(2.0, 2e-2, 5e-3, -1.9)
    errors = [abs(solve_ground_state(potential, RadialGrid(0.0, 50.0, n), AU).energy + 1.9)
              for n in (2000, 8000)]
    assert 200.0 <= errors[0] / errors[1] <= 320.0


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
