import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from laserplasma import oracle
from laserplasma.oracle import (
    CONVERGENCE_TOL,
    ConvergenceError,
    GroundStateError,
    OracleResult,
    RadialGrid,
    _lowest_eigenpair,
    default_grid,
    hamiltonian_arrays,
    overlap,
    require_converged,
    solve_ground_state,
    solve_on_grid,
)
from laserplasma.perturbation import wavefunction_eval
from laserplasma.potential import ModelParams, taylor_coefficients, veff_series_eval

from exact import MANUFACTURED_CASES, exact_coefficient, manufactured, pole_free

COULOMB_GRID = RadialGrid(0.0, 20.0, 8000)
AU = ModelParams(lambda_d=100.0)


def coulomb(r):
    return -2.0 / r


def harmonic(r):
    return 0.5 * r * r


def model_potential(p):
    c = taylor_coefficients(p)
    return lambda r: veff_series_eval(r, c)


def flat(n):
    """A unit start vector far from any state's shape."""
    return np.full(n, 1.0 / math.sqrt(n))


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
# the four (lambda_D, F) corners of the benchmark's window, at its middle alpha0
WINDOW_CORNERS = tuple(ModelParams(lambda_d=lam, field=field, alpha0=1e-3)
                       for lam in (5.0, 100.0) for field in (1e-4, 0.04))


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


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(-1.0, 10.0, 500)
    with pytest.raises(ValueError):
        RadialGrid(5.0, 5.0, 500)
    with pytest.raises(ValueError):
        RadialGrid(0.0, 10.0, 50)
    # a count must be an integer, or every solve would fail inside numpy
    for n_points in (8000.0, 8000.5, np.float64(8000.0), "8000"):
        with pytest.raises(ValueError, match=re.escape(f"integer >= 100, got {n_points!r}")):
            RadialGrid(0.0, 50.0, n_points)
    assert RadialGrid(0.0, 50.0, np.int64(8000)).n_points == 8000
    # an infinite box has no spacing: its nodes would sample V at r = inf
    for r_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match="r_max must be finite"):
            RadialGrid(0.0, r_max, 500)
    # the kinetic term divides by h^2, so h^2 must not underflow
    with pytest.raises(ValueError, match="r_max = 1e-300, n_points = 500 .* underflows"):
        RadialGrid(0.0, 1e-300, 500)
    RadialGrid(0.0, 1e-140, 500)


def test_grid_wall_is_at_the_origin():
    # the cubic series keeps the Coulomb pole, so u(0) = 0 is the only right
    # wall: at 0.5 the solver returned -0.680 with estimate 5.7e-7 next to a
    # closed form of -1.973
    for r_min in (0.5, 1e-300, 2.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="r_min must be 0"):
            RadialGrid(r_min, 50.0, 8000)


def test_require_converged_at_its_boundary_and_on_nan():
    grid = RadialGrid(0.0, 20.0, 100)

    def result(estimate):
        return OracleResult(energy=-1.0, u_samples=np.ones(100), error_estimate=estimate,
                            grid=grid)

    at_tol = result(CONVERGENCE_TOL)
    assert require_converged(at_tol) is at_tol
    with pytest.raises(ConvergenceError, match="did not converge"):
        require_converged(result(math.nextafter(CONVERGENCE_TOL, 1)))
    with pytest.raises(ConvergenceError,
                       match="error estimate nan on the grid r_max = 20, n_points = 100"):
        require_converged(result(math.nan))


def test_default_grid_scales_with_binding():
    assert default_grid(AU).r_max == 50.0
    weak = ModelParams(lambda_d=10.0, mu=0.1)  # decay rate 0.2
    assert default_grid(weak).r_max == pytest.approx(500.0)


def test_coulomb_ground_state():
    result = solve_ground_state(coulomb, COULOMB_GRID, AU)
    assert result.energy == pytest.approx(-2.0, abs=1e-5)
    assert result.error_estimate < 1e-4


def test_harmonic_ground_state():
    result = solve_ground_state(harmonic, COULOMB_GRID, AU)
    assert result.energy == pytest.approx(1.5, abs=1e-5)


def test_ground_state_normalization_and_nodelessness():
    # the certified shift makes every iterate >= 0 exactly, so no state has
    # a sign change, not even at the noise floor; on the 20 a.u. box no
    # state's tail underflows, so there every node is positive
    cases = [
        *((potential, p) for _, potential, p in SOLVER_CASES),
        *((manufactured(2.0, q, b, -1.9), AU) for q, b in MANUFACTURED_CASES),
        *((model_potential(p), p) for p in WINDOW_CORNERS),
    ]
    for potential, p in cases:
        for grid in (COULOMB_GRID, default_grid(p)):
            u = solve_ground_state(potential, grid, p).u_samples
            assert np.sum(u * u) * grid.spacing == pytest.approx(1.0, abs=1e-10)
            assert np.all(u > 0.0) if grid is COULOMB_GRID else np.all(u >= 0.0)


@pytest.mark.parametrize("name, potential, p", SOLVER_CASES, ids=[c[0] for c in SOLVER_CASES])
def test_solver_matches_full_precision_bisection(name, potential, p):
    for grid in (COULOMB_GRID, RadialGrid(0.0, 20.0, 16001), default_grid(p)):
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
    # the n // 2 and n // 4 solves of solve_ground_state, each started from
    # the same hydrogen-like vector as the requested grid
    for grid in (COULOMB_GRID, default_grid(p)):
        for n in (grid.n_points // 2, grid.n_points // 4):
            coarse = RadialGrid(0.0, grid.r_max, n)
            diag, off = hamiltonian_arrays(potential, coarse, p)
            energy, u = solve_on_grid(potential, coarse, p)
            assert abs(energy - _bisected_lowest(diag, off)) <= _rounding_bound(diag, off)
            assert np.all(u > 0.0)  # the first and last node included
            assert np.sum(u * u) * coarse.spacing == pytest.approx(1.0)


def test_shift_search_is_certified_whatever_the_guess():
    # a guess above E_1 = -0.5 must not converge to E_1, and one 100 Ha
    # below E_0 must not stall; both return E_0, from a flat start vector
    # far from the state's shape
    diag, off = hamiltonian_arrays(coulomb, COULOMB_GRID, AU)
    exact = _bisected_lowest(diag, off)
    assert -2.0 < exact < -1.99
    for guess in (-0.4, exact - 100.0):
        energy, u = _lowest_eigenpair(diag, off, guess, flat(diag.size))
        assert abs(energy - exact) <= _rounding_bound(diag, off)
        assert np.all(u > 0.0)
        assert np.linalg.norm(u) == pytest.approx(1.0)


@pytest.mark.parametrize("p", [
    ModelParams(lambda_d=0.5, field=0.04, alpha0=1e-3),
    ModelParams(lambda_d=0.5, field=0.04, alpha0=0.05),
    ModelParams(lambda_d=3.0, field=3.0, alpha0=1e-3),
    ModelParams(lambda_d=3.0, field=4.0, alpha0=1e-3),
    ModelParams(lambda_d=math.inf, field=4.0),
    ModelParams(lambda_d=math.inf, field=4.0, alpha0=1e-3),
    ModelParams(lambda_d=math.inf, field=4.0, alpha0=0.05),
    ModelParams(lambda_d=5.0, field=0.5, hbar=1.5),
    ModelParams(lambda_d=2.0, field=4.0),
], ids=lambda p: f"lambda{p.lambda_d:g}-F{p.field:g}-alpha{p.alpha0:g}-hbar{p.hbar:g}")
def test_well_separated_states_settle_at_rounding(p):
    # E_1 - E_0 is 1.8 to 5.8 Ha here, so the iteration reaches rounding in a
    # few steps; it used to bisect the shift at each stall until the
    # factorization cap.  At lambda_D = 2, F = 4 the 8000- and 4000-point
    # solves stall near 1e-13, above their 1e-15 |E| target, and settle at
    # rounding; without that return the 8000-point solve raises GroundStateError
    grid = default_grid(p)
    for n in (grid.n_points, grid.n_points // 2, grid.n_points // 4):
        coarse = RadialGrid(0.0, grid.r_max, n)
        diag, off = hamiltonian_arrays(model_potential(p), coarse, p)
        energy, u = solve_on_grid(model_potential(p), coarse, p)
        assert abs(energy - _bisected_lowest(diag, off)) <= _rounding_bound(diag, off)
        assert np.all(u >= 0.0)
    assert require_converged(solve_ground_state(model_potential(p), grid, p)).energy > 0.0


def test_each_grid_solve_factors_once(monkeypatch):
    # deterministic work count with one eigensolver: no bisection anywhere,
    # and each grid of a ground state, started from r exp(-s r) and its
    # Rayleigh quotient, factors once, with no failed factorization, and
    # settles in two back-substitutions: the second one's own Rayleigh
    # quotient and inverse-iteration value agree to rounding
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
        sizes = {grid.n_points, grid.n_points // 2, grid.n_points // 4}
        assert {n for _, n in calls} == sizes
        for n in sizes:
            assert calls.count(("dpttrf", n)) == 1
            assert calls.count(("dpttrs", n)) == 2


def test_potential_may_write_into_its_radii():
    # the potential gets a fresh, writable grid.points on every call
    p = ModelParams(lambda_d=20.0, field=0.004)
    grid = RadialGrid(0.0, 40.0, 1000)

    def in_place(r):
        r *= 1.0
        return model_potential(p)(r)

    expected = solve_ground_state(model_potential(p), grid, p)
    assert solve_ground_state(in_place, grid, p).energy == expected.energy


def test_cached_start_is_read_only_and_keyed_by_grid_and_decay_rate():
    grid = RadialGrid(0.0, 40.0, 1000)
    charges = [ModelParams(lambda_d=20.0, field=0.004, z=z) for z in (1.0, 2.0)]
    assert charges[0].decay_rate != charges[1].decay_rate
    start, square, cross = oracle._start(grid, charges[0].decay_rate)
    for array in (start, square):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    assert oracle._start(grid, charges[0].decay_rate)[0] is start
    assert oracle._start(RadialGrid(0.0, 40.0, 1000), charges[0].decay_rate)[0] is start
    assert oracle._start(RadialGrid(0.0, 40.0, 1001), charges[0].decay_rate)[0] is not start
    assert oracle._start(grid, charges[1].decay_rate)[0] is not start
    assert np.linalg.norm(start) == pytest.approx(1.0, abs=1e-15)
    # the guess's terms come from the floored unit u, and the first iterate is
    # that u divided by its norm once more
    r = grid.points
    log_u = np.log(r) - charges[0].decay_rate * r
    u = np.exp(log_u - np.max(log_u))
    u = np.maximum(u / math.sqrt(u @ u), sys.float_info.min)
    assert np.array_equal(square, u * u) and cross == float(u[:-1] @ u[1:])
    assert np.array_equal(start, u / math.sqrt(u @ u))

    def solve(p):
        result = solve_ground_state(model_potential(p), grid, p)
        return result.energy, result.error_estimate, result.u_samples

    fresh = []
    for p in charges:
        oracle._start.cache_clear()
        fresh.append(solve(p))
    # Z = 1, then 2, then 1 again on a warm cache: bit for bit the cold solves
    for p, cold in zip((*charges, charges[0]), (*fresh, fresh[0])):
        warm = solve(p)
        assert warm[:2] == cold[:2]
        assert np.array_equal(warm[2], cold[2])
        assert warm[2].flags.writeable
    # two solves only read the cached start, and each hands out a vector of its own
    p = charges[0]
    start = oracle._start(grid, p.decay_rate)[0]
    cached = start.tobytes()
    vectors = [solve_on_grid(model_potential(p), grid, p)[1] for _ in range(2)]
    assert oracle._start(grid, p.decay_rate)[0] is start and start.tobytes() == cached
    for u in vectors:
        assert u.flags.writeable and not np.shares_memory(u, start)


def test_solver_caps_raise_instead_of_returning_a_number(monkeypatch):
    diag, off = hamiltonian_arrays(coulomb, COULOMB_GRID, AU)
    monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 1)
    with pytest.raises(GroundStateError, match="did not settle"):
        _lowest_eigenpair(diag, off, -2.0, flat(diag.size))
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_MAX_FACTORIZATIONS", 3)
    with pytest.raises(GroundStateError, match="no certified shift"):
        # three steps down from -0.4 stay above E_0
        _lowest_eigenpair(diag, off, -0.4, flat(diag.size))


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
    # the state needs r_max >= 20 / decay_rate = 10: all three Richardson
    # grids share the wall, so a smaller box gives a wrong energy with a tiny
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
        assert abs(result.energy + 1.9) <= 1e-10


def test_manufactured_true_error_is_sixth_order():
    # the three-grid energy's error falls like h^6: 4096x per 4x refinement
    potential = manufactured(2.0, 2e-2, 5e-3, -1.9)
    errors = [abs(solve_ground_state(potential, RadialGrid(0.0, 50.0, n), AU).energy + 1.9)
              for n in (2000, 8000)]
    assert 3e3 <= errors[0] / errors[1] <= 5e3


def test_error_estimate_is_honest():
    # estimate / true error on exact eigenpairs: never below 1, so a grid
    # that require_converged passes is converged, and not so far above that
    # it refuses grids whose energy is fine (the two-grid estimate read 1.3e4)
    grids = (default_grid(AU), *(RadialGrid(0.0, 50.0, n) for n in (400, 1000, 2000)))
    for q, b in MANUFACTURED_CASES:
        for grid in grids:
            result = solve_ground_state(manufactured(2.0, q, b, -1.9), grid, AU)
            assert 1.0 <= result.error_estimate / abs(result.energy + 1.9) <= 1e3


def test_default_grid_error_estimate_is_honest_at_every_charge():
    # the box spans 100 decay lengths, so the grid shrinks with the state:
    # on exact eigenpairs scaled to charge Z the ratio stays near 650 and
    # every estimate passes (a fixed 50 a.u. box fails the tolerance from Z = 5)
    for z in (1.0, 2.0, 5.0, 8.0):
        p = ModelParams(lambda_d=100.0, z=z)
        for q, b in MANUFACTURED_CASES:
            e_m = -1.9 * z * z
            potential = manufactured(2.0 * z, q * z * z, b * z**3, e_m)
            result = solve_ground_state(potential, default_grid(p), p)
            assert 1.0 <= result.error_estimate / abs(result.energy - e_m) <= 1e3, (z, q, b)
            assert result.error_estimate <= CONVERGENCE_TOL


def test_grid_too_small_for_the_quarter_grid_is_refused():
    # the n // 4 grid must be a RadialGrid, whose floor is 100 points
    p = ModelParams(lambda_d=100.0, alpha0=1e-4, field=0.01)
    with pytest.raises(ValueError, match="n_points = 399 .* needs n_points >= 400"):
        solve_ground_state(model_potential(p), RadialGrid(0.0, 50.0, 399), p)
    result = solve_ground_state(model_potential(p), RadialGrid(0.0, 50.0, 400), p)
    assert result.u_samples.size == 400


# lambda_D and the cut E_cubic - E_uncut at F = 0.01, alpha0 = 1e-4 on default_grid
CUT_CASES = ((100.0, 9.04e-12), (10.0, 9.2532e-7), (5.0, 2.98592e-5), (3.0, 3.969246e-4),
             (2.0, 3.246398e-3))


def test_cubic_cut_against_the_pole_free_potential():
    # the paper cuts the potential at O(r^4): the same solver on the uncut
    # pole-free potential measures what the cut costs, and first-order
    # perturbation over the hydrogen-like state, <r^k> = (k+2)! / (2 (2s)^k),
    # estimates it from the exact coefficients c_4 .. c_14
    cuts, estimates = {}, {}
    for lam, stored in CUT_CASES:
        p = ModelParams(lambda_d=lam, field=0.01, alpha0=1e-4)
        a, s, grid = p.coulomb_strength, p.decay_rate, default_grid(p)
        uncut = pole_free(a, lam, p.alpha0, p.field)
        cuts[lam] = (solve_ground_state(model_potential(p), grid, p).energy
                     - solve_ground_state(uncut, grid, p).energy)
        assert abs(cuts[lam] - stored) <= 1e-9
        estimates[lam] = -sum(
            float(exact_coefficient(k, a, lam, p.alpha0, p.field, j_max=16))
            * math.factorial(k + 2) / (2.0 * (2.0 * s) ** k) for k in range(4, 15))
    for lam in (10.0, 5.0):
        assert abs(estimates[lam] - cuts[lam]) <= 0.02 * cuts[lam]
    # a 9e-12 cut is near the solver's rounding, so 2% of it is out of reach
    assert abs(estimates[100.0] - cuts[100.0]) <= 1e-12
    # at stronger screening the first-order estimate falls short (4.3% and 12.6%)
    for lam in (3.0, 2.0):
        assert estimates[lam] < cuts[lam]


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


def test_overlap_with_self_is_unity():
    result = solve_ground_state(coulomb, COULOMB_GRID, AU)
    pts = result.grid.points
    u = result.u_samples

    def interpolant(r):
        return np.interp(r, pts, u)

    assert overlap(result, interpolant) == pytest.approx(1.0, abs=1e-9)


def test_overlap_with_exact_coulomb_eigenstate():
    result = solve_ground_state(coulomb, COULOMB_GRID, AU)
    # the perturbed state with no screening, laser or field is chi0
    coulomb_point = ModelParams(lambda_d=math.inf)
    assert overlap(result, lambda r: wavefunction_eval(r, coulomb_point)) >= 0.99999


def test_overlap_with_perturbed_wavefunction():
    p = ModelParams(lambda_d=100.0, alpha0=1e-4, field=0.0001)
    result = solve_ground_state(model_potential(p), COULOMB_GRID, p)
    ov = overlap(result, lambda r: wavefunction_eval(r, p))
    assert ov >= 0.999
    assert ov <= 1.0 + 1e-9


def _lowest_vector(diag, off):
    """The tridiagonal's lowest unit eigenvector, signed to sum positive."""
    _, vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    return vectors[:, 0] * np.sign(vectors[:, 0].sum())


@pytest.mark.parametrize("p", WINDOW_POINTS, ids=lambda p: f"lambda{p.lambda_d:g}")
def test_vector_and_overlap_match_the_tridiagonal_eigenvector(p):
    # each solve shrinks the vector's error by (E_0 - shift) / (E_1 - shift),
    # about 1e-4, and the iteration stops once the Rayleigh quotient and the
    # inverse-iteration value agree to 1e-15 |E|, which leaves the unit vector
    # about 1e-10 from the eigenvector (1.3e-10 at worst here); the overlap,
    # a sum over it, moves by about 1e-13
    for grid in (COULOMB_GRID, default_grid(p)):
        result = solve_ground_state(model_potential(p), grid, p)
        diag, off = hamiltonian_arrays(model_potential(p), grid, p)
        exact = _lowest_vector(diag, off)
        u = result.u_samples * math.sqrt(grid.spacing)
        assert np.linalg.norm(u - exact) <= 1e-9
        reference = replace(result, u_samples=exact / math.sqrt(grid.spacing))

        def psi(r):
            return wavefunction_eval(r, p)

        assert abs(overlap(result, psi) - overlap(reference, psi)) <= 1e-12


def test_vector_off_the_window_matches_the_tridiagonal_eigenvector():
    # off the window the gap to E_1 is a larger share of |E_0 - shift|, or the
    # start is far from the state, so two solves leave the unit vector
    # further from the eigenvector: 5.0e-9 at lambda_D = 2, F = 4, 7.2e-9 at
    # lambda_D = 0.5, 2.4e-9 from a flat start (the trial function overflows
    # on these grids, so no overlap is taken)
    for p in (ModelParams(lambda_d=2.0, field=4.0), ModelParams(lambda_d=0.5, field=0.04, alpha0=1e-3)):
        grid = default_grid(p)
        result = solve_ground_state(model_potential(p), grid, p)
        exact = _lowest_vector(*hamiltonian_arrays(model_potential(p), grid, p))
        assert np.linalg.norm(result.u_samples * math.sqrt(grid.spacing) - exact) <= 1e-8
    diag, off = hamiltonian_arrays(coulomb, COULOMB_GRID, AU)
    exact = _lowest_vector(diag, off)
    for guess in (-0.4, -102.0):
        _, u = _lowest_eigenpair(diag, off, guess, flat(diag.size))
        assert np.linalg.norm(u - exact) <= 1e-8


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
