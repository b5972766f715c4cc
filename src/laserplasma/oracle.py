"""Independent finite-difference ground-state solver for radial potentials.

Discretizes -(hbar^2 / 2 mu) u'' + V(r) u = E u on a uniform grid with
Dirichlet walls at r = 0, where the l = 0 radial function vanishes, and at
r_max; interior points start one step inside, where 1/r potentials are
finite.  The 3-point stencil gives a symmetric tridiagonal matrix T whose
lowest eigenpair comes from shifted inverse iteration.  Its eigenvalue's
error is a series in even powers of the spacing, E_h = E + a h^2 + b h^4
+ O(h^6), so solving on the requested grid of n points and on grids of
n // 2 and n // 4 points and fitting that quadratic in h^2 through the
three values (Richardson, Phil. Trans. R. Soc. A 210, 307, 1911) cancels
the h^2 and h^4 terms.  The error estimate is the fit's distance from the
two-grid (h^2-only) extrapolation of the two finest grids, which is the
size of the h^4 term that the fit removes: on `default_grid` at Z = 1 it
reads about 2.4e-8 while the returned energy is off by about 4e-11, and
on coarse grids it stays above the true error.

The shift is certified: it starts below a guess of the lowest eigenvalue
and moves down until T - shift I has an LDL^T factorization, which proves
shift < E_0.  T's off-diagonal is negative, so T - shift I is then a
positive-definite M-matrix, whose factor's off-diagonal is negative too:
each substitution of a solve only adds nonnegative terms.  Each grid starts
from the Coulomb pole's own state r exp(-s r), s = ``p.decay_rate``,
floored so it is positive at every node, and from its Rayleigh quotient, an
upper bound of E_0, so every iterate is >= 0 exactly, and the iteration
converges to the nodeless ground state with no node check; the first
shift sits 2e-4 max(1, |Q|) below that quotient Q.  Each back-substitution
y = (T - shift I)^-1 u gives two values, E_0 <= Rayleigh quotient of y
<= inverse-iteration value shift + 1/(u.y), and the iteration stops once
they agree to about 1e-15 |E|; the energy is the Rayleigh quotient.  A
Coulomb-like state, near its start r exp(-s r), takes one factorization
and two back-substitutions per grid.  The unit start of each (grid, s) is
built once and cached read-only.  numpy is imported only by the functions
that build or read the grid arrays, and scipy (LAPACK) only when a solve
runs, so importing this module loads neither.

This solver shares no code with the closed-form energy ladder in
`laserplasma.perturbation`, which is exactly what makes it usable as a
cross-check of those formulas.
"""

import functools
import math
import sys
from dataclasses import dataclass

from .potential import ModelParams

__all__ = [
    "RadialGrid",
    "OracleResult",
    "GroundStateError",
    "ConvergenceError",
    "CONVERGENCE_TOL",
    "BOX_DECAY_LENGTHS",
    "MIN_POINTS",
    "default_grid",
    "require_box",
    "require_grid",
    "hamiltonian_arrays",
    "solve_on_grid",
    "solve_ground_state",
    "overlap",
    "require_converged",
]

# Largest Richardson error estimate (a.u.) that counts as converged.
CONVERGENCE_TOL = 1e-4

# Fewest points `solve_ground_state` takes: its n // 4 grid must be a RadialGrid.
MIN_POINTS = 400

# Caps on one eigensolve; reaching either raises GroundStateError.
_MAX_FACTORIZATIONS = 40
_MAX_ITERATIONS = 50


class GroundStateError(RuntimeError):
    """An eigensolve reached its cap on factorizations or on iterations."""


class ConvergenceError(RuntimeError):
    """The error estimate of an oracle result exceeds `CONVERGENCE_TOL`."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid with Dirichlet walls at r = 0 and r_max.

    The n_points interior (unknown) nodes sit at r_k = k h, k = 1..n_points,
    with h = r_max / (n_points + 1).  The wall at the origin is the true
    u(0) = 0 condition of the l = 0 equation, and a Coulomb pole is only
    ever evaluated at r >= h; any other wall gives a wrong energy with a
    small error estimate, so ``r_min`` must be 0.
    ``r_min`` remains a field only because bench/workloads.py builds and reads it.
    """

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self):
        if self.r_min != 0.0:
            raise ValueError(f"r_min must be 0, the wall where u(0) = 0, got r_min = {self.r_min}")
        if not 0.0 < self.r_max < float("inf"):
            raise ValueError(f"r_max must be finite and exceed r_min, got r_max = {self.r_max}")
        if not hasattr(self.n_points, "__index__") or self.n_points < 100:
            raise ValueError(f"n_points must be an integer >= 100, got {self.n_points!r}")
        # the kinetic term divides by h^2, which must not underflow
        if not self.spacing * self.spacing >= sys.float_info.min:
            raise ValueError(
                f"grid r_min = {self.r_min:g}, r_max = {self.r_max:g}, n_points = {self.n_points}"
                f" has spacing {self.spacing:g}, whose square underflows")

    @property
    def spacing(self) -> float:
        return self.r_max / (self.n_points + 1)

    @property
    def points(self) -> "np.ndarray":
        import numpy as np

        return self.spacing * np.arange(1, self.n_points + 1)


@dataclass(frozen=True)
class OracleResult:
    """Ground-state eigenvalue and sampled radial function.

    u_samples is ``grid``'s own eigenvector, lives on ``grid.points`` and
    is normalized so that sum(u^2) h = 1.  ``energy`` is the h^2, h^4
    Richardson fit through the solves on ``grid`` and on its n // 2 and
    n // 4 point grids; ``error_estimate`` is its distance from the h^2-only
    extrapolation of the two finest solves, which `require_converged`
    compares with `CONVERGENCE_TOL`.  It estimates the error of ``energy``
    from above: on `default_grid` at Z = 1 it reads about 2.4e-8, and
    ``energy`` is off by about 4e-11.
    """

    energy: float
    u_samples: "np.ndarray"
    error_estimate: float
    grid: RadialGrid


# Decay lengths 1/s of the state's exp(-s r) tail that a box must span.
BOX_DECAY_LENGTHS = 20.0


def default_grid(p: ModelParams) -> RadialGrid:
    """8000 points on a box of 100 decay lengths 1/``p.decay_rate`` (r_max = 50 at Z = 1)."""
    return RadialGrid(0.0, 100.0 / p.decay_rate, 8000)


def require_box(grid: RadialGrid, p: ModelParams, name: str = "grid") -> None:
    """Refuse a box shorter than `BOX_DECAY_LENGTHS` decay lengths 1/``p.decay_rate``:
    all three Richardson grids share its far wall, so the error estimate cannot see it."""
    if grid.r_max * p.decay_rate < BOX_DECAY_LENGTHS:
        raise ValueError(
            f"{name} r_max = {grid.r_max:g} is too small for the bound state,"
            f" which needs r_max >= {BOX_DECAY_LENGTHS / p.decay_rate:g}")


def _require_points(n_points: int, name: str) -> None:
    if n_points < MIN_POINTS:
        raise ValueError(
            f"{name} n_points = {n_points} is too few for the n_points // 4"
            f" Richardson grid, which needs n_points >= {MIN_POINTS}")


def require_grid(grid: RadialGrid, p: ModelParams, name: str = "grid") -> None:
    """Refuse a grid that `solve_ground_state` cannot solve: fewer than
    `MIN_POINTS` points, or a box that `require_box` refuses."""
    _require_points(grid.n_points, name)
    require_box(grid, p, name)


def _sample(function, r, name):
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by grid point
        v = np.broadcast_to(np.asarray(function(r), dtype=float), r.shape)
    if not np.all(np.isfinite(v)):
        bad = r[~np.isfinite(v)][0]
        raise ValueError(f"{name} is not finite at grid point r = {bad:g}")
    return v


@functools.lru_cache(maxsize=8)
def _start(grid: RadialGrid, decay_rate: float):
    """Unit u ~ r exp(-s r), s = ``decay_rate``, floored > 0, gives u^2 and
    sum u_i u_{i+1} for the guess; the first iterate, returned with them, is
    that u divided by its norm once more."""
    import numpy as np

    r = grid.points
    log_u = np.log(r) - decay_rate * r
    u = np.exp(log_u - np.max(log_u))  # 1 at its peak node, so u @ u cannot underflow
    u = np.maximum(u / math.sqrt(u @ u), sys.float_info.min)
    square = u * u
    cross = float(u[:-1] @ u[1:])
    u /= math.sqrt(u @ u)
    u.flags.writeable = square.flags.writeable = False
    return u, square, cross


def hamiltonian_arrays(potential, grid: RadialGrid, p: ModelParams):
    """Diagonal and off-diagonal of the discretized radial Hamiltonian."""
    import numpy as np

    h = grid.spacing
    kin = p.hbar**2 / (2.0 * p.mu * h * h)
    diag = np.full(grid.n_points, 2.0 * kin)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by grid point
        diag += potential(grid.points)
    # NaN propagates through min and max; a finite diag has a finite potential
    if not (diag.min() > -math.inf and diag.max() < math.inf):
        _sample(potential, grid.points, "potential")  # names the first bad grid point
    off = np.full(grid.n_points - 1, -kin)
    return diag, off


def _lowest_eigenpair(diag, off, guess, start):
    """Lowest eigenpair of the tridiagonal (diag, off < 0) by certified inverse iteration.

    ``guess`` only sets where the shift search starts: the first shift sits
    2e-4 max(1, |guess|) below it and moves down by steps growing 4-fold
    until T - shift I factors, and is bisected towards the current energy
    (an upper bound of E_0) whenever the iteration contracts slowly.
    ``start``, positive at every node and of unit norm, is the first iterate;
    it is only read.

    Each solve y = (T - shift I)^-1 u of a unit u yields both the Rayleigh
    quotient of y, shift + (u.y)/(y.y), exact because (T - shift I) y = u,
    and the inverse-iteration value shift + 1/(u.y); by Cauchy-Schwarz
    E_0 <= Rayleigh <= inverse-iteration.  The energy is the Rayleigh
    quotient, and the iteration stops once their gap is at most
    1e-15 (|shift| + 1/(u.y)).  The gap only estimates the error: its ratio
    to the Rayleigh quotient's error depends on how much each solve
    contracts the error, which the stop check does not test.  Returns the
    energy and a positive unit vector; raises `GroundStateError` when a cap
    is reached.
    """
    import numpy as np
    from scipy.linalg.lapack import dpttrf, dpttrs

    u = start
    lo, hi, step = -np.inf, np.inf, 2e-4 * max(1.0, abs(guess))
    shift, energy, gaps = guess - step, np.inf, []
    ulp = math.ulp(max(diag.max(), -diag.min()))
    for _ in range(_MAX_FACTORIZATIONS):
        # on the ulp grid of diag's largest entry, diag - shift is exact
        # (barring a carry into the next binade), so the factored matrix is
        # T - shift I itself: eigenvalues agree with a long-double solve to
        # ~1e-13 instead of ~1e-11
        shift = ulp * round(shift / ulp)
        d, e, info = dpttrf(diag - shift, off, overwrite_d=True)
        if info != 0:  # not positive definite: E_0 <= shift
            hi, step = shift, 4.0 * step
            shift = guess - step if lo == -np.inf else 0.5 * (lo + hi)
            continue
        lo = shift
        while len(gaps) < _MAX_ITERATIONS:
            y, _ = dpttrs(d, e, u)
            uy, yy = u @ y, y @ y
            q = 1.0 / uy
            # Rayleigh quotient of y from (T - shift I) y = u: no cancellation
            # between T's ~1e5 kinetic terms, as y.Ty would have
            gaps.append(max(0.0, q - uy / yy))
            y /= math.sqrt(yy)
            energy, u = shift + uy / yy, y
            if gaps[-1] <= 1e-15 * (abs(shift) + q):
                return float(energy), u
            if len(gaps) > 2 and gaps[-1] > gaps[-2] / 16.0:
                if gaps[-1] <= ulp:
                    # stalled at rounding, below the resolution of diag itself:
                    # a tighter shift cannot do better, so settle here
                    return float(energy), u
                break  # shift too far below E_0 for the gap: tighten it
        else:
            raise GroundStateError(f"inverse iteration did not settle in {len(gaps)} steps")
        hi = min(hi, energy)
        shift = 0.5 * (lo + hi)
    raise GroundStateError(f"no certified shift within {_MAX_FACTORIZATIONS} factorizations")


def solve_on_grid(potential, grid: RadialGrid, p: ModelParams):
    """Lowest eigenpair on a single grid, no extrapolation.

    Returns
    -------
    (float, ndarray)
        Raw eigenvalue and eigenvector normalized to sum(u^2) h = 1;
        u >= 0, and positive wherever the state is representable.
    """
    require_box(grid, p)
    diag, off = hamiltonian_arrays(potential, grid, p)  # checks the potential first
    start, square, cross = _start(grid, p.decay_rate)
    # start's Rayleigh quotient, an upper bound of E_0 (start is unit, off constant)
    guess = float(square @ diag + 2.0 * off[0] * cross)
    energy, u = _lowest_eigenpair(diag, off, guess, start)
    u /= math.sqrt(grid.spacing)  # a fresh iterate, never the cached start
    return energy, u


def solve_ground_state(potential, grid: RadialGrid, p: ModelParams) -> OracleResult:
    """Richardson-extrapolated ground state of the sampled radial potential.

    Solves on ``grid`` (n points) and on the same box with n // 2 and
    n // 4 points, fits E + a h^2 + b h^4 through the three energies, and
    returns its value at h = 0 with ``grid``'s own eigenvector, >= 0 at
    every node.  The grids are not nested; only their spacings enter the
    fit.  Raises `GroundStateError` when an eigensolve reaches a cap, and
    ValueError if the potential is not finite at every grid point or the
    grid fails `require_grid`.

    The exact dressed potential is not a valid input: its pole at
    r = alpha0 > 0 lies inside the box whenever alpha0 < r_max.
    """
    require_grid(grid, p)
    grids = [RadialGrid(0.0, grid.r_max, grid.n_points // k) for k in (1, 2, 4)]
    (e0, u), (e1, _), (e2, _) = (solve_on_grid(potential, g, p) for g in grids)
    x0, x1, x2 = (g.spacing * g.spacing for g in grids)
    # Lagrange weights at h = 0 of the quadratic in h^2: about 1.42, -0.44, 0.02
    energy = (e0 * x1 * x2 / ((x1 - x0) * (x2 - x0)) + e1 * x0 * x2 / ((x0 - x1) * (x2 - x1))
              + e2 * x0 * x1 / ((x0 - x2) * (x1 - x2)))
    two_grid = (x1 * e0 - x0 * e1) / (x1 - x0)
    return OracleResult(energy=energy, u_samples=u, error_estimate=abs(energy - two_grid),
                        grid=grid)


def require_converged(result: OracleResult) -> OracleResult:
    """The one convergence verdict: ``result``, or `ConvergenceError`.

    Every printed oracle energy passes through here, so a grid too coarse
    for `CONVERGENCE_TOL` yields a diagnostic instead of a number.  The
    message names the grid.
    """
    if not result.error_estimate <= CONVERGENCE_TOL:  # a NaN estimate fails too
        grid = result.grid
        raise ConvergenceError(
            f"oracle did not converge: error estimate {result.error_estimate:.3e}"
            f" on the grid r_max = {grid.r_max:g}, n_points = {grid.n_points}"
            " (more --grid-points refine it)"
        )
    return result


def overlap(result: OracleResult, psi) -> float:
    """Overlap |<u, psi_hat>| with psi normalized on the result's grid.

    Parameters
    ----------
    result : OracleResult
    psi : callable
        Radial function evaluated on ``result.grid.points``.

    Returns
    -------
    float
        Value in [0, 1] up to rounding.
    """
    import numpy as np

    h = result.grid.spacing
    vals = _sample(psi, result.grid.points, "trial function")
    norm = np.sqrt(np.sum(vals * vals) * h)
    if norm == 0.0:
        raise ValueError("trial function has zero norm on the grid")
    return float(abs(np.sum(result.u_samples * vals) * h / norm))
