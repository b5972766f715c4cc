"""Independent finite-difference ground-state solver for radial potentials.

Discretizes -(hbar^2 / 2 mu) u'' + V(r) u = E u on a uniform grid with
Dirichlet walls at both ends of [r_min, r_max] (the l = 0 radial function
vanishes at the origin, so r_min = 0 is the natural lower wall; interior
points start one step inside, where 1/r potentials are finite).  The
3-point stencil gives a symmetric tridiagonal matrix T whose lowest
eigenpair comes from shifted inverse iteration; solving at h and h/2 and
Richardson-extrapolating cancels the leading O(h^2) error and yields an
error estimate for free.

The shift is certified: it starts below a guess of the lowest eigenvalue
and moves down until T - shift I has an LDL^T factorization, which proves
shift < E_0.  T's off-diagonal is negative, so T - shift I is then an
M-matrix with an entrywise positive inverse, and iterating from a positive
vector converges to the nodeless ground state, never to an excited one.
Each grid starts from the Coulomb pole's own state r exp(-s r), s =
``p.decay_rate``, floored so it is positive at every node, and from its
Rayleigh quotient, an upper bound of E_0.  numpy is imported only by the
functions that build or read the grid arrays, and scipy (LAPACK) only
when a solve runs, so importing this module loads neither.

This solver shares no code with the closed-form energy ladder in
`laserplasma.perturbation`, which is exactly what makes it usable as a
cross-check of those formulas.
"""

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
    "default_grid",
    "require_box",
    "hamiltonian_arrays",
    "solve_on_grid",
    "solve_ground_state",
    "overlap",
    "require_converged",
]

# Largest Richardson error estimate (a.u.) that counts as converged.
CONVERGENCE_TOL = 1e-4

# Caps on one eigensolve; reaching either raises GroundStateError.
_MAX_FACTORIZATIONS = 40
_MAX_ITERATIONS = 50


class GroundStateError(RuntimeError):
    """The lowest extracted eigenvector is not a nodeless ground state."""


class ConvergenceError(RuntimeError):
    """The error estimate of an oracle result exceeds `CONVERGENCE_TOL`."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid with Dirichlet walls at r_min and r_max.

    The n_points interior (unknown) nodes sit at r_k = r_min + k h,
    k = 1..n_points, with h = (r_max - r_min) / (n_points + 1).  r_min = 0
    is allowed and is the right choice for potentials with a Coulomb pole:
    the wall then coincides with the true u(0) = 0 condition and the
    potential is only ever evaluated at r >= h.
    """

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self):
        if self.r_min < 0:
            raise ValueError(f"r_min must be >= 0, got {self.r_min}")
        if not self.r_min < self.r_max < float("inf"):
            raise ValueError(f"r_max must be finite and exceed r_min, got r_max = {self.r_max}")
        if self.n_points < 100:
            raise ValueError(f"n_points must be >= 100, got {self.n_points}")
        # the kinetic term divides by h^2, which must not underflow
        if not self.spacing * self.spacing >= sys.float_info.min:
            raise ValueError(
                f"grid r_min = {self.r_min:g}, r_max = {self.r_max:g}, n_points = {self.n_points}"
                f" has spacing {self.spacing:g}, whose square underflows")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.n_points + 1)

    @property
    def points(self) -> "np.ndarray":
        import numpy as np

        return self.r_min + self.spacing * np.arange(1, self.n_points + 1)

    def refined(self) -> "RadialGrid":
        """Same interval at half the spacing (interior count 2 n + 1)."""
        return RadialGrid(self.r_min, self.r_max, 2 * self.n_points + 1)


@dataclass(frozen=True)
class OracleResult:
    """Ground-state eigenvalue and sampled radial function.

    u_samples lives on ``grid.points`` and is normalized so that
    sum(u^2) h = 1.  ``energy`` is Richardson-extrapolated from the h and
    h/2 solves; ``error_estimate`` is the extrapolation residual
    |E_{h/2} - E_h| / 3, which `require_converged` compares with
    `CONVERGENCE_TOL`.
    """

    energy: float
    u_samples: "np.ndarray"
    error_estimate: float
    grid: RadialGrid


# Decay lengths 1/s of the state's exp(-s r) tail that a box must span.
BOX_DECAY_LENGTHS = 20.0


def default_grid(p: ModelParams) -> RadialGrid:
    """Box large enough that the exp(-s r) tail is negligible at the wall."""
    return RadialGrid(0.0, max(50.0, BOX_DECAY_LENGTHS / p.decay_rate), 8000)


def require_box(grid: RadialGrid, p: ModelParams, name: str = "grid") -> None:
    """Refuse a box shorter than `BOX_DECAY_LENGTHS` decay lengths 1/``p.decay_rate``:
    both Richardson grids share its far wall, so the error estimate cannot see it."""
    if grid.r_max * p.decay_rate < BOX_DECAY_LENGTHS:
        raise ValueError(
            f"{name} r_max = {grid.r_max:g} is too small for the bound state,"
            f" which needs r_max >= {BOX_DECAY_LENGTHS / p.decay_rate:g}")


def _sample(potential, r):
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by grid point
        v = np.broadcast_to(np.asarray(potential(r), dtype=float), r.shape)
    if not np.all(np.isfinite(v)):
        bad = r[~np.isfinite(v)][0]
        raise ValueError(f"potential is not finite at grid point r = {bad:g}")
    return v


def hamiltonian_arrays(potential, grid: RadialGrid, p: ModelParams):
    """Diagonal and off-diagonal of the discretized radial Hamiltonian."""
    import numpy as np

    h = grid.spacing
    kin = p.hbar**2 / (2.0 * p.mu * h * h)
    diag = 2.0 * kin + _sample(potential, grid.points)
    off = np.full(grid.n_points - 1, -kin)
    return diag, off


def _lowest_eigenpair(diag, off, guess, start):
    """Lowest eigenpair of the tridiagonal (diag, off < 0) by certified inverse iteration.

    ``guess`` only sets where the shift search starts: the shift moves down
    from it by growing steps until T - shift I factors, and is bisected
    towards the current energy (an upper bound of E_0) whenever the
    iteration contracts slowly.  ``start``, positive at every node, is the
    first iterate.  Returns the energy and a positive unit vector; raises
    `GroundStateError` when a cap is reached.
    """
    import numpy as np
    from scipy.linalg.lapack import dpttrf, dpttrs

    u = start / np.linalg.norm(start)
    lo, hi, step = -np.inf, np.inf, 1e-3 * max(1.0, abs(guess))
    shift, energy, changes = guess - step, np.inf, []
    ulp = np.spacing(np.max(np.abs(diag)))
    for _ in range(_MAX_FACTORIZATIONS):
        # on the ulp grid of diag's largest entry, diag - shift is exact
        # (barring a carry into the next binade), so the factored matrix is
        # T - shift I itself: eigenvalues agree with a long-double solve to
        # ~1e-13 instead of ~1e-11
        shift = ulp * np.round(shift / ulp)
        d, e, info = dpttrf(diag - shift, off)
        if info != 0:  # not positive definite: E_0 <= shift
            hi, step = shift, 4.0 * step
            shift = guess - step if lo == -np.inf else 0.5 * (lo + hi)
            continue
        lo = shift
        while len(changes) < _MAX_ITERATIONS:
            y, _ = dpttrs(d, e, u)
            q = 1.0 / (u @ y)
            changes.append(abs(shift + q - energy))
            energy, u = shift + q, y / np.linalg.norm(y)
            # not the Rayleigh quotient of T, whose terms cancel from ~1e5
            if changes[-1] <= 1e-15 * (abs(shift) + q):
                return float(energy), u
            if len(changes) > 2 and changes[-1] > changes[-2] / 16.0:
                break  # shift too far below E_0 for the gap: tighten it
        else:
            raise GroundStateError(f"inverse iteration did not settle in {len(changes)} steps")
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
    import numpy as np

    require_box(grid, p)
    diag, off = hamiltonian_arrays(potential, grid, p)
    # r exp(-s r), scaled to 1 at its peak node so its squares cannot underflow
    r = grid.points
    log_u = np.log(r) - p.decay_rate * r
    start = np.maximum(np.exp(log_u - np.max(log_u)), sys.float_info.min)
    # start's Rayleigh quotient, an upper bound of E_0
    guess = (start @ (diag * start) + 2.0 * (off * start[:-1]) @ start[1:]) / (start @ start)
    energy, u = _lowest_eigenpair(diag, off, guess, start)
    return energy, u / np.sqrt(np.sum(u * u) * grid.spacing)


def _interior_sign_changes(u: "np.ndarray") -> int:
    import numpy as np

    # ignore the noise floor so tail oscillations at machine level don't count
    significant = u[np.abs(u) > 1e-8 * np.max(np.abs(u))]
    return int(np.count_nonzero(np.sign(significant[:-1]) != np.sign(significant[1:])))


def solve_ground_state(potential, grid: RadialGrid, p: ModelParams) -> OracleResult:
    """Richardson-extrapolated ground state of the sampled radial potential.

    Solves on ``grid`` and on its half-spacing refinement, extrapolates
    the energy, and returns the eigenvector restricted to the requested
    grid.  Raises `GroundStateError` if the extracted state has an
    interior node, and ValueError if the potential is not finite at every
    grid point or the box is too small for the state (`require_box`).

    The cubic truncated potential is finite everywhere on r > 0 and is the
    intended default input.  The exact two-center dressed potential has a
    pole at r = alpha0, so solving it directly requires r_min > alpha0;
    grid points that land near the pole produce huge samples that distort
    the low end of the spectrum without tripping the finiteness check.
    """
    import numpy as np

    e_coarse, _ = solve_on_grid(potential, grid, p)
    e_fine, u_fine = solve_on_grid(potential, grid.refined(), p)
    energy = (4.0 * e_fine - e_coarse) / 3.0
    error_estimate = abs(e_fine - e_coarse) / 3.0
    # every other fine node coincides with a coarse node
    u = u_fine[1::2].copy()
    u = u / np.sqrt(np.sum(u * u) * grid.spacing)
    if _interior_sign_changes(u) > 0:
        raise GroundStateError(
            "lowest eigenvector has an interior node; ground state not captured"
        )
    return OracleResult(
        energy=energy,
        u_samples=u,
        error_estimate=error_estimate,
        grid=grid,
    )


def require_converged(result: OracleResult) -> OracleResult:
    """The one convergence verdict: ``result``, or `ConvergenceError`.

    Every printed oracle energy passes through here, so a grid too coarse
    for `CONVERGENCE_TOL` yields a diagnostic instead of a number.  The
    message names the grid: `default_grid` keeps 8000 points however
    tightly the state is bound, so at mu = hbar = 1 its estimate grows
    like Z^4 and passes 1e-4 just above Z = 1.5.
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
    vals = _sample(psi, result.grid.points)
    norm = np.sqrt(np.sum(vals * vals) * h)
    if norm == 0.0:
        raise ValueError("trial function has zero norm on the grid")
    return float(abs(np.sum(result.u_samples * vals) * h / norm))
