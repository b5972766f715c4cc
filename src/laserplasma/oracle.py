"""Independent finite-difference ground-state solver for radial potentials.

Discretizes -(hbar^2 / 2 mu) u'' + V(r) u = E u on a uniform grid with
Dirichlet walls at both ends of [r_min, r_max] (the l = 0 radial function
vanishes at the origin, so r_min = 0 is the natural lower wall; interior
points start one step inside, where 1/r potentials are finite).  The
3-point stencil gives a symmetric tridiagonal matrix whose lowest
eigenpair is extracted by bisection / inverse iteration; solving at h and
h/2 and Richardson-extrapolating cancels the leading O(h^2) error and
yields an error estimate for free.

This solver shares no code with the closed-form energy ladder in
`laserplasma.perturbation`, which is exactly what makes it usable as a
cross-check of those formulas.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .potential import ModelParams

__all__ = [
    "RadialGrid",
    "OracleResult",
    "GroundStateError",
    "ConvergenceError",
    "CONVERGENCE_TOL",
    "default_grid",
    "hamiltonian_arrays",
    "solve_on_grid",
    "solve_ground_state",
    "overlap",
    "require_converged",
]

# Largest Richardson error estimate (a.u.) that counts as converged.
CONVERGENCE_TOL = 1e-4


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
        if not self.r_max > self.r_min:
            raise ValueError("r_max must exceed r_min")
        if self.n_points < 100:
            raise ValueError(f"n_points must be >= 100, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.n_points + 1)

    @property
    def points(self) -> np.ndarray:
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
    |E_{h/2} - E_h| / 3 and ``converged`` records whether it is at most
    `CONVERGENCE_TOL`.
    """

    energy: float
    u_samples: np.ndarray
    converged: bool
    error_estimate: float
    grid: RadialGrid


def default_grid(p: ModelParams) -> RadialGrid:
    """Box large enough that the exp(-s r) tail is negligible at the wall."""
    return RadialGrid(0.0, max(50.0, 20.0 / p.decay_rate), 8000)


def _sample(potential, r):
    v = np.asarray(potential(r), dtype=float)
    if v.shape != r.shape:
        v = np.array([float(potential(x)) for x in r])
    if not np.all(np.isfinite(v)):
        bad = r[~np.isfinite(v)][0]
        raise ValueError(f"potential is not finite at grid point r = {bad:g}")
    return v


def hamiltonian_arrays(potential, grid: RadialGrid, p: ModelParams):
    """Diagonal and off-diagonal of the discretized radial Hamiltonian."""
    h = grid.spacing
    kin = p.hbar**2 / (2.0 * p.mu * h * h)
    diag = 2.0 * kin + _sample(potential, grid.points)
    off = np.full(grid.n_points - 1, -kin)
    return diag, off


def solve_on_grid(potential, grid: RadialGrid, p: ModelParams):
    """Lowest eigenpair on a single grid, no extrapolation.

    Returns
    -------
    (float, ndarray)
        Raw eigenvalue and eigenvector normalized to sum(u^2) h = 1 with
        positive overall sign.
    """
    diag, off = hamiltonian_arrays(potential, grid, p)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    u = vecs[:, 0]
    u = u / np.sqrt(np.sum(u * u) * grid.spacing)
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u
    return float(vals[0]), u


def _interior_sign_changes(u: np.ndarray) -> int:
    # ignore the noise floor so tail oscillations at machine level don't count
    significant = u[np.abs(u) > 1e-8 * np.max(np.abs(u))]
    return int(np.count_nonzero(np.sign(significant[:-1]) != np.sign(significant[1:])))


def solve_ground_state(potential, grid: RadialGrid, p: ModelParams) -> OracleResult:
    """Richardson-extrapolated ground state of the sampled radial potential.

    Solves on ``grid`` and on its half-spacing refinement, extrapolates
    the energy, and returns the eigenvector restricted to the requested
    grid.  Raises `GroundStateError` if the extracted state has an
    interior node and ValueError if the potential is not finite at every
    grid point.

    The cubic truncated potential is finite everywhere on r > 0 and is the
    intended default input.  The exact two-center dressed potential has a
    pole at r = alpha0, so solving it directly requires r_min > alpha0;
    grid points that land near the pole produce huge samples that distort
    the low end of the spectrum without tripping the finiteness check.
    """
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
        converged=error_estimate <= CONVERGENCE_TOL,
        error_estimate=error_estimate,
        grid=grid,
    )


def require_converged(result: OracleResult) -> OracleResult:
    """The one convergence verdict: ``result``, or `ConvergenceError`.

    Every printed oracle energy passes through here, so a grid too coarse
    for `CONVERGENCE_TOL` yields a diagnostic instead of a number.
    """
    if not result.converged:
        raise ConvergenceError(
            f"oracle did not converge: error estimate {result.error_estimate:.3e}"
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
    h = result.grid.spacing
    vals = _sample(psi, result.grid.points)
    norm = np.sqrt(np.sum(vals * vals) * h)
    if norm == 0.0:
        raise ValueError("trial function has zero norm on the grid")
    return float(abs(np.sum(result.u_samples * vals) * h / norm))
