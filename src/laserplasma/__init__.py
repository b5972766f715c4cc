"""Bound state of a hydrogen-like atom in a dense quantum plasma under a
static electric field and high-frequency laser dressing.

The package has four computational layers:

- `laserplasma.potential`: screened Coulomb potential, its laser-dressed
  two-center form, the exact cycle-average quadrature, and the cubic
  small-r expansion coefficients.
- `laserplasma.perturbation`: the closed-form ground-state energy
  (`total_energy`, zeroth through third order from one set of expansion
  coefficients), the hierarchy's third order (`e3_hierarchy`), the
  superpotentials and the perturbed wavefunction.
- `laserplasma.oracle`: an independent finite-difference eigensolver used
  to cross-validate the closed forms.
- `laserplasma.sweep`: parameter sweeps and the datasets behind the
  reference table and figures.

`laserplasma.cli` exposes everything on the command line.
"""

from .oracle import OracleResult, RadialGrid, default_grid, overlap, solve_ground_state
from .perturbation import (
    EnergyBreakdown,
    SuperpotentialSet,
    e3_hierarchy,
    superpotential_set,
    total_energy,
    wavefunction_eval,
    zeroth_order,
)
from .potential import (
    EffectiveCoefficients,
    ModelParams,
    PoleProximityError,
    dressed_pair_eval,
    ecsc_eval,
    taylor_coefficients,
    v0_quadrature,
    veff_series_eval,
)
from .sweep import FigureDataset, SweepRow, SweepSpec, figure_dataset, run_sweep, table1_rows

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "EffectiveCoefficients",
    "PoleProximityError",
    "ecsc_eval",
    "dressed_pair_eval",
    "v0_quadrature",
    "taylor_coefficients",
    "veff_series_eval",
    "EnergyBreakdown",
    "SuperpotentialSet",
    "zeroth_order",
    "e3_hierarchy",
    "superpotential_set",
    "total_energy",
    "wavefunction_eval",
    "RadialGrid",
    "OracleResult",
    "default_grid",
    "solve_ground_state",
    "overlap",
    "SweepSpec",
    "SweepRow",
    "FigureDataset",
    "run_sweep",
    "figure_dataset",
    "table1_rows",
    "__version__",
]
