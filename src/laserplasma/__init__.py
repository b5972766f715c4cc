"""Bound state of a hydrogen-like atom in a dense quantum plasma under a
static electric field and high-frequency laser dressing.

The package has four computational layers:

- `laserplasma.potential`: screened Coulomb potential, its laser-dressed
  two-center form, the exact cycle-average quadrature, and the cubic
  small-r expansion coefficients.
- `laserplasma.perturbation`: the closed-form ground-state energy
  (`total_energy`, zeroth through third order from one set of expansion
  coefficients), the hierarchy's third order (`e3_hierarchy`), the
  superpotential coefficients and the perturbed wavefunction.
- `laserplasma.oracle`: an independent finite-difference eigensolver used
  to cross-validate the closed forms.
- `laserplasma.sweep`: parameter sweeps and the datasets behind the
  reference table and figures.

`laserplasma.cli` exposes everything on the command line.
"""

from . import oracle, perturbation, potential, sweep
from .oracle import *
from .perturbation import *
from .potential import *
from .sweep import *

__version__ = "0.1.0"

__all__ = [*potential.__all__, *perturbation.__all__, *oracle.__all__, *sweep.__all__, "__version__"]
