"""Closed-form bound-state energy ladder for the dressed, screened atom.

With the effective potential reduced to ``c_m1/r + c0 + c1 r + c2 r^2 +
c3 r^3`` (see `laserplasma.potential.taylor_coefficients`), the Coulomb
part is solvable exactly and the polynomial tail is treated order by
order through a superpotential hierarchy: writing the radial ground state
as ``exp(-(sqrt(2 mu)/hbar) Integral W dr)`` turns the eigenproblem into
a Riccati equation, and expanding W and E in powers of the perturbation
yields one linear equation per order (logarithmic perturbation theory).
The first three orders close in elementary functions:

    order 0:  chi0(r) = 2 s^{3/2} r e^{-s r},  E0 = -s A,  s = 2 mu A / hbar^2
    order 1:  W1 linear in r,      E1 = 3 c1 / (2 s)
    order 2:  W2 = k r (r + 2/s),  E2 = 3 c2 / s^2 - 3 hbar^6 c1^2 / (32 mu^3 A^4)
    order 3:  hierarchy E3 = <c3 r^3> - 2 <W1 W2>   (`e3_hierarchy`)
              the paper's Table-1 form of E3        (`total_energy`)

The constant c0 enters the total additively.  `total_energy` gives the five
parts as an `EnergyBreakdown` named tuple from a plain-float kernel with the
Table-1 third order; `_breakdowns` runs it over one varying parameter, with
the ladder's (A, mu, hbar) factors and the fixed coefficient part computed
once per sweep, so every printed energy comes from here.
`superpotential_set` holds the W1 slope and W2 scale; `wavefunction_eval`
applies them to chi0 as a multiplicative correction.  The energies are
plain floats and load no numpy; the radial functions import it.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .potential import (ModelParams, _alpha_terms, _coefficients, _lambda_terms, _radii,
                        taylor_coefficients)

__all__ = [
    "EnergyBreakdown",
    "SuperpotentialSet",
    "zeroth_order",
    "e3_hierarchy",
    "total_energy",
    "superpotential_set",
    "wavefunction_eval",
]


class EnergyBreakdown(NamedTuple):
    """Ground-state energy split into its additive parts (a.u.).

    ``total`` is a property so it always equals the component sum exactly.
    """

    e0: float
    const_shift: float
    e1: float
    e2: float
    e3: float

    @property
    def total(self) -> float:
        return self.e0 + self.const_shift + self.e1 + self.e2 + self.e3


@dataclass(frozen=True)
class SuperpotentialSet:
    """Radial superpotential profiles of the first three orders.

    ``w1_slope`` and ``w2_scale`` are the analytic coefficients behind the
    callables: w1(r) = w1_slope * r and w2(r) = w2_scale * r (r + 2/s),
    so derivatives needed by residual checks stay closed-form.
    """

    w0: Callable
    w1: Callable
    w2: Callable
    w1_slope: float
    w2_scale: float


def _radial(f):
    """f applied to r as a float array: a float for a scalar r, else the array."""
    import numpy as np

    def evaluate(r):
        out = f(np.asarray(r, dtype=float))
        return float(out) if out.ndim == 0 else out

    return evaluate


def _s_factor(p: ModelParams) -> float:
    # hbar / sqrt(2 mu): the unit that converts -u'/u into a superpotential
    return p.hbar / math.sqrt(2.0 * p.mu)


def zeroth_order(p: ModelParams):
    """Exactly solvable Coulomb part: ground energy and wavefunction.

    Returns
    -------
    (float, callable)
        Energy ``-s A`` and the unit-normalized radial function
        chi0(r) = 2 s^{3/2} r exp(-s r), with s = 2 mu A / hbar^2.
    """
    import numpy as np

    sig = p.decay_rate
    energy = -sig * p.coulomb_strength
    norm = 2.0 * sig**1.5
    chi0 = _radial(lambda r: norm * r * np.exp(-sig * r))
    return energy, chi0


def e3_hierarchy(p: ModelParams) -> float:
    """Third-order energy of the hierarchy: <c3 r^3> - 2 <W1 W2>.

    The order-3 equation is 2 W1 W2 + 2 W0 W3 - (hbar/sqrt(2 mu)) W3' =
    c3 r^3 - E3; weighted by chi0^2 the W3 terms integrate to zero, which
    leaves E3 = (15 c3 - 27 mu c1 c2 / (hbar^2 s^2)
    + 27 mu^2 c1^3 / (2 hbar^4 s^4)) / (2 s^3).  The total built on it
    misses the oracle on the cubic potential by an error that grows like
    F^4, the first order left out (+1.2e-7 at lambda_D = 100,
    alpha0 = 1e-4, F = 0.04).
    """
    c = taylor_coefficients(p)
    sig = p.decay_rate
    term_cubic = 15.0 * c.c3
    term_mixed = 27.0 * p.mu * c.c1 * c.c2 / (p.hbar**2 * sig**2)
    term_cross = 27.0 * p.mu**2 * c.c1**3 / (2.0 * p.hbar**4 * sig**4)
    return (term_cubic - term_mixed + term_cross) / (2.0 * sig**3)


def total_energy(p: ModelParams) -> EnergyBreakdown:
    """Ground-state energy in five additive parts, from one coefficient set.

    e1 = 3 c1 / (2 s) is the linear coefficient weighted by <r>.  e2 is
    the quadratic moment minus the W1^2 moment.  e3 is the paper's
    Table-1 form (15 c3 + 27 mu^2 c1^2 / (4 hbar^4 s^4)
    - 27 mu c1 c2 / (2 hbar^2 s^2)) / (2 s^3), which reproduces the
    reference energy table (see `laserplasma.sweep`), so every printed
    energy uses it.  It is not the third order of any hierarchy: its c1^2
    term has the units of a length, not of an energy (the consistent
    power is c1^3), and its mixed c1 c2 term is half the hierarchy's.
    Against the finite-difference oracle on the cubic potential the total
    is off by an error that grows like F^2 (+3.9e-5 at lambda_D = 100,
    alpha0 = 1e-4, F = 0.04), so it is wrong at second order in the field.
    `e3_hierarchy` is the consistent third order.
    """
    c = taylor_coefficients(p)
    return EnergyBreakdown(*_ladder(_ladder_terms(p), c.c0, c.c1, c.c2, c.c3))


def _ladder_terms(p: ModelParams):
    """The (A, mu, hbar) factors of `_ladder`, computed once per sweep."""
    sig, a, mu, hbar = p.decay_rate, p.coulomb_strength, p.mu, p.hbar
    return (sig, -sig * a, sig**2, 3.0 * hbar**6, 32.0 * mu**3 * a**4, 27.0 * mu**2,
            4.0 * hbar**4 * sig**4, 27.0 * mu, 2.0 * hbar**2 * sig**2, 2.0 * sig**3)


def _ladder(terms, c0, c1, c2, c3):
    """(e0, c0, e1, e2, e3) from the coefficients and the `_ladder_terms` factors."""
    sig, e0, sig2, k2, q2, k_cross, q_cross, k_mixed, q_mixed, q3 = terms
    c1_sq = c1**2
    e2 = 3.0 * c2 / sig2 - k2 * c1_sq / q2
    e3 = (15.0 * c3 + k_cross * c1_sq / q_cross - k_mixed * c1 * c2 / q_mixed) / q3
    return e0, c0, 1.5 * c1 / sig, e2, e3


def _breakdowns(fixed: ModelParams, vary: str, values):
    """total_energy(replace(fixed, **{vary: v})) per value, bit for bit, with no ModelParams;
    the ladder's factors and each coefficient part ``vary`` leaves fixed are computed once."""
    ladder, a, field = _ladder_terms(fixed), fixed.coulomb_strength, fixed.field
    num = None if vary == "alpha0" else _alpha_terms(a, fixed.alpha0)
    den = None if vary == "lambda_d" else _lambda_terms(fixed.lambda_d)
    for value in values:
        num = _alpha_terms(a, value) if vary == "alpha0" else num
        den = _lambda_terms(value) if vary == "lambda_d" else den
        field = value if vary == "field" else field
        yield EnergyBreakdown(*_ladder(ladder, *_coefficients(num, den, field)))


def superpotential_set(p: ModelParams) -> SuperpotentialSet:
    """All three superpotential profiles with their analytic coefficients."""
    c = taylor_coefficients(p)
    s = _s_factor(p)
    a = p.coulomb_strength
    w0 = _radial(lambda r: -s / r + a / s)

    sig = p.decay_rate
    # W1 = slope * r solves 2 W0 W1 - (hbar/sqrt(2 mu)) W1' = c1 r - E1, and
    # W2 = scale * r (r + 2/sig) solves W1^2 + 2 W0 W2 - (hbar/sqrt(2 mu)) W2'
    # = c2 r^2 - E2; matching the r^2 coefficient fixes the scale uniquely.
    slope = c.c1 / (2.0 * sig * s)
    scale = c.c2 / (2.0 * sig * s) - c.c1**2 / (8.0 * sig**3 * s**3)
    two_over_sig = 2.0 / sig
    w1 = _radial(lambda r: slope * r)
    w2 = _radial(lambda r: scale * r * (r + two_over_sig))
    return SuperpotentialSet(w0=w0, w1=w1, w2=w2, w1_slope=slope, w2_scale=scale)


def wavefunction_eval(r, p: ModelParams):
    """Perturbed radial ground state chi0(r) * exp(-P(r)/s_factor).

    P is the antiderivative of W1 + W2 with P(0) = 0 (any other constant
    only rescales the normalization, which callers apply where needed).
    The result is not normalized.  The correction exponent is a cubic
    polynomial, so far outside the bound-state region it eventually grows;
    the profile is meaningful where the state actually lives (roughly
    r <~ 10/s at reference parameters).
    """
    import numpy as np

    r_arr, scalar = _radii(r)
    sp = superpotential_set(p)
    sig = p.decay_rate
    s = _s_factor(p)
    slope, scale = sp.w1_slope, sp.w2_scale
    # P(r) = int_0^r (W1 + W2) = (slope/2 + scale/sig) r^2 + (scale/3) r^3
    quad_coeff = 0.5 * slope + scale / sig
    cubic_coeff = scale / 3.0
    exponent = -sig * r_arr - (quad_coeff * r_arr**2 + cubic_coeff * r_arr**3) / s
    out = 2.0 * sig**1.5 * r_arr * np.exp(exponent)
    return float(out) if scalar else out
