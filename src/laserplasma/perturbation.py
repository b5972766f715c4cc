"""Closed-form bound-state energy ladder for the dressed, screened atom.

With the effective potential reduced to ``c_m1/r + c0 + c1 r + c2 r^2 +
c3 r^3`` (see `laserplasma.potential.taylor_coefficients`), the Coulomb
part is solvable exactly and the polynomial tail is treated order by
order through a superpotential hierarchy: writing the radial ground state
as ``exp(-Integral W dr / k)``, k = hbar / sqrt(2 mu), turns the
eigenproblem into a Riccati equation, and expanding W and E in powers of
the perturbation yields one linear equation per order (logarithmic
perturbation theory).  With sigma = 2 mu A / hbar^2 (`decay_rate`), the
first three orders close in elementary functions:

    order 0:  chi0(r) = 2 sigma^{3/2} r e^{-sigma r},  W0 = -k/r + A/k,  E0 = -sigma A
    order 1:  W1 = slope r,                E1 = 3 c1 / (2 sigma)
    order 2:  W2 = scale r (r + 2/sigma),  E2 = 3 c2 / sigma^2 - 3 hbar^6 c1^2 / (32 mu^3 A^4)
    order 3:  hierarchy E3 = <c3 r^3> - 2 <W1 W2>   (`e3_hierarchy`)
              the paper's Table-1 form of E3        (`total_energy`)

The constant c0 enters the total additively.  `_breakdowns` is the one
plain-float loop from coefficients to energies, with the Table-1 third
order: over one varying parameter it yields the five parts as
`EnergyBreakdown` named tuples, with the ladder's (A, mu, hbar) factors
computed once per sweep.  The static field enters only c1, so the
field-free coefficient parts are computed once per (lambda_D, alpha0)
point and shared by every field value: once in all for a field sweep,
once per point for a caller with several fields per point.
`total_energy` is its one-value case, so every printed energy comes from
here; its e0 is the zeroth order, and `wavefunction_eval` at lambda_D =
inf, alpha0 = F = 0, where both superpotential coefficients are 0, is chi0.
`_hierarchy` is the one superpotential pass: it calls `taylor_coefficients`
once and returns the coefficients, sigma, k, the W1 slope and the W2 scale,
and `e3_hierarchy`, `superpotential_set` (a plain (slope, scale) pair) and
`wavefunction_eval` read from it.  `total_energy` and `e3_hierarchy` refuse
alpha0/lambda_D from the smaller root of c3 on, where the cubic model has no
ground state (`laserplasma.potential._require_cubic_domain`).  On
`ModelParams`' band every coefficient, superpotential and energy is a finite
float, so none of them checks for overflow.  The energies are plain floats,
and the radial functions map a float radius to a float, so neither loads
numpy; only an array of radii does.
"""

import math
from itertools import repeat
from typing import NamedTuple

from .potential import (ModelParams, _coefficients, _lib, _radii, _require_cubic_domain,
                        taylor_coefficients)

__all__ = [
    "EnergyBreakdown",
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


def _hierarchy(p: ModelParams):
    """(coefficients, sigma, k, slope, scale) at p, from one `taylor_coefficients` call:
    k = hbar / sqrt(2 mu), W1 = slope * r and W2 = scale * r (r + 2/sigma)."""
    c = taylor_coefficients(p)
    sig, k = p.decay_rate, p.hbar / math.sqrt(2.0 * p.mu)
    slope = c.c1 / (2.0 * sig * k)
    scale = c.c2 / (2.0 * sig * k) - c.c1**2 / (8.0 * sig**3 * k**3)
    return c, sig, k, slope, scale


def e3_hierarchy(p: ModelParams) -> float:
    """Third-order energy of the hierarchy: <c3 r^3> - 2 <W1 W2>.

    The order-3 equation is 2 W1 W2 + 2 W0 W3 - k W3' = c3 r^3 - E3;
    weighted by chi0^2 the W3 terms integrate to zero.  With <r^2> =
    3/sigma^2 and <r^3> = 7.5/sigma^3 under chi0^2 this leaves
    E3 = (7.5 c3 - 27 slope scale) / sigma^3.  The total built on it
    misses the oracle on the cubic potential by an error that grows like
    F^4, the first order left out (+1.2e-7 at lambda_D = 100,
    alpha0 = 1e-4, F = 0.04).  A point past the smaller root of c3 raises
    ValueError.
    """
    c, sig, _, slope, scale = _hierarchy(_require_cubic_domain(p))
    return (7.5 * c.c3 - 27.0 * slope * scale) / sig**3


def total_energy(p: ModelParams) -> EnergyBreakdown:
    """Ground-state energy in five additive parts, from one coefficient set.

    e1 = 3 c1 / (2 sigma) is the linear coefficient weighted by <r>.  e2
    is the quadratic moment minus the W1^2 moment.  e3 is the paper's
    Table-1 form (15 c3 + 27 mu^2 c1^2 / (4 hbar^4 sigma^4)
    - 27 mu c1 c2 / (2 hbar^2 sigma^2)) / (2 sigma^3), which reproduces the
    reference energy table (see `laserplasma.sweep`), so every printed
    energy uses it.  It is not the third order of any hierarchy: its c1^2
    term has the units of a length, not of an energy (the consistent
    power is c1^3), and its mixed c1 c2 term is half the hierarchy's.
    Against the finite-difference oracle on the cubic potential the total
    is off by an error that grows like F^2 (+3.9e-5 at lambda_D = 100,
    alpha0 = 1e-4, F = 0.04), so it is wrong at second order in the field.
    `e3_hierarchy` is the consistent third order.  A point past the smaller
    root of c3 raises ValueError.
    """
    return next(_breakdowns(_require_cubic_domain(p), "field", (p.field,)))


def _breakdowns(fixed: ModelParams, vary: str, values, fields=None):
    """total_energy(replace(fixed, **{vary: v})) per value, bit for bit, with no ModelParams.

    With ``fields``, each value yields one breakdown per field in turn, as if
    ``fixed.field`` were that field.  The field enters c1 alone, so the
    field-free coefficient parts are computed once per value and shared by
    every field; a ``field`` sweep is the ``alpha0`` sweep (fixed.alpha0,)
    with its values as fields; the other `_coefficients` argument repeats.  The
    ladder's (A, mu, hbar) factors are computed once per call.  The values must
    lie in `ModelParams`' band, as `SweepSpec` checks; a total that is not finite
    raises OverflowError all the same, and the caller names the point.
    """
    mu, hbar, new, a = fixed.mu, fixed.hbar, tuple.__new__, fixed.coulomb_strength
    sig = fixed.decay_rate
    e0, sig2, k2, q2 = -sig * a, sig**2, 3.0 * hbar**6, 32.0 * mu**3 * a**4
    k_cross, q_cross, k_mixed = 27.0 * mu**2, 4.0 * hbar**4 * sig**4, 27.0 * mu
    q_mixed, q3 = 2.0 * hbar**2 * sig**2, 2.0 * sig**3
    if vary == "field":
        vary, values, fields = "alpha0", (fixed.alpha0,), values
    alphas = values if vary == "alpha0" else repeat(fixed.alpha0)
    lams = values if vary == "lambda_d" else repeat(fixed.lambda_d)
    if fields is None:
        fields = (fixed.field,)
    for c0, d1, c2, c3 in map(_coefficients, repeat(a), alphas, lams):
        e2_quad, e3_cubic = 3.0 * c2 / sig2, 15.0 * c3
        for field in fields:
            c1 = field + d1
            c1_sq = c1**2
            e2 = e2_quad - k2 * c1_sq / q2
            e3 = (e3_cubic + k_cross * c1_sq / q_cross - k_mixed * c1 * c2 / q_mixed) / q3
            e1 = 1.5 * c1 / sig
            if (e0 + c0 + e1 + e2 + e3) * 0.0:  # nan, not 0, once the total is inf or nan
                raise OverflowError("energy is not finite")
            yield new(EnergyBreakdown, (e0, c0, e1, e2, e3))


def superpotential_set(p: ModelParams) -> tuple[float, float]:
    """The pair (slope, scale) of the first- and second-order superpotentials.

    W1 = slope * r solves 2 W0 W1 - k W1' = c1 r - E1, and
    W2 = scale * r (r + 2/sigma) solves W1^2 + 2 W0 W2 - k W2' = c2 r^2 - E2;
    matching the r^2 coefficient fixes the scale uniquely.
    """
    return _hierarchy(p)[3:]


def wavefunction_eval(r, p: ModelParams):
    """Perturbed radial ground state chi0(r) * exp(-P(r)/k), k = hbar/sqrt(2 mu).

    P is the antiderivative of W1 + W2 with P(0) = 0 (any other constant
    only rescales the normalization, which callers apply where needed).
    The result is not normalized.  The correction exponent is a cubic
    polynomial, so far outside the bound-state region it eventually grows;
    the profile is meaningful where the state actually lives (roughly
    r <~ 10/sigma at reference parameters); past it, a float radius may
    raise OverflowError naming r and ``p``, where an array holds inf.
    """
    r_arr = _radii(r)
    _, sig, k, slope, scale = _hierarchy(p)
    # P(r) = int_0^r (W1 + W2) = (slope/2 + scale/sigma) r^2 + (scale/3) r^3
    quad_coeff = 0.5 * slope + scale / sig
    cubic_coeff = scale / 3.0
    try:
        exponent = -sig * r_arr - (quad_coeff * r_arr**2 + cubic_coeff * r_arr**3) / k
        return 2.0 * sig**1.5 * r_arr * _lib(r_arr).exp(exponent)
    except OverflowError:  # only math raises it; numpy gives inf
        raise OverflowError(f"wavefunction overflows at r = {r_arr:g} for {p}") from None
