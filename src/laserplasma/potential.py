"""Plasma-screened Coulomb potential and its laser-dressed forms.

The electron-ion interaction in a dense quantum plasma is modelled by the
exponential-cosine-screened Coulomb potential

    V(r) = -(A / r) exp(-r / lambda_D) cos(r / lambda_D),   A = Z e^2,

with ``lambda_D`` the Debye screening length.  A linearly polarized
high-frequency laser drives the electron along a quiver trajectory of
amplitude ``alpha0``; in the oscillating (accelerated) frame the static
potential is replaced by its cycle average.  The endpoint (two-center)
approximation of that average is the sum of two screened terms displaced
to ``r + alpha0`` and ``r - alpha0``, and the exact cycle average is the
Chebyshev-weighted integral implemented here by Gauss quadrature so the
endpoint form can be validated against it.

A static electric field F adds a radial term ``+F r``.  For r well inside
the screening length the effective potential is a cubic polynomial plus
the Coulomb pole; `taylor_coefficients` returns its coefficients for the
closed forms of `laserplasma.perturbation`.  Each is a sum of A alpha0^(2k)
over const lambda_D^n terms, split so that a sweep computes once the
alpha0 numerators or the lambda_D denominators its parameter leaves fixed.
The field enters c1 alone, as ``c1 = F - d8 + d4``: `_coefficients`
returns the field-free parts (c0, d8, d4, c2, c3), and c1 is formed only
where F is known, so one set of parts serves every field value.

All quantities are in atomic units unless the generic ``mu``, ``hbar``,
``e_charge`` fields are overridden.  Every function here is pure and safe
to call concurrently.  Only the functions of a radius import numpy;
`ModelParams` and `taylor_coefficients` work in plain floats.
"""

import math
from dataclasses import dataclass

__all__ = [
    "ModelParams",
    "EffectiveCoefficients",
    "PoleProximityError",
    "ecsc_eval",
    "dressed_pair_eval",
    "v0_quadrature",
    "taylor_coefficients",
    "veff_series_eval",
]

# Evaluation closer to the r = alpha0 pole than this (times max(1, alpha0))
# is refused rather than returning a huge value that silently poisons sweeps.
POLE_GUARD = 1e-12


class PoleProximityError(ValueError):
    """Raised when a dressed potential is evaluated at or next to r = alpha0."""


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the screened, dressed, field-driven atom.

    Parameters
    ----------
    lambda_d : float
        Debye screening length (a.u., > 0; inf is the unscreened limit).
    alpha0 : float
        Laser quiver amplitude of a free electron (a.u., finite, >= 0).
        Instead of giving it directly it can be derived from the laser
        angular frequency and field amplitude via `from_laser`.
    field : float
        Static electric field strength F (a.u., finite, >= 0), entering as +F r.
    z : float
        Nuclear charge number (finite, >= 1).
    mu, hbar, e_charge : float
        Effective electron mass, reduced Planck constant and elementary
        charge (finite, > 0).  Defaults of 1 select atomic units.
    omega, e0_amp : float or None
        Optional laser angular frequency and field amplitude.  They are
        stored for provenance only; all formulas depend on them solely
        through ``alpha0 = e_charge * e0_amp / (mu * omega**2)``.
    """

    lambda_d: float
    alpha0: float = 0.0
    field: float = 0.0
    z: float = 1.0
    mu: float = 1.0
    hbar: float = 1.0
    e_charge: float = 1.0
    omega: float | None = None
    e0_amp: float | None = None

    def __post_init__(self):
        # written so that NaN fails every comparison; lambda_d = inf is the
        # unscreened limit and stays allowed
        if not self.lambda_d > 0:
            raise ValueError(f"lambda_d must be > 0, got {self.lambda_d}")
        if not 0 <= self.alpha0 < math.inf:
            raise ValueError(f"alpha0 must be finite and >= 0, got {self.alpha0}")
        if not 0 <= self.field < math.inf:
            raise ValueError(f"field must be finite and >= 0, got {self.field}")
        if not 1 <= self.z < math.inf:
            raise ValueError(f"z must be finite and >= 1, got {self.z}")
        for name in ("mu", "hbar", "e_charge"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")

    @classmethod
    def from_laser(cls, omega, e0_amp, **kwargs):
        """Build parameters with alpha0 derived from laser frequency/amplitude."""
        if "alpha0" in kwargs:
            raise ValueError("give either alpha0 or (omega, e0_amp), not both")
        if not 0 < omega < math.inf:
            raise ValueError(f"omega must be finite and > 0, got {omega}")
        if not 0 <= e0_amp < math.inf:
            raise ValueError(f"e0_amp must be finite and >= 0, got {e0_amp}")
        mu = kwargs.get("mu", 1.0)
        e_charge = kwargs.get("e_charge", 1.0)
        alpha0 = e_charge * e0_amp / (mu * omega**2)
        return cls(alpha0=alpha0, omega=omega, e0_amp=e0_amp, **kwargs)

    @property
    def coulomb_strength(self):
        """Coulomb coupling A = Z e^2 (a.u. energy times length)."""
        return self.z * self.e_charge**2

    @property
    def decay_rate(self):
        """Inverse length 2 mu A / hbar^2, the ground-state exponential rate."""
        return 2.0 * self.mu * self.coulomb_strength / self.hbar**2


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Cubic small-r expansion of the effective potential.

    V_eff(r) ~ c_m1 / r + c0 + c1 r + c2 r^2 + c3 r^3, with the static
    field already folded into the linear coefficient c1.
    """

    c_m1: float
    c0: float
    c1: float
    c2: float
    c3: float


def _screened(x, strength, lambda_d):
    """Screened-Coulomb kernel -(A/x) exp(-x/lambda) cos(x/lambda), no checks."""
    import numpy as np

    t = x / lambda_d
    return -(strength / x) * np.exp(-t) * np.cos(t)


def _radii(r):
    import numpy as np

    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("radial distance must be > 0")
    return arr, np.isscalar(r) or arr.ndim == 0


def ecsc_eval(r, p: ModelParams):
    """Exponential-cosine-screened Coulomb potential at radius r.

    Parameters
    ----------
    r : float or array_like
        Radial distance (a.u., > 0).
    p : ModelParams

    Returns
    -------
    float or ndarray
        -(A/r) exp(-r/lambda_D) cos(r/lambda_D).
    """
    arr, scalar = _radii(r)
    out = _screened(arr, p.coulomb_strength, p.lambda_d)
    return float(out) if scalar else out


def dressed_pair_eval(r, p: ModelParams):
    """Laser-dressed potential: screened terms displaced to r +/- alpha0.

    This is the endpoint (two-center) approximation of the laser cycle
    average.  It has a pole at r = alpha0; evaluation inside a guard band
    of ``POLE_GUARD * max(1, alpha0)`` raises `PoleProximityError` instead
    of returning a huge value.

    Parameters
    ----------
    r : float or array_like
        Radial distance (a.u., > 0, != alpha0).
    p : ModelParams

    Returns
    -------
    float or ndarray
    """
    import numpy as np

    arr, scalar = _radii(r)
    if p.alpha0 > 0.0:
        guard = POLE_GUARD * max(1.0, p.alpha0)
        if np.any(np.abs(arr - p.alpha0) < guard):
            raise PoleProximityError(
                f"dressed potential evaluated within {guard:g} of the pole "
                f"at r = alpha0 = {p.alpha0:g}"
            )
    a = p.coulomb_strength
    out = _screened(arr + p.alpha0, a, p.lambda_d) + _screened(arr - p.alpha0, a, p.lambda_d)
    return float(out) if scalar else out


def v0_quadrature(r, p: ModelParams, n_nodes: int = 64):
    """Exact laser cycle average of the screened potential by quadrature.

    Computes the zero-harmonic of the oscillating-frame potential,

        (1/pi) Integral_{-1}^{1} [V(r + alpha0 q) + V(r - alpha0 q)]
                                  dq / sqrt(1 - q^2),

    with Chebyshev-Gauss nodes q_k = cos((2k-1) pi / (2 N)) whose uniform
    weights absorb the 1/sqrt(1-q^2) factor exactly.  The normalization
    matches `dressed_pair_eval` (two full-strength terms), to which this
    converges as alpha0/r -> 0.

    Parameters
    ----------
    r : float or array_like
        Radial distance (a.u.), strictly greater than alpha0 so the
        integrand pole stays outside the integration path.
    p : ModelParams
    n_nodes : int
        Quadrature order, at least 8.  The integrand is smooth on the
        node interval, so convergence is geometric; 64 is ample.

    Returns
    -------
    float or ndarray
    """
    import numpy as np

    if n_nodes < 8:
        raise ValueError(f"n_nodes must be >= 8, got {n_nodes}")
    arr, scalar = _radii(r)
    if np.any(arr <= p.alpha0):
        raise ValueError(
            f"cycle-average quadrature requires r > alpha0 = {p.alpha0:g} "
            "(pole crosses the integration path otherwise)"
        )
    k = np.arange(1, n_nodes + 1)
    nodes = np.cos((2.0 * k - 1.0) * np.pi / (2.0 * n_nodes))
    a = p.coulomb_strength
    x = arr[..., np.newaxis] + p.alpha0 * nodes
    y = arr[..., np.newaxis] - p.alpha0 * nodes
    out = np.mean(_screened(x, a, p.lambda_d) + _screened(y, a, p.lambda_d), axis=-1)
    return float(out) if scalar else out


def _alpha_terms(a, alpha0):
    """The A alpha0^(2k) numerators of the coefficients, in `_coefficients`' order."""
    a2 = alpha0**2
    a4 = a2 * a2
    a6, a8, two_a = a4 * a2, a4 * a4, 2.0 * a
    return a * a8, a * a6, a * a4, two_a * a2, two_a, a * a2, -a * a8, a


def _lambda_terms(lam):
    """The lambda_D denominators of the coefficients, one pow per distinct power."""
    l3, l4, l5, l7 = lam**3, lam**4, lam**5, lam**7
    l8, l9, l11, l12 = lam**8, lam**9, lam**11, lam**12
    return (11340.0 * l9, 315.0 * l7, 15.0 * l5, 3.0 * l3, lam, 180.0 * l8, l4,
            13860.0 * l11, 405.0 * l9, 21.0 * l7, 5.0 * l5, 22680.0 * l12, 36.0 * l8, 3.0 * l4)


def _coefficients(num, den):
    """The field-free parts (c0, d8, d4, c2, c3) from `_alpha_terms` and `_lambda_terms`,
    with c1 = F - d8 + d4; k<i>_<n> is c_i's lambda_D^n term.  The constant of
    c_i's A alpha0^j / lambda_D^n term is -2 C(i+j, j) a_n, n = i + j + 1, where
    a_n = Re((1j - 1)^n) / n! is the t^n coefficient of exp(-t) cos(t)."""
    n8, n6, n4, n2x2, n0x2, n2, neg8, n0 = num
    k0_9, k0_7, k0_5, k0_3, k0_1, k1_8, k1_4, k2_11, k2_9, k2_7, k2_5, k3_12, k3_8, k3_4 = den
    c0 = n8 / k0_9 + n6 / k0_7 - n4 / k0_5 - n2x2 / k0_3 + n0x2 / k0_1
    c2 = neg8 / k2_11 + n6 / k2_9 + n4 / k2_7 - n2x2 / k2_5 - n0x2 / k0_3
    c3 = n8 / k3_12 - n4 / k3_8 + n0 / k3_4
    return c0, n6 / k1_8, n2 / k1_4, c2, c3


def taylor_coefficients(p: ModelParams) -> EffectiveCoefficients:
    """Small-r expansion coefficients of the dressed potential plus field term.

    The expansion is joint in r and alpha0: the Coulomb pole keeps its
    undressed strength -2A while the analytic remainder is expanded
    through r^3 and alpha0^8.  The static field contributes F to c1.
    """
    a = p.coulomb_strength
    c0, d8, d4, c2, c3 = _coefficients(_alpha_terms(a, p.alpha0), _lambda_terms(p.lambda_d))
    return EffectiveCoefficients(-2.0 * a, c0, p.field - d8 + d4, c2, c3)


def veff_series_eval(r, c: EffectiveCoefficients):
    """Evaluate the cubic effective-potential expansion at radius r.

    Valid for r well inside the screening length (r / lambda_D << 1);
    outside that window it departs rapidly from the exact dressed form.
    """
    arr, scalar = _radii(r)
    out = c.c_m1 / arr + c.c0 + arr * (c.c1 + arr * (c.c2 + arr * c.c3))
    return float(out) if scalar else out
