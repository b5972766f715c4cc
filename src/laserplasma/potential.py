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
closed forms of `laserplasma.perturbation`.  Each term A alpha0^j / lambda_D^n,
n = k + j + 1, of c_k is A lambda_D^-(k+1) times (alpha0/lambda_D)^j, so c_k
is A lambda_D^-(k+1) times a polynomial in the one variable
x = (alpha0/lambda_D)^2.  The field enters c1 alone, as ``c1 = F + d1``:
`_coefficients` returns the field-free parts (c0, d1, c2, c3), and c1 is
formed only where F is known, so one set of parts serves every field value.

All quantities are in atomic units unless the generic ``mu``, ``hbar``,
``e_charge`` fields are overridden.  Every function here is pure and safe
to call concurrently.  `ModelParams` and `taylor_coefficients` work in
plain floats, and so does every evaluator at a float radius or a 0-d
array: exp and cos come from `math`, with numpy's inf or nan where those
raise, and only an array of radii imports numpy.  Every radius must be finite and > 0.
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
# `v0_quadrature`'s relative error bound, and the most nodes it chooses to meet it
_QUADRATURE_TOL = 1e-12
_MAX_NODES = 2**14
# every bound of `ModelParams`' band is BAND times an atomic-scale unit; inside it no
# coefficient, superpotential or energy below the c3 root leaves the floats
BAND = 1e3
_LOWER_BOUNDS = (("z", 1.0), ("mu", 1 / BAND), ("hbar", 1 / BAND), ("e_charge", 1 / BAND),
                 ("omega", 1 / BAND), ("e0_amp", 0.0))
_UNITS = "a0 = hbar^2/(mu z e_charge^2), E_h = z e_charge^2/a0"
# the band of each parameter that scales with a0 or E_h, in those units
_SCALED_BANDS = {"lambda_d": f"[{1 / BAND:g} a0, inf]", "alpha0": f"[0, {BAND:g} a0]",
                 "field": f"[0, {BAND:g} E_h/a0]"}


class PoleProximityError(ValueError):
    """Raised when a dressed potential is evaluated at or next to r = alpha0."""


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the screened, dressed, field-driven atom.

    Each field must lie in its band, set by `BAND` = 1e3 in the Bohr radius
    a0 = hbar^2 / (mu Z e^2) and the energy E_h = Z e^2 / a0.  One table holds
    the bands of lambda_d, alpha0 and F; it refuses NaN and every infinity but
    lambda_d = inf, with a ValueError naming the field, its band and the value.

    Parameters
    ----------
    lambda_d : float
        Debye screening length (a.u., >= a0 / BAND; inf is the unscreened limit).
    alpha0 : float or None
        Laser quiver amplitude of a free electron (a.u., 0 <= alpha0 <= BAND a0).
        None, the default, stands for 0 without a laser pair and for the
        derived value with one.
    field : float
        Static electric field strength F (a.u., 0 <= F <= BAND E_h / a0), entering
        as +F r.
    z : float
        Nuclear charge number (1 <= Z <= BAND).
    mu, hbar, e_charge : float
        Effective electron mass, reduced Planck constant and elementary
        charge (each in [1 / BAND, BAND]).  Defaults of 1 select atomic units.
    omega, e0_amp : float or None
        Optional laser angular frequency (in [1 / BAND, BAND]) and field
        amplitude (in [0, BAND]), given both or neither.  Every formula
        depends on them solely through the alpha0 they fix, e E0 / (mu omega^2);
        an alpha0 given with them must equal it exactly.
    """

    lambda_d: float
    alpha0: float | None = None
    field: float = 0.0
    z: float = 1.0
    mu: float = 1.0
    hbar: float = 1.0
    e_charge: float = 1.0
    omega: float | None = None
    e0_amp: float | None = None

    def __post_init__(self):
        if (self.omega is None) != (self.e0_amp is None):
            raise ValueError("omega and e0_amp must be given together")
        for name, low in _LOWER_BOUNDS:
            value = getattr(self, name)
            if value is not None and not low <= value <= BAND:
                raise ValueError(f"{name} must lie in [{low:g}, {BAND:g}], got {value}")
        if self.omega is not None:
            # a float of at most 1e15 inside the band; the alpha0 band below refuses a large one
            alpha0 = self.e_charge * self.e0_amp / (self.mu * self.omega**2)
            if self.alpha0 not in (None, alpha0):
                raise ValueError(f"alpha0 = {self.alpha0}, but omega and e0_amp fix it at {alpha0}")
            object.__setattr__(self, "alpha0", alpha0)
        elif self.alpha0 is None:
            object.__setattr__(self, "alpha0", 0.0)
        a = self.coulomb_strength
        a0 = self.hbar**2 / (self.mu * a)
        # NaN and every infinity but lambda_d = inf, the unscreened limit, fail here
        for name, low, high in (("lambda_d", a0 / BAND, math.inf), ("alpha0", 0.0, BAND * a0),
                                ("field", 0.0, BAND * a / a0**2)):
            value = getattr(self, name)
            if not low <= value <= high:
                raise ValueError(f"{name} must lie in {_SCALED_BANDS[name]} = [{low:g}, {high:g}] "
                                 f"({_UNITS}); got {value}")

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


def _lib(x):
    """The module whose functions fit x: math for a float, numpy (imported only then) otherwise."""
    if isinstance(x, float):
        return math
    import numpy as np

    return np


def _any(holds):
    """A comparison's verdict at a float, or whether it holds anywhere in an array."""
    return holds if isinstance(holds, bool) else bool(holds.any())


def _screened(x, strength, lambda_d):
    """Screened-Coulomb kernel -(A/x) exp(-x/lambda) cos(x/lambda), no checks."""
    lib = _lib(x)
    t = x / lambda_d
    try:
        return -(strength / x) * lib.exp(-t) * lib.cos(t)
    except (OverflowError, ValueError):  # math's; numpy gives inf past exp's range, nan at inf t
        return -(strength / x) * math.inf * math.cos(t) if abs(t) < math.inf else math.nan


def _dressed(r, strength, lambda_d, alpha0):
    """Sum of the screened terms at r + alpha0 and r - alpha0, no checks."""
    return _screened(r + alpha0, strength, lambda_d) + _screened(r - alpha0, strength, lambda_d)


def _radii(r):
    """r as a float if it is a float, an int or a 0-d array, anything else as a
    float array; raises ValueError unless every radius is finite and > 0."""
    arr = r if isinstance(r, (int, float)) else _lib(r).asarray(r, dtype=float)
    if getattr(arr, "ndim", 0) == 0:  # so a 0-d array computes through math, as a float
        arr = float(arr)
    # NaN fails every comparison, and numpy's min and max propagate it
    if not (0.0 < arr < math.inf if isinstance(arr, float)
            else arr.min(initial=math.inf) > 0.0 and arr.max(initial=0.0) < math.inf):
        raise ValueError("radial distance must be finite and > 0")
    return arr


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
    return _screened(_radii(r), p.coulomb_strength, p.lambda_d)


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
    arr = _radii(r)
    if p.alpha0 > 0.0:
        guard = POLE_GUARD * max(1.0, p.alpha0)
        if _any(abs(arr - p.alpha0) < guard):
            raise PoleProximityError(
                f"dressed potential evaluated within {guard:g} of the pole "
                f"at r = alpha0 = {p.alpha0:g}"
            )
    return _dressed(arr, p.coulomb_strength, p.lambda_d, p.alpha0)


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
        Least quadrature order, an integer of at least 8.  The integrand is smooth
        on the node interval, so convergence is geometric: the relative error is
        2 exp(-2 N acosh(r / alpha0)) whatever lambda_D is.  The rule runs on the
        fewest nodes, at least n_nodes, that keep it within 1e-12 at the smallest
        radius: 64 from r = 1.025 alpha0, 709 at r = 1.0002 alpha0.  Rather than
        go past both n_nodes and `_MAX_NODES` = 2**14 (below about r = 1.0000004
        alpha0), it raises ValueError naming the count.

    Returns
    -------
    float or ndarray
    """
    if not hasattr(n_nodes, "__index__") or n_nodes < 8:
        raise ValueError(f"n_nodes must be an integer >= 8, got {n_nodes!r}")
    arr = _radii(r)
    if _any(arr <= p.alpha0):
        raise ValueError(
            f"cycle-average quadrature requires r > alpha0 = {p.alpha0:g} "
            "(pole crosses the integration path otherwise)"
        )
    n = n_nodes
    if p.alpha0 > 0.0:
        # one plain-float count at the smallest radius, where the error is largest
        r_min = arr if isinstance(arr, float) else float(arr.min(initial=math.inf))
        rate = 2.0 * math.acosh(r_min / p.alpha0)
        needed = math.ceil(math.log(2.0 / _QUADRATURE_TOL) / rate)
        if needed > max(n_nodes, _MAX_NODES):
            raise ValueError(f"cycle average at r = {r_min:.10g}, {r_min / p.alpha0:.10g} alpha0 "
                             f"needs {needed} nodes to meet {_QUADRATURE_TOL:g}, past the cap "
                             f"of {_MAX_NODES}")
        n = max(n, needed)
    a, lam = p.coulomb_strength, p.lambda_d
    return sum(_dressed(arr, a, lam, p.alpha0 * math.cos((2.0 * k - 1.0) * math.pi / (2.0 * n)))
               for k in range(1, n + 1)) / n


def _coefficients(a, alpha0, lambda_d):
    """The field-free parts (c0, d1, c2, c3), c1 = F + d1.  c_k is s_k = A lambda_D**-(k+1)
    times a polynomial in x = (alpha0/lambda_D)^2 whose x^(j/2) coefficient is
    -2 C(k+j, j) a_n, n = k + j + 1, with a_n = Re((1j - 1)^n) / n! the t^n coefficient of
    exp(-t) cos(t): s_k x times the rest by Horner's rule, plus the constant term last."""
    x, s0, s1 = (alpha0 / lambda_d)**2, a * lambda_d**-1, a * lambda_d**-2
    s2, s3, y = a * lambda_d**-3, a * lambda_d**-4, x * x
    c0 = s0 * x * (-2 / 3 + x * (-1 / 15 + x * (1 / 315 + x * (1 / 11340)))) + 2.0 * s0
    c2 = s2 * x * (-2 / 5 + x * (1 / 21 + x * (1 / 405 + x * (-1 / 13860)))) - 2 / 3 * s2
    c3 = s3 * y * (-1 / 36 + y * (1 / 22680)) + 1 / 3 * s3
    # + 0.0 turns c2's -0.0 at lambda_D = inf into the 0.0 that e2 prints
    return c0, s1 * x * (1.0 + y * (-1 / 180)), c2 + 0.0, c3


# c3 is A lambda_D^-4 (1/3 - y/36 + y^2/22680), y = (alpha0/lambda_D)^4: it turns
# negative, and the cubic model loses its ground state, at y = 315 - sqrt(91665),
# and positive again at y = 315 + sqrt(91665), alpha0/lambda_D = 4.98546
_C3_ROOT = (7560.0 / (315.0 + 91665.0**0.5)) ** 0.25  # 1.8703595502933...


def _require_cubic_domain(p: ModelParams) -> ModelParams:
    """p, if its alpha0/lambda_D lies below `_C3_ROOT`; raises ValueError otherwise."""
    if not p.alpha0 / p.lambda_d < _C3_ROOT:
        raise ValueError(f"the cubic model needs alpha0/lambda_d below {_C3_ROOT:.8g}, where "
                         f"c3 first changes sign; got alpha0/lambda_d = {p.alpha0 / p.lambda_d:g}")
    return p


def taylor_coefficients(p: ModelParams) -> EffectiveCoefficients:
    """Small-r expansion coefficients of the dressed potential plus field term.

    The expansion is joint in r and alpha0: the Coulomb pole keeps its
    undressed strength -2A while the analytic remainder is expanded
    through r^3 and alpha0^8.  The static field contributes F to c1.  Every
    coefficient is finite on `ModelParams`' band.
    """
    a = p.coulomb_strength
    c0, d1, c2, c3 = _coefficients(a, p.alpha0, p.lambda_d)
    return EffectiveCoefficients(-2.0 * a, c0, p.field + d1, c2, c3)


def veff_series_eval(r, c: EffectiveCoefficients):
    """Evaluate the cubic effective-potential expansion at radius r.

    Valid for r well inside the screening length (r / lambda_D << 1);
    outside that window it departs rapidly from the exact dressed form.
    """
    arr = _radii(r)
    # c_m1 / r + c0 + r (c1 + r (c2 + r c3)) one operation at a time, in place
    # on an array; on a float, += and *= rebind to the same value
    poly = arr * c.c3
    poly += c.c2
    poly *= arr
    poly += c.c1
    poly *= arr
    value = c.c_m1 / arr
    value += c.c0
    value += poly
    return value
