"""Exact references for the tests: the expansion series, the potential it
truncates, and manufactured eigenpairs.

The series.  e^(-t) cos t = Re e^((i-1) t) = sum_n a_n t^n with
a_n = Re((i-1)^n) / n!.  Expanding the two displaced screened terms of the
dressed potential, with the pole kept at -2A/r, gives the coefficient of r^k

    c_k = sum over even j of coef(k, j) A alpha0^j / lambda_D^n,
    coef(k, j) = -2 C(k+j, j) a_n,   n = k + j + 1,

plus F in c1.  Everything is a `fractions.Fraction`, so the table and every
coefficient built from it are exact.
"""

from fractions import Fraction
from math import comb, factorial


def _taylor(n):
    """a_n = Re((i-1)^n) / n!, exactly."""
    re, im = 1, 0
    for _ in range(n):  # (re + i im) (i - 1)
        re, im = -re - im, re - im
    return Fraction(re, factorial(n))


def series_terms(k, j_max=8):
    """The nonzero (j, n, coef(k, j)) of c_k, for even j from j_max down to 0."""
    terms = []
    for j in range(j_max - j_max % 2, -1, -2):
        n = k + j + 1
        if a_n := _taylor(n):
            terms.append((j, n, -2 * comb(k + j, j) * a_n))
    return terms


def exact_coefficient(k, a, lambda_d, alpha0, field, j_max=8):
    """c_k of the float inputs, exactly, through alpha0^j_max."""
    a, lam, alpha0 = Fraction(a), Fraction(lambda_d), Fraction(alpha0)
    start = Fraction(field) if k == 1 else Fraction(0)
    return sum((coef * a * alpha0**j / lam**n for j, n, coef in series_terms(k, j_max)), start)


# a_1 .. a_7 of g's small-argument series, whose first omitted term is ~t^7
_SMALL_T = tuple(float(_taylor(n)) for n in range(1, 8))


def pole_free(a, lambda_d, alpha0, field):
    """The dressed potential that the cubic series truncates, uncut.

    V(r) = -2A/r + g(r + alpha0) + g(r - alpha0) + F r with
    g(x) = -A (e^(-x/lambda_D) cos(x/lambda_D) - 1) / x: the two displaced
    screened centers with their poles moved to the -2A/r of the origin, so
    beyond that pole its Taylor coefficients are those of `exact_coefficient`.
    For |t| = |x/lambda_D| < 1e-3, where the closed form cancels,
    g = -(A/lambda_D) sum_n a_n t^(n-1) over seven terms.
    """
    import numpy as np

    def g(x):
        t = x / lambda_d
        small = np.abs(t) < 1e-3
        series = sum(a_n * t ** (n - 1) for n, a_n in enumerate(_SMALL_T, 1))
        x = np.where(small, 1.0, x)  # keeps the unused closed form finite at x = 0
        closed = -(np.exp(-x / lambda_d) * np.cos(x / lambda_d) - 1.0) / x
        return a * np.where(small, -series / lambda_d, closed)

    def potential(r):
        return -2.0 * a / r + g(r + alpha0) + g(r - alpha0) + field * r

    return potential


# (q, b) of the manufactured states that the oracle tests solve
MANUFACTURED_CASES = ((0.0, 0.0), (1e-2, 0.0), (0.0, 1e-3), (2e-2, 5e-3), (3e-2, 1e-2),
                      (5e-2, 2e-2))


def manufactured(sigma, q, b, e_m, mu=1.0, hbar=1.0):
    """Radial potential whose exact ground state is r exp(-Q) at energy e_m.

    With Q = sigma r + q r^2 + b r^3 (b > 0, or b = 0 and q >= 0),
    V_m = e_m + (hbar^2 / 2 mu) (Q'^2 - Q'' - 2 Q'/r) makes H r exp(-Q) =
    e_m r exp(-Q) hold exactly; the state is nodeless and normalizable, so
    e_m is the lowest level.  Its pole, -(hbar^2 sigma / mu) / r, is the
    model's -2A/r at sigma = ``ModelParams.decay_rate``.
    """
    kin = hbar**2 / (2.0 * mu)

    def potential(r):
        dq = sigma + 2.0 * q * r + 3.0 * b * r * r
        return e_m + kin * (dq * dq - (2.0 * q + 6.0 * b * r) - 2.0 * dq / r)

    return potential
