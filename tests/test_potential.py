import itertools
import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from laserplasma import potential
from laserplasma.potential import (
    EffectiveCoefficients,
    ModelParams,
    PoleProximityError,
    dressed_pair_eval,
    ecsc_eval,
    taylor_coefficients,
    v0_quadrature,
    veff_series_eval,
)
from laserplasma.perturbation import wavefunction_eval

from exact import exact_coefficient, pole_free, series_terms

UNITS = "(a0 = hbar^2/(mu z e_charge^2), E_h = z e_charge^2/a0)"


def test_params_validation():
    with pytest.raises(ValueError, match="lambda_d"):
        ModelParams(lambda_d=-3.0)
    with pytest.raises(ValueError, match="alpha0"):
        ModelParams(lambda_d=1.0, alpha0=-0.1)
    with pytest.raises(ValueError, match="field"):
        ModelParams(lambda_d=1.0, field=-0.5)
    with pytest.raises(ValueError, match="z"):
        ModelParams(lambda_d=1.0, z=0.5)
    # NaN and infinity are outside the model's domain too; lambda_d = inf
    # is the unscreened limit and stays accepted
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha0"):
            ModelParams(lambda_d=1.0, alpha0=bad)
        with pytest.raises(ValueError, match="field"):
            ModelParams(lambda_d=1.0, field=bad)
        with pytest.raises(ValueError, match="z"):
            ModelParams(lambda_d=1.0, z=bad)
        for name in ("mu", "hbar", "e_charge"):
            with pytest.raises(ValueError, match=name):
                ModelParams(lambda_d=1.0, **{name: bad})
    with pytest.raises(ValueError, match="lambda_d"):
        ModelParams(lambda_d=math.nan)
    assert ModelParams(lambda_d=math.inf).lambda_d == math.inf
    # the laser pair lies in the same absolute band as mu, hbar and e_charge
    with pytest.raises(ValueError, match=re.escape("e0_amp must lie in [0, 1000], got nan")):
        ModelParams(lambda_d=1.0, omega=2.0, e0_amp=math.nan)
    for bad in (0.0, math.nan, math.inf, 1e200, 1e-200):
        with pytest.raises(ValueError, match=re.escape(f"omega must lie in [0.001, 1000], got {bad}")):
            ModelParams(lambda_d=1.0, omega=bad, e0_amp=1.0)
    with pytest.raises(ValueError, match=re.escape("omega must lie in [0.001, 1000], got -1")):
        ModelParams(lambda_d=5.0, omega=-1.0, e0_amp=1.0, alpha0=0.3)
    # the laser pair comes whole
    for half in ({"omega": 2.0}, {"e0_amp": 1.0}, {"omega": 1e200}, {"e0_amp": math.nan}):
        with pytest.raises(ValueError, match="^omega and e0_amp must be given together$"):
            ModelParams(lambda_d=5.0, **half)
    with pytest.raises(ValueError, match=re.escape("omega must lie in [0.001, 1000], got 1e+200")):
        ModelParams(lambda_d=5.0, omega=1e200, e0_amp=1.0)
    with pytest.raises(ValueError, match=re.escape("omega must lie in [0.001, 1000], got 1e-200")):
        ModelParams(lambda_d=5.0, omega=1e-200, e0_amp=1.0)
    with pytest.raises(ValueError, match=re.escape("omega must lie in [0.001, 1000], got 1e-150")):
        ModelParams(lambda_d=5.0, omega=1e-150, e0_amp=1e300)
    for bad in (-1.0, math.inf, 1e300):
        with pytest.raises(ValueError, match=re.escape(f"e0_amp must lie in [0, 1000], got {bad}")):
            ModelParams(lambda_d=5.0, omega=2.0, e0_amp=bad)


# (name, band in a0 and E_h units, its bounds at a0 = E_h = 1)
SCALED_BANDS = [("lambda_d", "[0.001 a0, inf]", 1e-3, math.inf),
                ("alpha0", "[0, 1000 a0]", 0.0, 1e3), ("field", "[0, 1000 E_h/a0]", 0.0, 1e3)]


@pytest.mark.parametrize("name, band, low, high", SCALED_BANDS, ids=[b[0] for b in SCALED_BANDS])
def test_one_band_refuses_each_value_outside_it_in_one_form(name, band, low, high):
    # below or above the band, NaN and +-inf: one message naming the parameter, its
    # band in a0 and E_h units and as numbers, and the value
    bounds = f"[{low:g}, {high:g}]"
    for value in (math.nextafter(low, -math.inf), -1.0, high * 2.0, math.nan, -math.inf, math.inf):
        if value == high:  # lambda_d's band has no value above it
            continue
        message = f"{name} must lie in {band} = {bounds} {UNITS}; got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelParams(**{"lambda_d": 1.0, name: value})
    # each bound lies in the band: lambda_d = inf, alpha0 = 0 and F = 0 among them
    for value in (low, high):
        assert getattr(ModelParams(**{"lambda_d": 1.0, name: value}), name) == value


def test_derived_quantities():
    p = ModelParams(lambda_d=10.0, z=3.0, mu=2.0, hbar=0.5)
    assert p.coulomb_strength == 3.0
    assert p.decay_rate == pytest.approx(2.0 * 2.0 * 3.0 / 0.25)


def test_from_laser_derives_alpha0():
    p = ModelParams(lambda_d=10.0, omega=2.0, e0_amp=0.8)
    assert p.alpha0 == 0.8 / 4.0
    assert p.omega == 2.0 and p.e0_amp == 0.8
    assert ModelParams(lambda_d=10.0).alpha0 == 0.0
    with pytest.raises(ValueError, match=r"alpha0 = 0\.1, but omega and e0_amp fix it at 0\.2"):
        ModelParams(lambda_d=10.0, omega=2.0, e0_amp=0.8, alpha0=0.1)
    # the derived alpha0 is the written-out rule bit for bit, and an alpha0
    # equal to it is accepted, so replace() keeps a laser point; the draws
    # keep alpha0 <= 46, inside the band's 1000 a0 >= 138
    rng = random.Random(24)
    for _ in range(2000):
        omega, e0_amp = math.exp(rng.uniform(-1.0, 5.0)), math.exp(rng.uniform(-9.0, 1.0))
        mu, e_charge = rng.choice((1.0, 0.75, 2.5)), rng.choice((1.0, 0.5, 1.7))
        p = ModelParams(lambda_d=10.0, omega=omega, e0_amp=e0_amp, mu=mu, e_charge=e_charge)
        assert p.alpha0 == e_charge * e0_amp / (mu * omega**2)
        assert replace(p, field=0.02).alpha0 == p.alpha0
    with pytest.raises(ValueError, match="but omega and e0_amp fix it at"):
        replace(p, e0_amp=2.0 * e0_amp)


def test_ecsc_pure_coulomb_limit():
    # huge screening length: plain -A/r
    p = ModelParams(lambda_d=1e12)
    assert ecsc_eval(1.0, p) == pytest.approx(-1.0, abs=1e-9)


def test_ecsc_cosine_zero():
    p = ModelParams(lambda_d=1.0)
    assert abs(ecsc_eval(math.pi / 2.0, p)) < 1e-15


def test_ecsc_frozen_value():
    # independent evaluation: -exp(-1) cos(1)
    p = ModelParams(lambda_d=1.0)
    assert ecsc_eval(1.0, p) == pytest.approx(-0.19876611034641298, rel=1e-14)


DOMAIN_PARAMS = ModelParams(lambda_d=1.0, alpha0=0.1, field=0.01)
# every evaluator of a radius, at DOMAIN_PARAMS
EVALUATORS = {
    "ecsc_eval": lambda r: ecsc_eval(r, DOMAIN_PARAMS),
    "dressed_pair_eval": lambda r: dressed_pair_eval(r, DOMAIN_PARAMS),
    "veff_series_eval": lambda r: veff_series_eval(r, taylor_coefficients(DOMAIN_PARAMS)),
    "v0_quadrature": lambda r: v0_quadrature(r, DOMAIN_PARAMS),
    "wavefunction_eval": lambda r: wavefunction_eval(r, DOMAIN_PARAMS),
}


@pytest.mark.parametrize("name", EVALUATORS)
def test_ecsc_domain(name):
    # a radius must be finite and > 0, as a float and at every element of an
    # array, or NaN and +-inf would come back as NaN without a word
    evaluate = EVALUATORS[name]
    for bad in (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf):
        for r in (bad, np.array([1.0, bad]), [bad]):
            with pytest.raises(ValueError, match="radial distance must be finite and > 0"):
                evaluate(r)
    assert math.isfinite(evaluate(1.0))
    assert np.all(np.isfinite(evaluate(np.array([0.5, 1.0]))))
    assert evaluate(np.array([])).shape == (0,)  # no radius, no fault


@pytest.mark.parametrize("name", EVALUATORS)
def test_zero_d_array_gives_the_float_radius_value(name):
    # a 0-d array is read as the float it holds, so it computes through math
    # and returns a Python float, bit for bit the float radius's value
    evaluate = EVALUATORS[name]
    for r in (0.15, 0.5, 1.0, 2.5):
        value = evaluate(np.array(r))
        assert type(value) is float
        assert value == evaluate(r)


def test_ecsc_vectorized():
    p = ModelParams(lambda_d=2.0)
    r = np.array([0.5, 1.0, 2.0])
    out = ecsc_eval(r, p)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(ecsc_eval(1.0, p))


def test_dressed_degenerate_is_twice_screened():
    p = ModelParams(lambda_d=7.0, alpha0=0.0)
    for r in (0.3, 1.0, 4.0):
        assert dressed_pair_eval(r, p) == pytest.approx(2.0 * ecsc_eval(r, p), rel=1e-15)


def test_dressed_composes_from_screened_terms():
    p = ModelParams(lambda_d=100.0, alpha0=0.001)
    expected = ecsc_eval(2.001, p) + ecsc_eval(1.999, p)
    assert dressed_pair_eval(2.0, p) == pytest.approx(expected, rel=1e-15)


def test_dressed_pole_guard_and_divergence():
    p = ModelParams(lambda_d=10.0, alpha0=0.5)
    with pytest.raises(PoleProximityError):
        dressed_pair_eval(0.5, p)
    with pytest.raises(PoleProximityError):
        dressed_pair_eval(0.5 + 1e-13, p)
    # magnitude grows without bound approaching the pole from above
    v1 = abs(dressed_pair_eval(0.5 + 1e-6, p))
    v2 = abs(dressed_pair_eval(0.5 + 1e-9, p))
    assert v2 > 100.0 * v1
    with pytest.raises(ValueError):
        dressed_pair_eval(-1.0, p)


@pytest.mark.parametrize("evaluate, r, p", [
    (dressed_pair_eval, 0.05, ModelParams(lambda_d=1.0, alpha0=1000.0)),
    (dressed_pair_eval, 0.05, ModelParams(lambda_d=1.0, alpha0=996.0)),
    (ecsc_eval, 1e307, ModelParams(lambda_d=0.01)),
    (dressed_pair_eval, 1e307, ModelParams(lambda_d=0.01, alpha0=1.0)),
    (v0_quadrature, 1e307, ModelParams(lambda_d=0.01, alpha0=1.0)),
], ids=["dressed-exp-range", "dressed-exp-range-other-sign", "screened-infinite-t",
        "dressed-infinite-t", "quadrature-infinite-t"])
def test_float_radius_gives_the_array_value_where_math_raises(evaluate, r, p):
    # math.exp past its range (alpha0 > r + 709 lambda_D) and math.cos of an
    # infinite r / lambda_D raise; a float radius gives the array's inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(evaluate(np.array([r]), p)[0])
    assert not math.isfinite(expected)
    assert repr(evaluate(r, p)) == repr(expected)


def test_quadrature_degenerate_dressing():
    p = ModelParams(lambda_d=3.0, alpha0=0.0)
    for n in (8, 64, 128):
        assert v0_quadrature(1.5, p, n) == pytest.approx(dressed_pair_eval(1.5, p), rel=1e-15)


def test_quadrature_close_to_endpoint_form_at_small_alpha0():
    p = ModelParams(lambda_d=100.0, alpha0=0.001)
    q = v0_quadrature(2.0, p)
    d = dressed_pair_eval(2.0, p)
    assert abs(q - d) / abs(d) < 1e-6


def test_quadrature_self_convergence():
    for lam, a0, r in ((100.0, 0.001, 2.0), (2.0, 0.002, 0.5), (20.0, 0.02, 0.25)):
        p = ModelParams(lambda_d=lam, alpha0=a0)
        v64 = v0_quadrature(r, p, 64)
        v128 = v0_quadrature(r, p, 128)
        assert abs(v128 - v64) < 1e-10 * abs(v64)


def test_quadrature_domain_errors():
    p = ModelParams(lambda_d=10.0, alpha0=0.5)
    with pytest.raises(ValueError, match="r > alpha0"):
        v0_quadrature(0.4, p)
    with pytest.raises(ValueError, match="n_nodes"):
        v0_quadrature(2.0, p, n_nodes=4)
    # a node count must be an integer, or 8.5 would sum nine terms of an 8.5-node rule
    for n_nodes in (8.5, 64.0, np.float64(64.0), "64"):
        with pytest.raises(ValueError, match=re.escape(f"integer >= 8, got {n_nodes!r}")):
            v0_quadrature(1.0, p, n_nodes)
    assert v0_quadrature(1.0, p, np.int64(64)) == v0_quadrature(1.0, p, 64)


def _rule(r, p, n):
    """The n-node Chebyshev-Gauss cycle average, summed as `v0_quadrature` sums it."""
    a, lam, dressed = p.coulomb_strength, p.lambda_d, potential._dressed
    return sum(dressed(r, a, lam, p.alpha0 * math.cos((2.0 * k - 1.0) * math.pi / (2.0 * n)))
               for k in range(1, n + 1)) / n


def _needed(r, alpha0):
    """The fewest nodes whose relative error 2 exp(-2 N acosh(r / alpha0)) is within 1e-12."""
    return math.ceil(math.log(2e12) / (2.0 * math.acosh(r / alpha0)))


@pytest.mark.parametrize("lambda_d, alpha0", [(5.0, 0.5), (100.0, 1e-3)])
def test_quadrature_lifts_a_node_count_short_of_its_tolerance(lambda_d, alpha0):
    # the N-node rule's relative error is 2 exp(-2 N acosh(r / alpha0)),
    # whatever lambda_D is; at r = 1.0002 alpha0, 64 nodes are off by 14%
    p = ModelParams(lambda_d=lambda_d, alpha0=alpha0)
    r = 1.0002 * alpha0
    error = abs(_rule(r, p, 709) / v0_quadrature(r, p, 40000) - 1.0)
    assert 0.5 < error / (2.0 * math.exp(-2.0 * 709 * math.acosh(r / alpha0))) < 2.0
    assert error < 1e-12
    # so any count below 709 runs on 709 nodes; in an array the smallest radius decides
    for n in (8, 64, 708, 709):
        assert v0_quadrature(r, p, n) == _rule(r, p, 709)
    assert v0_quadrature(r, p, 710) == _rule(r, p, 710)
    assert v0_quadrature(np.array([2.0 * alpha0, r]), p)[1] == _rule(r, p, 709)
    # 64 nodes meet the tolerance from r = 1.02459 alpha0 on
    assert v0_quadrature(1.0246 * alpha0, p) == _rule(1.0246 * alpha0, p, 64)
    assert v0_quadrature(1.0245 * alpha0, p) == _rule(1.0245 * alpha0, p, 65)
    # 2**14 nodes serve down to about r = 1.0000004 alpha0; a radius below it is refused
    # unless the count given meets the tolerance there
    assert _needed(1.0000004 * alpha0, alpha0) <= 2**14
    r = 1.0000003 * alpha0
    message = (f"cycle average at r = {r:.10g}, 1.0000003 alpha0 needs 18284 nodes "
               "to meet 1e-12, past the cap of 16384")
    for radii in (r, np.array([2.0 * alpha0, r])):
        for n in (64, 18283):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                v0_quadrature(radii, p, n)
    assert v0_quadrature(r, p, 18284) == _rule(r, p, 18284)


def test_quadrature_keeps_the_bits_of_every_count_that_meets_its_tolerance():
    # a count n that meets 1e-12 runs as given, and a count short of it runs on the
    # fewest nodes that meet it: the n-node value wherever the count used to be taken
    rng = random.Random(39)
    for _ in range(200):
        alpha0 = 10.0 ** rng.uniform(-4.0, 0.0)
        p = ModelParams(lambda_d=10.0 ** rng.uniform(0.0, 2.0), alpha0=alpha0)
        r = alpha0 * (1.0 + 10.0 ** rng.uniform(-3.5, 1.0))
        n = rng.randrange(8, 800)
        assert v0_quadrature(r, p, n) == _rule(r, p, max(n, _needed(r, alpha0))), (r, p, n)


def test_endpoint_error_envelope():
    # The endpoint approximation of the cycle average carries a relative
    # error of about (alpha0/r)^2 / 2; document the measured envelope at
    # the small-r corner and the decay well away from it.
    p = ModelParams(lambda_d=20.0, alpha0=0.002)
    r_corner = 10.0 * p.alpha0
    rel_corner = abs(v0_quadrature(r_corner, p) - dressed_pair_eval(r_corner, p)) / abs(
        dressed_pair_eval(r_corner, p)
    )
    assert 2e-3 < rel_corner < 1.3e-2
    r_far = 1000.0 * p.alpha0
    rel_far = abs(v0_quadrature(r_far, p) - dressed_pair_eval(r_far, p)) / abs(
        dressed_pair_eval(r_far, p)
    )
    assert rel_far < 1e-6


def test_coefficients_undressed_case():
    c = taylor_coefficients(ModelParams(lambda_d=100.0))
    assert c.c_m1 == -2.0
    assert c.c0 == pytest.approx(0.02, rel=1e-14)
    assert c.c1 == 0.0
    assert c.c2 == pytest.approx(-2.0 / 3.0e6, rel=1e-14)
    assert c.c3 == pytest.approx(1.0 / 3.0e8, rel=1e-14)


def test_coefficients_pole_strength_always_minus_two_a():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = ModelParams(
            lambda_d=rng.uniform(0.5, 300.0),
            alpha0=rng.uniform(0.0, 0.5),
            field=rng.uniform(0.0, 2.0),
            z=rng.integers(1, 6),
        )
        assert taylor_coefficients(p).c_m1 == -2.0 * p.coulomb_strength


def test_coefficients_weak_dressing_linear_term():
    p = ModelParams(lambda_d=100.0, alpha0=1e-4, field=0.01)
    c = taylor_coefficients(p)
    expected = 0.01 + 1e-8 / 1e8 - 1e-24 / (180.0 * 1e16)
    assert c.c1 == pytest.approx(expected, rel=1e-15)


def test_coefficients_refuse_a_value_past_the_floats():
    # every input whose coefficients used to leave the floats (c3 = nan at
    # lambda_D = 1e-77, Z = 10; c_m1 = -inf at Z = 1e308; lambda_D**-4 at 1e-80,
    # lambda_D**-2 at 1e-300, (alpha0/lambda_D)**2 at alpha0/lambda_D = 1e200,
    # A = Z e**2 at e = 1e200) lies outside ModelParams' band, which refuses it
    # with one ValueError naming the parameter and its band
    for kwargs, message in [
        ({"lambda_d": 1e-77, "z": 10.0},
         f"lambda_d must lie in [0.001 a0, inf] = [0.0001, inf] {UNITS}; got 1e-77"),
        ({"lambda_d": 100.0, "z": 1e308}, "z must lie in [1, 1000], got 1e+308"),
        ({"lambda_d": 1e-80}, f"lambda_d must lie in [0.001 a0, inf] = [0.001, inf] {UNITS}; "
                              "got 1e-80"),
        ({"lambda_d": 1e-300}, f"lambda_d must lie in [0.001 a0, inf] = [0.001, inf] {UNITS}; "
                               "got 1e-300"),
        ({"lambda_d": 1.0, "alpha0": 1e200},
         f"alpha0 must lie in [0, 1000 a0] = [0, 1000] {UNITS}; got 1e+200"),
        ({"lambda_d": 1.0, "e_charge": 1e200}, "e_charge must lie in [0.001, 1000], got 1e+200"),
        ({"lambda_d": 1.0, "field": 1e300},
         f"field must lie in [0, 1000 E_h/a0] = [0, 1000] {UNITS}; got 1e+300"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelParams(**kwargs)
    # the band's edges lie in it, and every coefficient there is finite
    p = ModelParams(lambda_d=1e-3, alpha0=1e3, field=1e3)
    assert all(map(math.isfinite, vars(taylor_coefficients(p)).values()))


def test_series_eval_is_cubic_plus_pole():
    c = EffectiveCoefficients(c_m1=-2.0, c0=0.1, c1=0.2, c2=-0.05, c3=0.003)
    r = np.linspace(0.4, 3.4, 16)
    residual = veff_series_eval(r, c) - c.c_m1 / r
    # a cubic has vanishing fourth differences and affine second differences
    assert np.max(np.abs(np.diff(residual, 4))) < 1e-12
    second = np.diff(residual, 2)
    x = r[1:-1]
    slope, intercept = np.polyfit(x, second, 1)
    assert np.max(np.abs(second - (slope * x + intercept))) < 1e-12
    with pytest.raises(ValueError):
        veff_series_eval(0.0, c)


def test_series_matches_exact_inside_validity_window():
    for a0 in (1e-4, 1e-3):
        p = ModelParams(lambda_d=100.0, alpha0=a0, field=0.1)
        c = taylor_coefficients(p)
        for r in (1.5, 2.0, 3.0):
            exact = dressed_pair_eval(r, p) + p.field * r
            series = veff_series_eval(r, c)
            assert abs(series - exact) < 1e-6 * abs(exact)


def test_series_breaks_down_outside_validity_window():
    p = ModelParams(lambda_d=1.0, alpha0=1e-3)
    c = taylor_coefficients(p)
    exact = dressed_pair_eval(10.0, p)
    series = veff_series_eval(10.0, c)
    assert abs(series - exact) > 100.0 * abs(exact)


def _series_points():
    """(lambda_D, alpha0/lambda_D) pairs: 60 seeded draws with lambda_D in
    [0.5, 400] and the ratio in [1e-6, 1], plus lambda_D = 1e26 and 1e300,
    past 4.87e25, where a lambda_D^12 would overflow, at alpha0 = 0, 1 and
    100; every alpha0 lies inside the band's 1000 a0 at Z <= 2."""
    rng = random.Random(36)
    draws = [(math.exp(rng.uniform(math.log(0.5), math.log(400.0))),
              math.exp(rng.uniform(math.log(1e-6), 0.0))) for _ in range(60)]
    return draws + [(lam, alpha0 / lam) for lam in (1e26, 1e300) for alpha0 in (0.0, 1.0, 100.0)]


def test_coefficients_equal_the_exact_series():
    # c0..c3 against the exact series of their own float inputs, through
    # alpha0^8 as in the kernel; Fraction(got) - want, since got - want
    # would round to a float first.  Where the exact value lies below the
    # floats (c1 at F = 0, c2 and c3 at lambda_D = 1e300), got is the float it
    # rounds to.
    checked = 0
    for lam, ratio in _series_points():
        for z, field in itertools.product((1.0, 2.0), (0.0, 0.01)):
            p = ModelParams(lambda_d=lam, alpha0=ratio * lam, field=field, z=z)
            c = taylor_coefficients(p)
            for k, got in enumerate((c.c0, c.c1, c.c2, c.c3)):
                want = exact_coefficient(k, p.coulomb_strength, p.lambda_d, p.alpha0, p.field)
                assert abs(Fraction(got) - want) <= 1e-15 * abs(want) or got == float(want)
            checked += 1
    assert checked >= 200
    # at lambda_D = inf every field-free part is +0.0, and c1 is the field
    for field, alpha0 in itertools.product((0.0, 0.01), (0.0, 1e-3, 5.0)):
        c = taylor_coefficients(ModelParams(lambda_d=math.inf, alpha0=alpha0, field=field))
        assert (c.c0, c.c1, c.c2, c.c3) == (0.0, field, 0.0, 0.0)
        assert [math.copysign(1.0, v) for v in (c.c0, c.c1, c.c2, c.c3)] == [1.0] * 4


def test_exact_series_sums_to_the_pole_free_potential():
    # the table through r^14 and alpha0^16 against the dressed potential
    # with both poles removed, g(r + alpha0) + g(r - alpha0) + F r with
    # g(x) = -A (exp(-x/lambda_D) cos(x/lambda_D) - 1) / x
    assert [coef for _, _, coef in series_terms(4)] == [
        Fraction(-1, 98280), Fraction(-1, 2970), Fraction(1, 162), Fraction(1, 21),
        Fraction(-1, 15)]
    for lam, alpha0, field in ((100.0, 1e-3, 0.0), (100.0, 1e-3, 0.01), (5.0, 1e-2, 0.01),
                               (20.0, 0.1, 0.04), (2.0, 1e-4, 0.0)):
        coeffs = [exact_coefficient(k, 1.0, lam, alpha0, field, j_max=16) for k in range(15)]
        potential = pole_free(1.0, lam, alpha0, field)
        for r in (0.01 * lam, 0.03 * lam, 0.1 * lam):
            exact = float(potential(np.array(r))) + 2.0 / r
            series = float(sum(c * Fraction(r) ** k for k, c in enumerate(coeffs)))
            assert abs(series - exact) <= 1e-13 * abs(exact)
        # g switches to its own series below |x/lambda_D| = 1e-3, continuously
        r = alpha0 + lam * 1e-3 * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12])
        v = potential(r) + 2.0 / r
        assert np.ptp(v) <= 1e-12 * abs(v[1])
