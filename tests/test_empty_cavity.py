import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omrouter import (InvalidParameterError, NumericalFailureError,
                      empty_reflectance, empty_transmittance,
                      lorentzian_band_mass, lorentzian_input)
from omrouter.empty_cavity import _lorentzian_band_integrals
from oracles import KAPPA, WM, band_integrals


def test_energy_conservation_everywhere():
    rng = np.random.default_rng(20260814)
    omega = WM + rng.uniform(-20.0, 20.0, size=10_000) * KAPPA
    total = (empty_reflectance(omega, WM, KAPPA)
             + empty_transmittance(omega, WM, KAPPA))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_resonance_values_exact():
    assert empty_transmittance(WM, WM, KAPPA) == 1.0
    assert empty_reflectance(WM, WM, KAPPA) == 0.0


def test_half_width_is_twice_kappa():
    for s in (-1.0, 1.0):
        assert empty_transmittance(WM + s * 2.0 * KAPPA, WM, KAPPA) == \
            pytest.approx(0.5, rel=1e-12)
        assert empty_reflectance(WM + s * 2.0 * KAPPA, WM, KAPPA) == \
            pytest.approx(0.5, rel=1e-12)


# squares of these offsets and widths underflow or overflow, and R and T
# once formed them: 0/0 or inf/inf, NaN with a RuntimeWarning; in the last
# two the offset or 2*kappa itself is past the float range
_SQUARES_PAST_RANGE = [
    (empty_reflectance, (1e200, 0.0, 1.0), 1.0),
    (empty_reflectance, (WM, WM, 5e-324), 0.0),
    (empty_transmittance, (1e-200, 0.0, 1e-170), 1.0),
    (empty_transmittance, (0.0, 0.0, 3.8e166), 1.0),
    (empty_reflectance, (1e308, -1e308, 1.0), 1.0),
    (empty_transmittance, (0.0, 0.0, 1e308), 1.0)]


@pytest.mark.parametrize("function, args, want", _SQUARES_PAST_RANGE)
def test_squares_past_the_float_range_keep_their_ratio(function, args, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert function(*args) == want


_LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@settings(deadline=None)
@given(d=st.one_of(st.just(0.0), _LOG_UNIFORM, _LOG_UNIFORM.map(lambda x: -x)),
       kappa=_LOG_UNIFORM)
@example(d=1e200, kappa=1.0)
@example(d=0.0, kappa=5e-324)
@example(d=1e-200, kappa=1e-170)
@example(d=0.0, kappa=3.8e166)
def test_reflectance_and_transmittance_sum_to_one(d, kappa):
    # R + T = 1 within a few ulp over the float range, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = empty_reflectance(d, 0.0, kappa)
        t = empty_transmittance(d, 0.0, kappa)
    assert 0.0 <= r <= 1.0 and 0.0 <= t <= 1.0
    assert abs(r + t - 1.0) <= 4 * 2.0 ** -53


def test_far_detuned_fully_reflective():
    for s in (-1.0, 1.0):
        r = empty_reflectance(WM + s * 1e6 * KAPPA, WM, KAPPA)
        assert 1.0 - r < 1e-10


def test_symmetry_about_resonance():
    d = np.linspace(0.1, 40.0, 400) * KAPPA
    np.testing.assert_allclose(empty_reflectance(WM + d, WM, KAPPA),
                               empty_reflectance(WM - d, WM, KAPPA),
                               rtol=1e-12)


def test_line_peak_density():
    gamma = 0.01 * WM
    assert lorentzian_input(WM, WM, gamma) == \
        pytest.approx(1.0 / (math.pi * gamma), rel=1e-12)


def test_line_half_maximum_at_one_bandwidth():
    gamma = 0.01 * WM
    peak = lorentzian_input(WM, WM, gamma)
    for s in (-1.0, 1.0):
        assert lorentzian_input(WM + s * gamma, WM, gamma) == \
            pytest.approx(peak / 2.0, rel=1e-12)


def test_line_mass_heavy_tails():
    gamma = 0.01 * WM
    mass = lorentzian_band_mass(WM - 50.0 * gamma, WM + 50.0 * gamma, WM, gamma)
    # 50 half-widths capture most of the line, but the tails keep ~1.3%
    assert abs(mass - 1.0) < 2e-2
    assert mass == pytest.approx((2.0 / math.pi) * math.atan(50.0), rel=1e-12)


def test_line_mass_matches_numeric_integral():
    gamma = 0.01 * WM
    grid = np.linspace(WM - 50.0 * gamma, WM + 50.0 * gamma, 2_000_001)
    line = lorentzian_input(grid, WM, gamma)
    # the trapezoid rule written out: np.trapezoid needs numpy 2
    numeric = 0.5 * np.sum(np.diff(grid) * (line[1:] + line[:-1]))
    closed = lorentzian_band_mass(grid[0], grid[-1], WM, gamma)
    assert numeric == pytest.approx(closed, rel=1e-6)


@pytest.mark.parametrize("offset, gamma", [
    (1e-300, 1e-310), (0.0, 1e-170), (1e-160, 1e-170), (0.0, 1e200),
    (1e200, 1e100), (1e300, 1e300), (-1.7e308, 1e-300)])
def test_line_density_over_the_float_range(offset, gamma):
    # the squares of these offsets and widths underflow or overflow, and
    # the density once gave inf, NaN or 0 for a finite, nonzero value
    with mpmath.workdps(40):
        x, g = mpmath.mpf(offset), mpmath.mpf(gamma)
        want = float(g / mpmath.pi / (x * x + g * g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lorentzian_input(offset, 0.0, gamma)
    assert got == pytest.approx(want, rel=4 * 2.0 ** -52, abs=0.0)


def test_line_density_past_the_float_range_refused():
    # 1/(pi*Gamma) at the center of a line of 5e-324 is past the float
    # range: once NaN, from 0/0
    with pytest.raises(NumericalFailureError):
        lorentzian_input(WM, WM, 5e-324)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), "a", None])
def test_nonpositive_bandwidth_rejected(bad):
    with pytest.raises(InvalidParameterError):
        lorentzian_input(WM, WM, bad)
    with pytest.raises(InvalidParameterError):
        lorentzian_band_mass(0.5 * WM, 1.5 * WM, WM, bad)


# ------------------------------------- the line's overlaps with the cavity

def _assert_closed_form_matches(cases):
    for gamma, width, offset in cases:
        args = (0.5 * WM, 1.5 * WM, WM + offset * WM, gamma * WM, WM,
                0.5 * width * WM)
        got = _lorentzian_band_integrals(*args)
        exact = band_integrals(*args)
        for name, value, ref in zip(("mass", "refl", "trans"), got, exact):
            assert value == pytest.approx(ref, rel=1e-13, abs=0.0), \
                (name, gamma, width, offset)


# line half-widths Gamma and cavity half-widths W = 2*kappa, per omega_m
_GAMMAS = (1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.45)
_WIDTHS = (1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.2)


@pytest.mark.parametrize("offset", [0.0, 0.01, -0.01, -0.05, 0.2, -0.3])
def test_closed_form_against_mpmath(offset):
    # the line sits offset*omega_m from the cavity resonance
    _assert_closed_form_matches(
        (gamma, width, offset)
        for gamma, width in itertools.product(_GAMMAS, _WIDTHS))


@pytest.mark.parametrize("offset", [0.0, 1e-9])
def test_closed_form_where_the_poles_meet(offset):
    # Gamma = 2*kappa on resonance makes the two upper poles one double
    # pole; the divided difference must hold there and around it
    _assert_closed_form_matches(
        (width * (1.0 + sign * eps), width, offset)
        for width in _WIDTHS
        for eps in (0.0, 1e-16, 1e-13, 1e-10, 1e-7, 1e-5, 1e-3)
        for sign in (1.0, -1.0))


@pytest.mark.parametrize("edge", [0.5, -0.5])
def test_closed_form_with_the_line_at_a_band_edge(edge):
    # the core just inside the band: the logarithm's ratio at that edge,
    # (edge - line)/(edge - cavity), is near 0, where log(1 + w) formed
    # from the rounded 1 + w would lose its relative accuracy
    _assert_closed_form_matches(
        (gamma, width, edge - math.copysign(1.001 * gamma, edge))
        for gamma in (1e-12, 1e-9, 1e-6, 1e-3)
        for width in _WIDTHS)


@pytest.mark.parametrize("gamma, width", [
    (0.01, 2e12), (0.01, 2e3), (0.01, 2e-160), (0.01, 2e-300),
    (1e-160, 0.2), (1e-300, 0.2), (1e-300, 2e3)])
def test_closed_form_far_outside_the_resolved_sidebands(gamma, width):
    # a cavity far wider than the band, where G(z) is the logarithm of a
    # ratio near 1, or one so narrow that W^2 alone would be subnormal
    _assert_closed_form_matches([(gamma, width, 0.0), (gamma, width, 0.2)])
