import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omrouter import (InvalidParameterError, NumericalFailureError,
                      UnstableOperatingPointError, assess_stability,
                      default_params, derive_operating_point, eit_linewidth,
                      lorentzian_band_mass, reflection_R, routing,
                      routing_probabilities, switching_contrast,
                      thermal_noise, transmission_T, vacuum_noise)
from omrouter import kernels, stability
from omrouter.operating_point import HBAR, KB
from oracles import (BANDWIDTHS, COLD_BATHS, DETUNINGS, EXCEPTIONAL_POWER,
                     POWERS, TEMPS, WM, band_integrals, band_sum,
                     bright_points, drive_on_report, hierarchy_draw,
                     static_bound_draw)

import omrouter

# a bath at which hbar*omega/(kB*T) passes 0.01 on the default band, so
# that St's integral takes the 16-node Gauss-Legendre rule
_SUB_MK_BATH = 0.5e-3


def _op(**overrides):
    return derive_operating_point(replace(default_params(), **overrides))


def test_on_state_frozen_report(op_5uw):
    rep = routing_probabilities(op_5uw)
    assert rep.p_reflect == pytest.approx(0.8364986642145136, rel=1e-6)
    assert rep.p_transmit == pytest.approx(0.18097315449791132, rel=1e-6)
    assert rep.vacuum_leak == pytest.approx(0.0030821363917223924, rel=1e-6)
    assert rep.thermal_leak == pytest.approx(0.009078437114529265, rel=1e-6)
    assert rep.band == (0.5 * WM, 1.5 * WM)


def test_on_state_against_independent_quadrature(op_5uw):
    # same numbers from a trapezoid rule on a million-point grid, run
    # before this module existed
    rep = routing_probabilities(op_5uw)
    assert rep.p_reflect == pytest.approx(0.83650, rel=1e-3)
    assert rep.p_transmit == pytest.approx(0.18097, rel=1e-3)


def test_off_state_routes_everything_forward(op_off):
    rep = routing_probabilities(op_off)
    assert rep.p_reflect == pytest.approx(0.03596658407449643, rel=1e-6)
    assert rep.p_transmit == pytest.approx(0.9640334159255036, rel=1e-6)
    assert rep.p_reflect + rep.p_transmit == pytest.approx(1.0, abs=1e-9)
    assert rep.vacuum_leak == 0.0
    assert rep.thermal_leak == 0.0


def test_probabilities_never_clamped_but_bounded(op_5uw, op_20uw):
    # R can exceed 1 pointwise, so the sum may poke above 1 by order
    # (kappa/omega_m)^2; anything beyond that is a bug
    for op in (op_5uw, op_20uw):
        rep = routing_probabilities(op)
        assert 0.0 < rep.p_reflect <= 1.0 + 2 * 0.05
        assert 0.0 < rep.p_transmit <= 1.0 + 2 * 0.05
        assert rep.p_reflect + rep.p_transmit <= 1.0 + 2 * 0.05


def test_leaks_at_stronger_drive(op_20uw):
    rep = routing_probabilities(op_20uw)
    assert rep.vacuum_leak == pytest.approx(0.013520, rel=1e-3)
    assert rep.thermal_leak == pytest.approx(0.009425, rel=1e-3)
    hot = routing_probabilities(_op(drive_power=20e-6, bath_temp=200e-3))
    assert hot.thermal_leak == pytest.approx(0.094265, rel=1e-3)


def test_thermal_leak_vanishes_cold_and_grows_with_temperature():
    assert routing_probabilities(_op(bath_temp=0.0)).thermal_leak == 0.0
    leaks = [routing_probabilities(_op(bath_temp=t)).thermal_leak
             for t in (20e-3, 100e-3, 200e-3)]
    assert leaks[0] < leaks[1] < leaks[2]
    assert leaks[2] == pytest.approx(0.090797, rel=1e-3)


def test_contrast_is_the_worse_port(op_5uw, op_off):
    c = switching_contrast(default_params(), 5e-6)
    on = routing_probabilities(op_5uw)
    off = routing_probabilities(op_off)
    assert c == min(off.p_transmit, on.p_reflect)
    assert c == pytest.approx(0.8364986642145136, rel=1e-6)


def test_contrast_degenerate_at_zero_power(op_off):
    c = switching_contrast(default_params(), 0.0)
    rep = routing_probabilities(op_off)
    assert c == min(rep.p_transmit, rep.p_reflect)
    assert c == pytest.approx(rep.p_reflect, rel=1e-12)
    assert c < 0.05


def test_narrow_line_routes_cleanly():
    params = replace(default_params(), input_bandwidth=0.001 * WM)
    c = switching_contrast(params, 5e-6)
    assert c == pytest.approx(0.9895112711561973, rel=1e-6)
    assert c > 0.9


def test_narrow_line_probability_stays_below_one():
    rep = routing_probabilities(_op(input_bandwidth=0.0005 * WM))
    assert rep.p_reflect == pytest.approx(0.9996464017378133, rel=1e-6)
    assert rep.p_reflect < 1.0


def test_contrast_monotone_in_line_width():
    widths = (0.001, 0.005, 0.01, 0.02, 0.05, 0.1)
    vals = [switching_contrast(
        replace(default_params(), input_bandwidth=f * WM), 5e-6)
        for f in widths]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[1] == pytest.approx(0.91508, rel=1e-3)
    assert vals[3] == pytest.approx(0.71624, rel=1e-3)
    assert vals[5] == pytest.approx(0.43366, rel=1e-3)


def test_line_wider_than_the_window_fails_to_route(op_5uw):
    gamma = 10.0 * eit_linewidth(op_5uw)
    rep = routing_probabilities(_op(input_bandwidth=gamma))
    assert rep.p_reflect == pytest.approx(0.4838907918618974, rel=1e-6)
    assert rep.p_reflect < 0.5


def test_band_must_cover_the_line(op_5uw):
    lo = op_5uw.input_center + 2.0 * op_5uw.input_bandwidth
    with pytest.raises(InvalidParameterError, match="line core"):
        routing_probabilities(op_5uw, band=(lo, 1.5 * WM))


@pytest.mark.parametrize("band", [
    (1.5 * WM, 0.5 * WM),
    (-0.5 * WM, 1.5 * WM),
    (0.0, 1.5 * WM),
    (0.5 * WM, float("nan")),
    # not a pair of numbers: refused, not indexed into
    (0.5 * WM,),
    (0.5 * WM, 1.5 * WM, 2.0 * WM),
    "ab",
    5.0,
    # an int past the float range: refused, not an OverflowError
    (10 ** 400, 2),
    # a bool and strings are not numbers: they were read as 1 rad/s and
    # parsed
    (True, 2.0 * WM),
    ("1e5", "2e6"),
])
def test_bad_bands_rejected(op_5uw, band):
    with pytest.raises(InvalidParameterError):
        routing_probabilities(op_5uw, band=band)


def test_negative_switch_power_rejected():
    # and every other p_on that is not a finite real >= 0: an int past the
    # float range and a string raised OverflowError and TypeError
    for p_on in (-1e-6, 10 ** 400, "1e-6", math.nan, math.inf, True):
        with pytest.raises(InvalidParameterError, match="p_on"):
            switching_contrast(default_params(), p_on)


def test_switch_checks_the_band_before_the_stability_verdict():
    # blue of the cavity every drive of a microwatt is unstable; a band
    # that misses the line core is still refused as such, as it was when
    # the drive-off report came first
    params = replace(default_params(), eff_detuning=-WM, input_center=WM)
    with pytest.raises(UnstableOperatingPointError):
        switching_contrast(params, 5e-6)
    with pytest.raises(InvalidParameterError, match="line core"):
        switching_contrast(params, 5e-6, band=(1.2 * WM, 1.5 * WM))


def test_switch_derives_one_operating_point(monkeypatch):
    # the drive-off report reads only the cavity and the line, so both
    # reports come from the one point derived at p_on
    calls = []

    def counted(params):
        calls.append(params.drive_power)
        return derive_operating_point(params)

    monkeypatch.setattr(routing, "derive_operating_point", counted)
    params = default_params()
    contrast = switching_contrast(params, 5e-6)
    assert calls == [5e-6]
    off = routing_probabilities(derive_operating_point(
        replace(params, drive_power=0.0)))
    on = routing_probabilities(derive_operating_point(params))
    assert contrast == min(off.p_transmit, on.p_reflect)


# ------------------------------------------------ the band integrator itself

def _default_band(op):
    return 0.5 * op.mech_freq, 1.5 * op.mech_freq


def _line_poles(op):
    center, gamma = op.input_center, op.input_bandwidth
    return [center + 1j * gamma, center - 1j * gamma]


def _two_lorentzian_band_integral(lo, hi, center, gamma, delta, width):
    """int_lo^hi (gamma/pi)/((w-center)^2+gamma^2)
                 * width^2/((w-delta)^2+width^2) dw, exactly."""
    poles = (center + 1j * gamma, center - 1j * gamma,
             delta + 1j * width, delta - 1j * width)
    return gamma / math.pi * width * width * band_sum(
        lambda p: 1.0, poles, lo, hi)


@pytest.mark.parametrize("width", [0.001, 0.05])
def test_drive_off_transmission_against_residues(width):
    # drive off, T = 4kappa^2/(4kappa^2 + (w - Delta)^2): the transmitted
    # share of the line is a band integral of two Lorentzians
    op = _op(drive_power=0.0, input_bandwidth=width * WM)
    lo, hi = _default_band(op)
    rep = routing_probabilities(op)
    mass = lorentzian_band_mass(lo, hi, op.input_center, op.input_bandwidth)
    exact = _two_lorentzian_band_integral(
        lo, hi, op.input_center, op.input_bandwidth, op.eff_detuning,
        2.0 * op.cavity_decay)
    assert rep.p_transmit * mass == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("width", [1e-4, 1e-6, 1e-9])
def test_drive_off_reflection_of_narrow_lines_against_residues(width):
    # drive off, R = (w - Delta)^2/(4kappa^2 + (w - Delta)^2).  At
    # 1e-9*omega_m an ulp of omega_m is 1.4e-7 of the line's width: nodes
    # rounded to the absolute axis put p_reflect off by 2.4e-8 there, under
    # a reported error of 7.6e-11
    op = _op(drive_power=0.0, input_bandwidth=width * WM)
    lo, hi = _default_band(op)
    delta, kappa2 = op.eff_detuning, 2.0 * op.cavity_decay
    poles = _line_poles(op) + [delta + 1j * kappa2, delta - 1j * kappa2]
    refl = op.input_bandwidth / math.pi * band_sum(
        lambda p: (p - delta) ** 2, poles, lo, hi)
    mass = lorentzian_band_mass(lo, hi, op.input_center, op.input_bandwidth)
    rep = routing_probabilities(op)
    assert rep.p_reflect == pytest.approx(refl / mass, rel=1e-10, abs=0.0)


def _poly_roots(coeffs, scale):
    """Roots of a polynomial (highest power first) with scale-sized roots,
    found on the rescaled axis and polished by two Newton steps there."""
    scaled = np.asarray(coeffs) * scale ** np.arange(len(coeffs) - 1, -1, -1)
    deriv = np.polyder(scaled)
    roots = np.roots(scaled)
    for _ in range(2):
        roots = roots - np.polyval(scaled, roots) / np.polyval(deriv, roots)
    return list(roots * scale)


@pytest.mark.parametrize("power, width", [
    (5e-6, 0.01), (20e-6, 0.001), (1e-6, 0.02)])
def test_drive_on_band_integrals_against_residues(power, width):
    # drive on, R, T and Sv are rational in omega over d*conj(d), whose
    # poles are the four zeros of d and their conjugates; Scin adds
    # center +- i*Gamma.  St is not rational (the Bose factor).
    op = _op(drive_power=power, input_bandwidth=width * WM)
    lo, hi = _default_band(op)
    kappa, delta, m = op.cavity_decay, op.eff_detuning, op.eff_mass
    mech = m * np.array([-1.0, -1j * op.gamma_m, op.mech_freq ** 2])
    cav = np.array([-1.0, -4j * kappa, 4.0 * kappa ** 2 + delta ** 2])
    d = np.polymul(mech, cav)
    d[-1] -= kernels.drive_term(op)
    side = np.array([-1j, 2.0 * kappa - 1j * delta])
    e_num = 2.0 * kappa * np.polyadd(np.polymul(mech, side),
                                     [1j * HBAR * kernels.coupling(op)])
    r_num = np.polysub(e_num, d)
    zeros = _poly_roots(d, op.mech_freq)
    assert all(z.imag < 0.0 for z in zeros)
    noise_poles = zeros + [z.conjugate() for z in zeros]
    # d's leading coefficient is m, so |d|^2 = m^2 prod(w - p)

    def abs2(num):
        return lambda p: (np.polyval(num, p)
                          * np.polyval(np.conj(num), p) / (m * m))

    scale = op.input_bandwidth / math.pi
    mass = lorentzian_band_mass(lo, hi, op.input_center, op.input_bandwidth)
    poles = noise_poles + _line_poles(op)
    rep = routing_probabilities(op)
    assert rep.p_reflect * mass == pytest.approx(
        scale * band_sum(abs2(r_num), poles, lo, hi), rel=1e-10, abs=0.0)
    assert rep.p_transmit * mass == pytest.approx(
        scale * band_sum(abs2(e_num), poles, lo, hi), rel=1e-10, abs=0.0)
    sv = band_sum(lambda p: kernels.sv_numerator(op) / (m * m),
                  noise_poles, lo, hi)
    assert rep.vacuum_leak * op.mech_freq == pytest.approx(sv, rel=1e-10,
                                                           abs=0.0)


@pytest.mark.parametrize("power", [0.0, 5e-6, 20e-6])
@pytest.mark.parametrize("width", [0.0005, 0.01, 0.1])
def test_integrated_line_mass_is_exact(power, width):
    # the mass every report is normalized by, against a 30-digit quadrature
    # of the line, graded toward its center
    op = _op(drive_power=power, input_bandwidth=width * WM)
    lo, hi = _default_band(op)
    center, gamma = op.input_center, op.input_bandwidth
    with mpmath.workdps(30):
        c, g = mpmath.mpf(center), mpmath.mpf(gamma)
        pts = [mpmath.mpf(lo)] + [c + s * g * 4 ** k for s in (-1, 1)
                                  for k in range(-2, 8)
                                  if lo < center + s * gamma * 4 ** k < hi] \
            + [c, mpmath.mpf(hi)]
        exact = mpmath.quad(lambda w: g / mpmath.pi / ((w - c) ** 2 + g * g),
                            sorted(pts))
    assert lorentzian_band_mass(lo, hi, center, gamma) == pytest.approx(
        float(exact), rel=1e-12, abs=0.0)


_CENTRED_LINES = ((5e-6, 20e-3, 0.01), (1e-6, 20e-3, 0.001),
                  (20e-6, 50e-3, 0.02))


@pytest.mark.parametrize("power, temp, width, center", [
    *(pytest.param(p, t, w, 1.0, id=f"{p}-{t}-{w}")
      for p, t, w in _CENTRED_LINES),
    # off-centre lines, with the window at omega_m apart from the line
    *((p, 20e-3, 0.01, c) for p in (1e-6, 5e-6, 20e-6) for c in (0.95, 1.05))])
def test_against_tight_scalar_quadrature(power, temp, width, center):
    integrate = pytest.importorskip("scipy.integrate")
    op = _op(drive_power=power, bath_temp=temp, input_bandwidth=width * WM,
             input_center=center * WM)
    lo, hi = _default_band(op)
    center, gamma = op.input_center, op.input_bandwidth
    pts = sorted({p for p in (center - gamma, center, center + gamma,
                              op.mech_freq) if lo < p < hi})

    def band(f):
        val, _ = integrate.quad(f, lo, hi, points=pts, epsabs=0.0,
                                epsrel=1e-13, limit=5000)
        return val

    def scin(w):
        return (gamma / math.pi) / ((w - center) ** 2 + gamma ** 2)

    mass = lorentzian_band_mass(lo, hi, center, gamma)
    rep = routing_probabilities(op)
    assert rep.p_reflect == pytest.approx(
        band(lambda w: scin(w) * reflection_R(w, op)) / mass, rel=1e-10)
    assert rep.p_transmit == pytest.approx(
        band(lambda w: scin(w) * transmission_T(w, op)) / mass, rel=1e-10)
    assert rep.vacuum_leak == pytest.approx(
        band(lambda w: vacuum_noise(w, op)) / op.mech_freq, rel=1e-10)
    assert rep.thermal_leak == pytest.approx(
        band(lambda w: thermal_noise(w, op)) / op.mech_freq, rel=1e-10)


# drive off, inside gamma_m << kappa << omega_m, cavities down to
# 3e-5*omega_m and lines up to 0.2*omega_m off center; the line core stays
# inside the default band [0.5, 1.5]*omega_m
_dark_points = st.builds(
    lambda log_wm, log_kappa, log_gamma, detuning, log_width, center, temp:
        replace(default_params(),
                mech_freq=10 ** log_wm,
                cavity_decay=10 ** (log_wm + log_kappa),
                quality=10 ** -(log_kappa + log_gamma),
                eff_detuning=detuning * 10 ** log_wm,
                input_bandwidth=10 ** (log_wm + log_width),
                input_center=center * 10 ** log_wm,
                drive_power=0.0,
                bath_temp=temp),
    log_wm=st.floats(4.0, 7.0),
    log_kappa=st.floats(-4.5, -1.0),
    log_gamma=st.floats(-4.0, -1.0),
    detuning=st.floats(0.7, 1.3),
    log_width=st.floats(-3.5, -1.5),
    center=st.floats(0.8, 1.2),
    temp=st.floats(0.0, 0.3),
)


@settings(deadline=None, max_examples=50)
@given(params=_dark_points)
def test_drive_off_probabilities_sum_to_one(params):
    rep = routing_probabilities(derive_operating_point(params))
    assert math.isclose(rep.p_reflect + rep.p_transmit, 1.0,
                        rel_tol=0.0, abs_tol=1e-12)


@settings(deadline=None, max_examples=50)
@given(params=_dark_points)
def test_drive_off_closed_form_against_quadrature(params):
    # the drive-off report comes from the empty cavity's closed form; its
    # 50-digit residues (oracles.band_integrals) are the reference
    op = derive_operating_point(params)
    rep = routing_probabilities(op)
    mass, refl, trans = band_integrals(
        *rep.band, op.input_center, op.input_bandwidth, op.eff_detuning,
        op.cavity_decay)
    assert rep.p_reflect == pytest.approx(refl / mass, rel=1e-10, abs=0.0)
    assert rep.p_transmit == pytest.approx(trans / mass, rel=1e-10, abs=0.0)
    assert rep.vacuum_leak == rep.thermal_leak == 0.0


def _no_grid(monkeypatch):
    """Make every evaluation of the channels on a grid fail."""
    def refused(*args):
        raise AssertionError("a report evaluated the channels on a grid")

    for name in ("fill_channels", "channel_arrays", "transmission"):
        monkeypatch.setattr(kernels, name, refused)


def test_drive_off_closed_form_runs_no_quadrature_pass(op_off, monkeypatch):
    # no report evaluates a channel on a grid: the drive-off one, the on
    # state of a switch at a bath below 1 mK, which sums Scin*R alone and
    # so takes no rule, and the report there, where St takes the 16-node
    # rule
    _no_grid(monkeypatch)
    rep = routing_probabilities(op_off)
    assert all(type(getattr(rep, name)) is float for name in
               ("p_reflect", "p_transmit", "vacuum_leak", "thermal_leak"))
    rules = []
    bose_rule = routing._bose_rule
    monkeypatch.setattr(routing, "_bose_rule",
                        lambda *args: rules.append(bose_rule(*args)) or
                        rules[-1])
    params = replace(default_params(), bath_temp=_SUB_MK_BATH)
    switching_contrast(params, 5e-6)
    assert rules == []
    routing_probabilities(derive_operating_point(params))
    assert [len(rule) for rule in rules] == [16]


def test_closed_form_logarithm_of_zero_raises(op_off):
    # a line 1e-300 rad/s wide at the band's lower edge and the cavity
    # 1e30 rad/s away: one ratio under a logarithm underflows to 0
    op = replace(op_off, eff_detuning=1e30, input_bandwidth=1e-300)
    center = op.input_center
    with pytest.raises(NumericalFailureError, match="failed"):
        routing_probabilities(op, band=(center, center + 1.0))


# a line 1e-240 rad/s wide at 1.03 omega_m from a cavity 1e-170 rad/s
# wide: the drive-off closed form's probabilities are not finite
_FAR_LINE = {"input_bandwidth": 1e-240, "cavity_decay": 1e-170,
             "eff_detuning": -1e-28, "input_center": 865880.0}
# a line 1e-283 rad/s wide on a cavity 1e57 rad/s wide: in units of the
# cavity's width the line's height underflows to 0, and a pole factor of
# the closed form divides by zero, drive on or off
_FLAT_LINE = {"input_bandwidth": 1e-283, "cavity_decay": 1e57}


@pytest.mark.filterwarnings("ignore::omrouter.RegimeWarning")
@pytest.mark.parametrize("line, power, message", [
    (_FAR_LINE, 0.0, "not finite"), (_FLAT_LINE, 0.0, "failed"),
    (_FLAT_LINE, 5e-6, "failed")], ids=["far", "flat-off", "flat-on"])
def test_closed_form_past_the_float_range_raises(line, power, message):
    # the flat line's drive-off report, and so the switch, ended in a bare
    # ZeroDivisionError; the drive-on residues refused it already
    params = replace(default_params(), drive_power=power, **line)
    with pytest.raises(NumericalFailureError, match=message):
        routing_probabilities(derive_operating_point(params))
    with pytest.raises(NumericalFailureError, match=message):
        switching_contrast(params, power)


@pytest.mark.filterwarnings("ignore::omrouter.RegimeWarning")
def test_resolvent_past_the_float_range_raises():
    # gamma_m = 6e76 omega_m: the resolvent cubic's terms overflow and its
    # root is NaN, which gave two zeros of D for four and an IndexError
    op = _op(eff_mass=6.9e67, quality=1.7e-77)
    with pytest.raises(NumericalFailureError, match="resolvent"):
        routing_probabilities(op)


def test_thermal_rule_past_its_node_cap_raises():
    # at 2.5 nK (hbar*omega_m/(kB*T) = 2,572) B underflows on the default
    # band and St takes no rule; on a band from 600/theta omega_m, where B
    # is e^-600, the rule would need 2,048 nodes
    op = _op(bath_temp=2.5e-9)
    theta = kernels.reduced(op)[5]
    with pytest.raises(NumericalFailureError, match="1024 nodes"):
        routing_probabilities(op, band=(600.0 / theta * WM, 1.5 * WM))


@pytest.mark.filterwarnings("ignore::omrouter.RegimeWarning")
def test_non_finite_closed_form_raises():
    # line and cavity both 1e-300*omega_m wide: the products of three
    # inverse widths in the pole factors overflowed and raised, until the
    # u axis was measured in units of a power of two near the widths
    op = _op(drive_power=0.0, input_bandwidth=1e-300 * WM,
             cavity_decay=5e-301 * WM)
    rep = routing_probabilities(op)
    assert math.isclose(rep.p_reflect + rep.p_transmit, 1.0,
                        rel_tol=0.0, abs_tol=1e-12)


# the benchmark's routing pool: no report, drive on or off, at any bath
# temperature of the pool, evaluates a channel on a grid
@pytest.mark.parametrize("power", [0.0, *POWERS])
def test_pool_reports_take_at_most_two_passes(power, monkeypatch):
    _no_grid(monkeypatch)
    for temp in TEMPS:
        for width in BANDWIDTHS:
            rep = routing_probabilities(_op(drive_power=power, bath_temp=temp,
                                            input_bandwidth=width * WM))
            assert all(math.isfinite(v) for v in _report_values(rep))


def test_non_finite_integral_raises(monkeypatch):
    # a thermal integral that is inf is refused, never reported, on both of
    # St's paths: B at the poles at 20 mK, where St takes no rule, and B at
    # every node of the rule below 1 mK
    for temp, name in ((20e-3, "_bose"), (_SUB_MK_BATH, "_bose_real")):
        with monkeypatch.context() as patch:
            patch.setattr(routing, name, lambda x: math.inf)
            with pytest.raises(NumericalFailureError, match="not finite"):
                routing_probabilities(_op(bath_temp=temp))


def test_uncertified_report_raises(op_5uw, monkeypatch):
    # a drive-on report whose error estimate is over the tolerance is
    # refused; there is no other method to fall back to
    monkeypatch.setattr(routing, "_RESIDUE_TOL", 0.0)
    with pytest.raises(NumericalFailureError, match="not certified"):
        routing_probabilities(op_5uw)


def test_quadrature_of_a_finite_st_at_an_extreme_bath_is_finite():
    # at 1e305 K St is finite (3e305 at omega_m), and so is its band
    # integral, at the exceptional point (a cluster of poles) and at 5 uW
    for power in (EXCEPTIONAL_POWER, 5e-6):
        rep = routing_probabilities(_op(drive_power=power, bath_temp=1e305))
        assert rep.thermal_leak == pytest.approx(4.54e304, rel=1e-2)


def test_default_drive_on_report_takes_no_rule_and_no_contour(monkeypatch):
    # at 20 mK B is its quartic on the band, so St takes no rule, and the
    # default point's poles are apart, so no contour is summed
    def refused(*args):
        raise AssertionError("the default report took a rule or a contour")

    for name in ("_bose_rule", "_gauss_legendre", "_contour"):
        monkeypatch.setattr(routing, name, refused)
    rep = routing_probabilities(_op())
    assert rep.thermal_leak > 0.0


def test_default_report_loads_no_gauss_legendre_table():
    # numpy.polynomial costs milliseconds to import (numpy 2 does not load
    # it); a bath warm enough that B is its quartic on the band takes no
    # rule
    code = ("import sys, omrouter\n"
            "before = 'numpy.polynomial' in sys.modules\n"
            "omrouter.routing_probabilities(omrouter.derive_operating_point("
            "omrouter.default_params()))\n"
            "print(('numpy.polynomial' in sys.modules) == before)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(
                             Path(omrouter.__file__).resolve().parents[1])})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "True"


# ----------------------------------------- the drive-on closed form

def _report_values(rep):
    return (rep.p_reflect, rep.p_transmit, rep.vacuum_leak, rep.thermal_leak)


def _assert_near_oracle(rep, op, rel=1e-12):
    exact = drive_on_report(op, *rep.band)
    for name, value, ref in zip(("p_reflect", "p_transmit", "vacuum_leak",
                                 "thermal_leak"), _report_values(rep), exact):
        assert value == pytest.approx(ref, rel=rel, abs=0.0), name


_WIDTHS_AND_BATHS = ((1e-12, 20e-3), (1e-6, 0.0), (1e-3, 0.3), (0.02, 20e-3),
                     (0.1, 10e-3))


@pytest.mark.parametrize("center", [0.95, 1.0, 1.05])
@pytest.mark.parametrize("power", [1e-6, 5e-6, 20e-6,
                                   EXCEPTIONAL_POWER * 0.99,
                                   EXCEPTIONAL_POWER * 1.01])
def test_drive_on_closed_form_against_mpmath(power, center):
    # off-centre lines, widths from 1e-12*omega_m, and powers 1% from the
    # exceptional point: every report is a closed form, within 1e-12 of
    # the 50-digit residues
    for width, temp in _WIDTHS_AND_BATHS:
        op = _op(drive_power=power, bath_temp=temp,
                 input_bandwidth=width * WM, input_center=center * WM)
        _assert_near_oracle(routing_probabilities(op), op)


def test_drive_on_closed_form_across_the_exceptional_point():
    # two poles of d merge at the exceptional point, where their residues
    # cancel: such a cluster is summed by a contour integral about it
    for step in (0.0, 1e-9, 1e-6, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1):
        for sign in ((1.0,) if step == 0.0 else (1.0, -1.0)):
            op = _op(drive_power=EXCEPTIONAL_POWER * (1.0 + sign * step))
            _assert_near_oracle(routing_probabilities(op), op)


def test_drive_on_closed_form_with_the_line_on_a_pole():
    # the line's pole center + i*Gamma next to an upper pole of d's: the
    # two residues cancel, although d's zeros are well apart
    poles = [r.conjugate() for r in assess_stability(_op()).roots
             if r.real > 0.0]
    assert len(poles) == 2
    for pole in poles:
        for step in (0.0, 1e-8, 1e-5, 1e-3, 0.1):
            op = _op(input_center=pole.real,
                     input_bandwidth=pole.imag * (1.0 + step))
            _assert_near_oracle(routing_probabilities(op), op)


def test_drive_on_closed_form_of_three_merged_poles():
    # at the exceptional point, a line of half-width 0.1*omega_m centred on
    # the merged pole makes a cluster of three
    op = _op(drive_power=EXCEPTIONAL_POWER, input_center=0.994988 * WM,
             input_bandwidth=0.1 * WM)
    poles = [z.conjugate() for z in kernels.zeros(
        kernels.reduced(op))[0]] + [complex(0.994988, 0.1)]
    assert sorted(map(len, routing._clusters(poles))) == [2, 3]
    assert set(map(frozenset, routing._clusters(poles))) \
        == _linked_groups(poles)
    _assert_near_oracle(routing_probabilities(op), op)


@pytest.mark.parametrize("overrides", [
    {"drive_power": 0.1e-6},
    {"drive_power": 1e-6, "cavity_decay": 0.03 * WM}])
def test_drive_on_closed_form_of_weak_drives(overrides):
    # d's mechanical zero lies 1e-4*omega_m or less below the real axis;
    # on D's factored form its imaginary part is not a small part of a sum
    op = _op(**overrides)
    _assert_near_oracle(routing_probabilities(op), op)


def test_drive_on_closed_form_of_a_line_within_half_omega_m():
    # the line's pole 0.3*omega_m + i*Gamma lies within 1/2 of u = 0, so
    # D and its conjugate there are formed as next to the red static bound
    op = _op(input_center=0.3 * WM, input_bandwidth=0.01 * WM)
    _assert_near_oracle(routing_probabilities(op, (0.1 * WM, 1.5 * WM)), op)


@pytest.mark.parametrize("power", [5e-6, EXCEPTIONAL_POWER])
@pytest.mark.parametrize("temp", [0.0, 10e-9, 0.1e-6, 1e-6, 10e-6, 0.5e-3,
                                  20e-3, 0.3])
def test_drive_on_closed_form_at_any_bath(power, temp):
    # B(theta*u) is taken exactly at the poles; the smooth remainder
    # cancels from about 1 mK up and takes a Gauss-Legendre rule of 16 to
    # 512 nodes below; below 1 uK the reference is mpmath.quad, and the
    # rule's error reaches about 3e-11 at 10 nK
    op = _op(drive_power=power, bath_temp=temp)
    _assert_near_oracle(routing_probabilities(op), op,
                        rel=1e-12 if temp == 0.0 or temp >= 1e-6 else 1e-10)


def test_thermal_leak_is_zero_where_b_underflows_on_the_band():
    # at 1 nK, x/(e^x - 1) underflows on the whole default band
    assert routing_probabilities(_op(bath_temp=1e-9)).thermal_leak == 0.0


@settings(deadline=None, max_examples=50)
@given(params=bright_points)
def test_reduced_model_is_d_in_units_of_omega_m(params):
    # the record's monic quartic D = mech*cav - dd, expanded from its
    # factors, times m*omega_m^(4-k), is d_polynomial_coeffs to within
    # _ROUND of each coefficient's cancellation-free size; h and theta
    # scale back to E's numerator and the Bose factor's argument
    op = derive_operating_point(params)
    k2, g, dl, dd, h, theta, _ = kernels.reduced(op)
    m, wm = op.eff_mass, op.mech_freq
    monic = np.polymul([-1.0, -1j * g, 1.0],
                       [-1.0, -2j * k2, k2 * k2 + dl * dl])
    monic[-1] -= dd
    want = stability.d_polynomial_coeffs(op)
    size = np.abs(want)
    size[-1] = m * wm * wm * (4.0 * op.cavity_decay ** 2
                              + op.eff_detuning ** 2) \
        + abs(kernels.drive_term(op))
    assert np.all(np.abs(monic * m * wm ** np.arange(5.0) - want)
                  <= kernels._ROUND * size)
    assert h * m * wm ** 3 == pytest.approx(HBAR * kernels.coupling(op),
                                            rel=kernels._ROUND)
    kbt = KB * op.bath_temp
    assert theta == (pytest.approx(HBAR * wm / kbt) if kbt else 0.0)


@pytest.mark.parametrize("temp", [math.inf, math.nan])
def test_reduced_model_never_reads_an_unbounded_bath_as_zero_kelvin(
        op_5uw, temp):
    # hbar*omega_m/(kB*T) is 0.0 at T = inf, as it is at T = 0, but St is
    # not: theta is NaN, and the residues refuse such a bath
    op = replace(op_5uw, bath_temp=temp)
    with pytest.raises(InvalidParameterError, match="bath_temp"):
        routing._residue_report(op, *_default_band(op))
    with pytest.raises(InvalidParameterError, match="bath_temp"):
        routing_probabilities(op)
    assert math.isnan(kernels.reduced(op)[5])


@pytest.mark.filterwarnings("ignore::omrouter.RegimeWarning")
def test_reduced_model_never_reads_a_hot_bath_as_zero_kelvin():
    # a finite bath so hot that hbar*omega_m/(kB*T) underflows to 0: the
    # residues, which take the point at T = 0, refuse it
    wm = 1e-5
    op = _op(mech_freq=wm, cavity_decay=0.1 * wm, eff_detuning=wm,
             input_bandwidth=0.01 * wm, drive_power=5e-6 * (wm / WM) ** 4,
             bath_temp=1e308)
    band = _default_band(op)
    assert routing._residue_report(replace(op, bath_temp=0.0), *band)
    with pytest.raises(NumericalFailureError, match="not a number"):
        routing._residue_report(op, *band)
    assert math.isnan(kernels.reduced(op)[5])
    # the switch, which reads no bath, takes it as any other
    params = op.as_params()
    assert switching_contrast(params, op.drive_power) == switching_contrast(
        replace(params, bath_temp=0.0), op.drive_power)


@settings(deadline=None, max_examples=50)
@given(params=bright_points)
def test_drive_on_closed_form_against_quadrature(params):
    # within 1e-12 of the 50-digit residues while their Bose series holds
    # (theta*b < 2); at colder baths, where the thermal rule's error grows
    # with theta, within 1e-10 (the contract of the adaptive quadrature it
    # replaced) of mpmath.quad
    op = derive_operating_point(params)
    assume(kernels.is_stable(op))
    warm = kernels.reduced(op)[5] * 1.5 < 2.0
    _assert_near_oracle(routing._residue_report(op, *_default_band(op)), op,
                        rel=1e-12 if warm else 1e-10)


@pytest.mark.xfail(strict=True, raises=NumericalFailureError,
                   reason="St's terms cancel by more than the 1e-10 "
                   "estimate allows at these baths")
@pytest.mark.parametrize("case", list(COLD_BATHS))
def test_cold_bath_report_against_the_exact_model(case):
    # points of bright_points' ranges that routing refuses at a bath of 1 to
    # 100 nK; each report is to be within 1e-12 of the 50-digit residues
    op = derive_operating_point(COLD_BATHS[case])
    _assert_near_oracle(routing_probabilities(op), op)


# the baths of a switch at the points of COLD_BATHS besides their own 1
# to 100 nK: T = 0, 1 nK, two warm ones and one where theta is a denormal
_SWITCH_BATHS = (0.0, 1e-9, 20e-3, 0.3, 1e305)
# the lower end of each point's 20 mK switch, to two digits
_WARM_SWITCH = {"wm1e5-1nK": 0.45, "wm1e6-10nK": 0.45, "wm1e6-100nK": 0.45,
                "wm3e6-119nK": 0.04}


@pytest.mark.parametrize("case", list(COLD_BATHS))
def test_switch_at_a_cold_bath_is_the_warm_switch(case):
    # routing refuses these reports for St's cancellation; the switch sums
    # Scin*R alone, which the bath does not enter, so at every bath it is
    # the worse port of the 20 mK reports, bit for bit
    params = COLD_BATHS[case]
    power = params.drive_power
    off = routing_probabilities(derive_operating_point(
        replace(params, drive_power=0.0)))
    on = routing_probabilities(derive_operating_point(
        replace(params, bath_temp=20e-3)))
    warm = min(off.p_transmit, on.p_reflect)
    assert _WARM_SWITCH[case] < warm < _WARM_SWITCH[case] + 0.01
    for temp in (params.bath_temp, *_SWITCH_BATHS):
        assert switching_contrast(replace(params, bath_temp=temp),
                                  power) == warm


def _switch_is_the_worse_port(op):
    """Whether routing_probabilities certifies the drive-on point op; where
    it does, the switch at op's drive must be the worse port of the two
    reports, bit for bit."""
    try:
        on = routing_probabilities(op)
    except NumericalFailureError:
        return False
    params = op.as_params()
    off = routing_probabilities(derive_operating_point(
        replace(params, drive_power=0.0)))
    assert switching_contrast(params, op.drive_power) \
        == min(off.p_transmit, on.p_reflect)
    return True


def test_switch_is_the_worse_port_of_the_reports(monkeypatch):
    # on seeded draws inside the hierarchy and next to the red static
    # bound, and at the exceptional point, where the switch sums a cluster
    # of poles on a contour
    rng = random.Random(34)
    points = ([hierarchy_draw(rng) for _ in range(40)]
              + [static_bound_draw(rng) for _ in range(20)])
    assert sum(map(_switch_is_the_worse_port, points)) >= 55
    op = _op(drive_power=EXCEPTIONAL_POWER)
    assert _switch_is_the_worse_port(op)
    contours = []
    contour = routing._contour
    monkeypatch.setattr(routing, "_contour",
                        lambda *args: contours.append(args) or contour(*args))
    switching_contrast(op.as_params(), op.drive_power)
    assert contours


@pytest.mark.parametrize("overrides", [
    # the line's pole 0.14 of its height from the mechanical one: their
    # terms cancel to 1/7, and a float zero alone left 2.2e-12
    {"quality": 1778.2794100389228, "eff_detuning": 984375.0,
     "input_center": 1e6, "input_bandwidth": 1000.0},
    # a line of 1e-6*omega_m, 1e-5*omega_m below the mechanical resonance
    # on the window's steep side: a float c alone left 1.2e-12 of p_transmit
    {"quality": 17782.794100389227, "eff_detuning": 1e6,
     "input_center": 999990.0, "input_bandwidth": 1.0},
])
def test_drive_on_closed_form_next_to_the_mechanical_resonance(overrides):
    op = _op(mech_freq=1e6, cavity_decay=56234.13251903491, bath_temp=0.0,
             drive_power=1.6755060480136922e-07, **overrides)
    _assert_near_oracle(routing._residue_report(op, *_default_band(op)), op)


def test_drive_on_closed_form_next_to_the_red_static_bound():
    # a0, D's constant term, is 0.0064 of c0 = k2^2 + dl^2: the zero next
    # to u = 0 placed by a rounded a0, and D at its conjugate formed as
    # mech*cav - dd, left Sv 6.0e-12 off, 25 times the estimate
    op = _op(mech_freq=1e5, quality=1036.632928437698,
             cavity_decay=9646.616199111992, eff_detuning=93750.0,
             drive_power=2.316173027544319e-08, bath_temp=0.0,
             input_center=1e5, input_bandwidth=1000.0)
    _assert_near_oracle(routing._residue_report(op, *_default_band(op)), op)


def _errors_and_estimates(monkeypatch, draw, rng, count):
    """(error, estimate) of each value of the reports at ``count`` points
    of ``draw(rng)``, the error against the 50-digit residues."""
    found = []
    integrals = routing._residue_integrals

    def kept(*args):
        found.append(integrals(*args))
        return found[-1]

    monkeypatch.setattr(routing, "_residue_integrals", kept)
    eps = sys.float_info.epsilon
    for _ in range(count):
        op = draw(rng)
        rep = routing._residue_report(op, *_default_band(op))
        _, backward, cancel, condition = found[-1]
        estimate = eps * cancel + max(backward, eps) * condition
        for value, ref in zip(_report_values(rep),
                              drive_on_report(op, *rep.band)):
            err = abs(value - ref) / abs(ref) if ref else abs(value)
            yield err, estimate


def test_certified_reports_next_to_the_red_static_bound(monkeypatch):
    # each certified report is within 4 times its estimate and within 1e-10
    # of the 50-digit residues, where the zero next to u = 0 carries most
    # of the sums' terms (the first 50 points of a seeded draw)
    for err, estimate in _errors_and_estimates(
            monkeypatch, static_bound_draw, random.Random(5), 50):
        assert err <= min(4.0 * estimate, 1e-10)


def test_reports_within_the_docstring_s_bound(monkeypatch):
    # the first 90 points of the routing docstring's 600-point draw hold
    # its largest error, 3.82e-14 of a vacuum_leak, at 4.62 times the
    # estimate
    worst = 0.0
    for err, estimate in _errors_and_estimates(
            monkeypatch, hierarchy_draw, random.Random(11), 90):
        assert err <= min(4.7 * estimate, 3.9e-14)
        worst = max(worst, err / estimate)
    assert worst > 4.0


@settings(deadline=None, max_examples=50)
@given(params=bright_points, temp=st.floats(10e-3, 0.3))
def test_thermal_leak_without_a_rule_is_the_rule_s(params, temp):
    # from 10 mK up B is its quartic on the band and at the poles, so the
    # rule's remainders cancel: St without them is within 1e-14 of St with
    # the 16-node rule, forced by a threshold of -1
    op = derive_operating_point(replace(params, bath_temp=temp))
    assume(kernels.is_stable(op))

    def refused(*args):
        raise AssertionError("St took a rule from 10 mK up")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routing, "_bose_rule", refused)
        free = routing_probabilities(op).thermal_leak
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routing, "_QUARTIC", -1.0)
        ruled = routing_probabilities(op).thermal_leak
    assert free == pytest.approx(ruled, rel=1e-14, abs=0.0)


def _linked_groups(poles):
    """The clusters of _clusters by brute force: every pair's distance
    against both heights, then the connected components."""
    n = len(poles)
    near = [[abs(poles[i] - poles[j]) < routing._CLUSTER * poles[i].imag
             and abs(poles[i] - poles[j]) < routing._CLUSTER * poles[j].imag
             for j in range(n)] for i in range(n)]
    seen, groups = set(), []
    for start in range(n):
        if start in seen:
            continue
        group, stack = set(), [start]
        while stack:
            i = stack.pop()
            if i not in group:
                group.add(i)
                stack += [j for j in range(n) if j != i and near[i][j]]
        seen |= group
        groups.append(frozenset(group))
    return set(groups)


_pole = st.builds(complex, st.floats(-2.0, 2.0), st.floats(1e-6, 0.5))


@settings(deadline=None, max_examples=200)
@given(poles=st.lists(_pole, min_size=1, max_size=3),
       copies=st.lists(st.tuples(st.integers(0, 2), st.floats(-1.0, 1.0),
                                 st.floats(-1.0, 1.0),
                                 st.floats(1e-16, 0.3)), max_size=4))
def test_cluster_screen_groups_as_brute_force(poles, copies):
    # near-duplicates of the poles, each moved by up to 0.3 of its height
    for k, dx, dy, scale in copies:
        base = poles[k % len(poles)]
        poles = poles + [base + complex(dx, dy) * scale * base.imag]
    groups = routing._clusters(poles)
    assert sorted(i for grp in groups for i in grp) == list(range(len(poles)))
    assert set(map(frozenset, groups)) == _linked_groups(poles)


# a third of the benchmark's design pool (list(design_pool())[::3]): its
# points at T = 0, every zero set of the pool
_DESIGN_THIRD = [{"drive_power": power, "eff_detuning": detuning * WM,
                  "bath_temp": 0.0}
                 for power in POWERS for detuning in DETUNINGS]


@pytest.mark.filterwarnings("ignore::omrouter.RegimeWarning")
@pytest.mark.parametrize("overrides", [
    # a cavity wider than omega_m and an overdamped membrane, where the
    # resolvent cubic's largest root is positive and both quadratic
    # factors are solved (the overdamped pair of zeros is imaginary), and
    # a cavity of 0.9*omega_m, where it is negative as in the hierarchy
    {"cavity_decay": 1.6 * WM, "quality": 27.0, "eff_detuning": 1.54 * WM},
    {"cavity_decay": 0.9 * WM, "eff_detuning": 0.95 * WM},
    {"quality": 0.4, "cavity_decay": 0.06 * WM, "eff_detuning": 0.6 * WM},
    *_DESIGN_THIRD])
def test_drive_on_closed_form_outside_the_resolved_sidebands(overrides):
    op = _op(**overrides)
    zeros, _, _, backward, _ = kernels.zeros(kernels.reduced(op))
    roots, _ = stability.poles(op)
    for root in roots:
        assert min(abs(root - z) for z in zeros) < 1e-12
    assert backward <= kernels._ROUND
    _assert_near_oracle(routing._residue_report(op, *_default_band(op)), op)
