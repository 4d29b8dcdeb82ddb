import cmath
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omrouter import (InvalidParameterError, NumericalFailureError,
                      default_params, derive_operating_point, eit_linewidth,
                      lorentzian_band_mass, reflection_R, routing,
                      routing_probabilities, switching_contrast,
                      thermal_noise, transmission_T, vacuum_noise)

WM = default_params().mech_freq


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
])
def test_bad_bands_rejected(op_5uw, band):
    with pytest.raises(InvalidParameterError):
        routing_probabilities(op_5uw, band=band)


def test_negative_switch_power_rejected():
    with pytest.raises(InvalidParameterError):
        switching_contrast(default_params(), -1e-6)


# ------------------------------------------------ the band integrator itself

def _default_band(op):
    return 0.5 * op.mech_freq, 1.5 * op.mech_freq


def _two_lorentzian_band_integral(lo, hi, center, gamma, delta, width):
    """int_lo^hi (gamma/pi)/((w-center)^2+gamma^2)
                 * width^2/((w-delta)^2+width^2) dw, exactly.

    The integrand is 1/prod(w - p) over four simple poles p (times the
    constant in front), so the integral is the sum over the poles of
    residue*[log(hi-p) - log(lo-p)]; no pole is real, so the principal
    logarithm is continuous along the band.
    """
    poles = (center + 1j * gamma, center - 1j * gamma,
             delta + 1j * width, delta - 1j * width)
    total = 0j
    for i, p in enumerate(poles):
        residue = 1.0
        for j, q in enumerate(poles):
            if j != i:
                residue /= p - q
        total += residue * (cmath.log(hi - p) - cmath.log(lo - p))
    return gamma / math.pi * width * width * total.real


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


@pytest.mark.parametrize("power", [0.0, 5e-6, 20e-6])
@pytest.mark.parametrize("width", [0.0005, 0.01, 0.1])
def test_integrated_line_mass_is_exact(power, width):
    op = _op(drive_power=power, input_bandwidth=width * WM)
    lo, hi = _default_band(op)
    (mass, *_), _, _ = routing._band_integrals(op, lo, hi)
    assert mass == pytest.approx(
        lorentzian_band_mass(lo, hi, op.input_center, op.input_bandwidth),
        rel=1e-12, abs=0.0)


@pytest.mark.parametrize("power, temp, width", [
    (5e-6, 20e-3, 0.01), (1e-6, 20e-3, 0.001), (20e-6, 50e-3, 0.02)])
def test_against_tight_scalar_quadrature(power, temp, width):
    integrate = pytest.importorskip("scipy.integrate")
    op = _op(drive_power=power, bath_temp=temp, input_bandwidth=width * WM)
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


# drive off, inside gamma_m << kappa << omega_m; the line core stays inside
# the default band [0.5, 1.5]*omega_m
_dark_points = st.builds(
    lambda log_wm, log_kappa, log_gamma, detuning, log_width, temp:
        replace(default_params(),
                mech_freq=10 ** log_wm,
                cavity_decay=10 ** (log_wm + log_kappa),
                quality=10 ** -(log_kappa + log_gamma),
                eff_detuning=detuning * 10 ** log_wm,
                input_bandwidth=10 ** (log_wm + log_width),
                drive_power=0.0,
                bath_temp=temp),
    log_wm=st.floats(4.0, 7.0),
    log_kappa=st.floats(-2.5, -1.0),
    log_gamma=st.floats(-4.0, -1.0),
    detuning=st.floats(0.7, 1.3),
    log_width=st.floats(-3.5, -1.5),
    temp=st.floats(0.0, 0.3),
)


@settings(deadline=None, max_examples=50)
@given(params=_dark_points)
def test_drive_off_probabilities_sum_to_one(params):
    rep = routing_probabilities(derive_operating_point(params))
    assert math.isclose(rep.p_reflect + rep.p_transmit, 1.0,
                        rel_tol=0.0, abs_tol=1e-12)


def test_report_carries_its_quadrature_diagnostics(op_5uw):
    rep = routing_probabilities(op_5uw)
    assert type(rep.quad_error) is float and type(rep.n_evals) is int
    assert all(type(getattr(rep, name)) is float for name in
               ("p_reflect", "p_transmit", "vacuum_leak", "thermal_leak"))
    assert 0.0 <= rep.quad_error <= 1e-10
    assert 0 < rep.n_evals < 1000


def test_exhausted_panel_budget_raises(op_5uw, monkeypatch):
    monkeypatch.setattr(routing, "_MAX_PANELS", 5)
    lo, hi = _default_band(op_5uw)
    with pytest.raises(NumericalFailureError, match="did not converge"):
        routing._band_integrals(op_5uw, lo, hi)
