from dataclasses import replace

import numpy as np
import pytest

from omrouter import (InvalidParameterError, default_params,
                      derive_operating_point, eit_linewidth,
                      routing_probabilities, switching_contrast)

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


def test_quadrature_budget_converged(op_5uw):
    a = routing_probabilities(op_5uw, quad_points=200)
    b = routing_probabilities(op_5uw, quad_points=400)
    assert abs(a.p_reflect - b.p_reflect) < 1e-5
    assert abs(a.p_transmit - b.p_transmit) < 1e-5


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


def test_small_quad_budget_rejected(op_5uw):
    with pytest.raises(InvalidParameterError):
        routing_probabilities(op_5uw, quad_points=199)


def test_negative_switch_power_rejected():
    with pytest.raises(InvalidParameterError):
        switching_contrast(default_params(), -1e-6)
