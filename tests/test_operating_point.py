import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from omrouter import (InvalidParameterError, RegimeWarning, default_params,
                      derive_operating_point, validate)

WM = default_params().mech_freq


def test_default_derived_values_frozen(op_5uw):
    op = op_5uw
    assert op.omega_c == pytest.approx(1.7871456995340162e15, rel=1e-12)
    assert op.g == pytest.approx(-2.6673816410955464e16, rel=1e-12)
    assert op.gamma_m == pytest.approx(0.7654062101473315, rel=1e-12)
    assert op.eps_c == pytest.approx(2113607183.2412727, rel=1e-9)
    assert op.n_cav == pytest.approx(6059626.829006205, rel=1e-9)
    assert op.q_s == pytest.approx(6.011430998901022e-13, rel=1e-9)
    assert op.cavity_decay == pytest.approx(WM / 10.0, rel=1e-12)


def test_mechanical_damping_near_measured_value(op_5uw):
    # omega_m/Q for the default membrane comes out at 0.76 per second
    assert abs(op_5uw.gamma_m - 0.76) < 0.01
    assert op_5uw.gamma_m == op_5uw.mech_freq / op_5uw.quality


def test_amplitude_relations(op_5uw):
    op = op_5uw
    assert abs(op.c_s) ** 2 == pytest.approx(op.n_cav, rel=1e-12)
    expected = op.eps_c / (2.0 * op.cavity_decay + 1j * op.eff_detuning)
    assert op.c_s == pytest.approx(expected, rel=1e-12)


def test_amplitude_scales_as_sqrt_power():
    p1 = derive_operating_point(replace(default_params(), drive_power=1e-6))
    p4 = derive_operating_point(replace(default_params(), drive_power=4e-6))
    assert p4.eps_c == pytest.approx(2.0 * p1.eps_c, rel=1e-12)
    assert p4.n_cav == pytest.approx(4.0 * p1.n_cav, rel=1e-12)


def test_zero_drive_is_dark(op_off):
    assert op_off.eps_c == 0.0
    assert op_off.n_cav == 0.0
    assert op_off.c_s == 0.0
    assert op_off.q_s == 0.0


def test_displacement_positive_for_negative_coupling(op_5uw):
    assert op_5uw.g < 0.0
    assert op_5uw.q_s > 0.0


def test_bare_detuning_diagnostic(op_5uw):
    op = op_5uw
    assert op.bare_detuning == pytest.approx(857981.6118452458, rel=1e-9)
    assert op.bare_detuning == pytest.approx(op.eff_detuning - op.g * op.q_s,
                                             rel=1e-12)


def test_probe_line_defaults(op_5uw):
    assert op_5uw.input_center == op_5uw.eff_detuning
    assert op_5uw.input_bandwidth == pytest.approx(0.01 * WM, rel=1e-12)


def test_probe_line_overrides():
    op = derive_operating_point(replace(default_params(),
                                        input_center=0.9 * WM,
                                        input_bandwidth=0.02 * WM))
    assert op.input_center == pytest.approx(0.9 * WM)
    assert op.input_bandwidth == pytest.approx(0.02 * WM)


def test_round_trip_params(op_5uw):
    again = derive_operating_point(op_5uw.as_params())
    assert again == op_5uw


def test_operating_point_immutable(op_5uw):
    with pytest.raises(FrozenInstanceError):
        op_5uw.n_cav = 0.0


@pytest.mark.parametrize("field,value", [
    ("wavelength", 0.0),
    ("wavelength", -1e-6),
    ("cavity_length", 0.0),
    ("eff_mass", -1e-12),
    ("mech_freq", 0.0),
    ("quality", 0.0),
    ("cavity_decay", -1.0),
    ("drive_power", -1e-9),
    ("bath_temp", -0.001),
    ("input_bandwidth", 0.0),
    ("input_bandwidth", -5.0),
    ("wavelength", float("nan")),
    ("drive_power", float("inf")),
])
def test_invalid_inputs_name_the_field(field, value):
    params = replace(default_params(), **{field: value})
    with pytest.raises(InvalidParameterError, match=field):
        validate(params)


def test_defaults_pass_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate(default_params())


@pytest.mark.parametrize("field,value", [
    ("cavity_decay", WM / 2.0),    # kappa too close to omega_m
    ("quality", 5.0),              # gamma_m too close to kappa
])
def test_hierarchy_violations_warn_but_compute(field, value):
    params = replace(default_params(), **{field: value})
    with pytest.warns(RegimeWarning):
        op = derive_operating_point(params)
    assert np.isfinite(op.n_cav)


@pytest.mark.parametrize("field,value,derived", [
    ("drive_power", 1e300, "eps_c"),
    ("cavity_length", 1e-320, "g"),
])
def test_overflowing_derivation_rejected(field, value, derived):
    # finite inputs whose derived quantities overflow to inf would reach
    # np.roots as inf and end in a LinAlgError
    params = replace(default_params(), **{field: value})
    with pytest.raises(InvalidParameterError, match=f"derived {derived} "):
        derive_operating_point(params)
