import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omrouter import (assess_stability, default_params,
                      derive_operating_point, kernels)

HBAR = 1.0545718e-34
KB = 1.380649e-23

_BASE = derive_operating_point(default_params())


def _point(**fields):
    return replace(_BASE, **fields)


def _random_point(rng):
    wm = 10 ** rng.uniform(4.0, 7.0)
    m = 10 ** rng.uniform(-12.0, -9.0)
    gamma_m = wm / 10 ** rng.uniform(4.0, 7.0)
    kappa = wm * 10 ** rng.uniform(-2.0, -0.5)
    delta = wm * rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    g2cs2 = 10 ** rng.uniform(30.0, 42.0)
    kbt = KB * rng.choice([0.0, 20e-3, 0.3])
    op = _point(eff_mass=m, mech_freq=wm, gamma_m=gamma_m, cavity_decay=kappa,
                eff_detuning=delta, n_cav=g2cs2 / _BASE.g ** 2, hbar=HBAR)
    return op, kbt


def test_kernel_matches_pointwise_formulas(op_5uw):
    # the grid kernel and the guarded pointwise functions are separate routes
    from omrouter import reflection_R, thermal_noise, transmission_T, vacuum_noise
    op = op_5uw
    grid = np.linspace(0.5 * op.mech_freq, 1.5 * op.mech_freq, 101)
    refl, trans, sv, st = kernels.channel_arrays(grid, op, op.kB * op.bath_temp)
    np.testing.assert_allclose(refl, reflection_R(grid, op), rtol=1e-12)
    np.testing.assert_allclose(trans, transmission_T(grid, op), rtol=1e-12)
    np.testing.assert_allclose(sv, vacuum_noise(grid, op), rtol=1e-12)
    np.testing.assert_allclose(st, thermal_noise(grid, op), rtol=1e-12)


def test_channels_nonnegative_random_parameters():
    rng = np.random.default_rng(99)
    for _ in range(25):
        op, kbt = _random_point(rng)
        grid = np.linspace(0.1 * op.mech_freq, 3.0 * op.mech_freq, 301)
        for channel in kernels.channel_arrays(grid, op, kbt):
            assert np.all(channel >= 0.0)
            assert np.all(np.isfinite(channel))


# red-detuned points inside gamma_m << kappa << omega_m (factors of 10 or
# more); the few past their stability threshold are discarded
_hierarchy_points = st.builds(
    lambda log_wm, log_kappa, log_gamma, detuning, log_power, log_mass, temp:
        replace(default_params(),
                mech_freq=10 ** log_wm,
                cavity_decay=10 ** (log_wm + log_kappa),
                quality=10 ** -(log_kappa + log_gamma),
                eff_detuning=detuning * 10 ** log_wm,
                drive_power=10 ** log_power,
                eff_mass=10 ** log_mass,
                bath_temp=temp),
    log_wm=st.floats(4.0, 7.0),
    log_kappa=st.floats(-2.5, -1.0),
    log_gamma=st.floats(-4.0, -1.0),
    detuning=st.floats(0.5, 1.5),
    log_power=st.floats(-9.0, -4.5),
    log_mass=st.floats(-12.0, -9.0),
    temp=st.floats(0.0, 0.3),
)


@settings(deadline=None)
@given(params=_hierarchy_points, x=st.floats(0.1, 3.0))
def test_kernel_matches_pointwise_at_scalar_frequency(params, x):
    from omrouter import reflection_R, thermal_noise, transmission_T, vacuum_noise
    op = derive_operating_point(params)
    assume(assess_stability(op).stable)
    w = x * op.mech_freq
    refl, trans, sv, st_ = kernels.channel_arrays(w, op, op.kB * op.bath_temp)
    # R = |E - 1|^2 cancels where the probe passes (E near 1), and numpy's
    # scalar and array arithmetic round E differently in the last bit: a
    # pass-band R of 3.4e-9 differs by 1.4e-12 of itself, so R also gets an
    # absolute floor of 1e-12 of the unit probability
    assert refl[0] == pytest.approx(reflection_R(w, op), rel=1e-12, abs=1e-12)
    assert trans[0] == pytest.approx(transmission_T(w, op), rel=1e-12, abs=0.0)
    assert sv[0] == pytest.approx(vacuum_noise(w, op), rel=1e-12, abs=0.0)
    assert st_[0] == pytest.approx(thermal_noise(w, op), rel=1e-12, abs=0.0)

    dark = derive_operating_point(replace(params, drive_power=0.0))
    r_off, t_off, _, _ = kernels.channel_arrays(w, dark, dark.kB * dark.bath_temp)
    assert math.isclose(r_off[0] + t_off[0], 1.0, rel_tol=0.0, abs_tol=1e-12)


def test_thermal_weight_vacuum_limit():
    w = np.array([1.0, 1e3, 1e6])
    out = kernels.thermal_weight(w, _point(gamma_m=1.0, eff_mass=1e-11,
                                           hbar=HBAR), 0.0)
    assert np.all(out == 0.0)


def _bath():
    return _point(gamma_m=0.7, eff_mass=4e-11, hbar=HBAR)


def test_thermal_weight_zero_frequency_classical_limit():
    kbt = KB * 20e-3
    exact = kernels.thermal_weight(np.array([0.0]), _bath(), kbt)[0]
    # the weights are ~1e-35: without abs=0, approx's default absolute
    # tolerance of 1e-12 would accept any value
    assert exact == pytest.approx(2.0 * 0.7 * 4e-11 * kbt, rel=1e-12, abs=0.0)
    # and the omega -> 0 approach is continuous
    near = kernels.thermal_weight(np.array([1e-6]), _bath(), kbt)[0]
    assert near == pytest.approx(exact, rel=1e-9, abs=0.0)


def test_thermal_weight_guard_crossover_continuous():
    kbt = KB * 20e-3
    w30 = 30.0 * kbt / HBAR
    # either side of the guard equals the exact weight at its own frequency;
    # the two sides differ by ~6e-8 from the slope alone, so comparing them
    # with each other at 1e-9 would need approx's default abs of 1e-12
    for w in (w30 * (1 - 1e-9), w30 * (1 + 1e-9)):
        got = kernels.thermal_weight(np.array([w]), _bath(), kbt)[0]
        exact = 2.0 * HBAR * 0.7 * 4e-11 * w / math.expm1(HBAR * w / kbt)
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_thermal_weight_detailed_balance():
    kbt = KB * 0.1
    w = np.array([2e5])
    up = kernels.thermal_weight(w, _bath(), kbt)[0]
    down = kernels.thermal_weight(-w, _bath(), kbt)[0]
    # emission exceeds absorption by exactly the spontaneous term
    assert down - up == pytest.approx(2.0 * HBAR * 0.7 * 4e-11 * w[0],
                                      rel=1e-9, abs=0.0)
