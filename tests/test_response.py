import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from omrouter import (InvalidParameterError, NumericalFailureError,
                      default_grid, default_params, denominator_d,
                      derive_operating_point, eit_linewidth,
                      eit_linewidth_scan, empty_reflectance, lorentzian_input,
                      output_spectra, reflection_R, response_E,
                      thermal_noise, transmission_T, vacuum_noise)
from omrouter.operating_point import HBAR

WM = default_params().mech_freq
KAPPA = WM / 10.0


def _local_maxima(y):
    return np.where((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1


# ---------------------------------------------------------------- amplitude

def test_zero_drive_reduces_to_bare_cavity(op_off):
    rng = np.random.default_rng(3)
    omega = rng.uniform(0.1, 3.0, size=500) * WM
    expected = 2.0 * KAPPA / (2.0 * KAPPA + 1j * (op_off.eff_detuning - omega))
    np.testing.assert_allclose(response_E(omega, op_off), expected, rtol=1e-12)


def test_zero_drive_unity_at_detuning(op_off):
    assert abs(response_E(op_off.eff_detuning, op_off) - 1.0) < 1e-12


def test_zero_drive_reflection_matches_empty_cavity(op_off):
    # +-5 kappa around the detuning, mechanical neighbourhood excluded
    omega = np.linspace(op_off.eff_detuning - 5.0 * KAPPA,
                        op_off.eff_detuning + 5.0 * KAPPA, 20001)
    omega = omega[np.abs(omega - WM) >= 1e3 * op_off.gamma_m]
    diff = np.abs(reflection_R(omega, op_off)
                  - empty_reflectance(omega, op_off.eff_detuning, KAPPA))
    assert np.max(diff) < 1e-6


def test_resonant_amplitude_asymptote(op_5uw):
    op = op_5uw
    # with the mechanical part of d removed, only the drive terms survive
    drive_num = 1j * HBAR * op.g ** 2 * op.n_cav
    drive_den = -2.0 * HBAR * op.g ** 2 * op.n_cav * op.eff_detuning
    asym = 2.0 * op.cavity_decay * drive_num / drive_den
    assert asym == pytest.approx(-1j * KAPPA / WM, rel=1e-12)
    full = response_E(WM, op)
    assert abs(full - asym) < 0.1 * abs(asym)


def test_transmitted_amplitude_far_from_resonance_small(op_5uw):
    assert abs(response_E(5.0 * WM, op_5uw)) == \
        pytest.approx(0.04994749972348585, rel=1e-9)
    assert abs(response_E(5.0 * WM, op_5uw)) < 0.1


def test_denominator_drive_dominates_at_window(op_5uw):
    op = op_5uw
    drive = 2.0 * HBAR * op.g ** 2 * op.n_cav * WM
    assert abs(denominator_d(WM, op)) == pytest.approx(drive, rel=5e-5)


# ------------------------------------------------------------ probe channels

def test_window_inverts_the_ports():
    vals = {}
    for power in (0.0, 5e-6, 20e-6):
        op = derive_operating_point(replace(default_params(),
                                            drive_power=power))
        vals[power] = (reflection_R(WM, op), transmission_T(WM, op))
    assert vals[0.0][0] < 1e-12 and vals[0.0][1] == pytest.approx(1.0, abs=1e-12)
    assert vals[5e-6][0] == pytest.approx(1.009980715689122, rel=1e-9)
    assert vals[5e-6][1] == pytest.approx(0.009999618225429904, rel=1e-9)
    assert vals[20e-6][0] == pytest.approx(1.009995178870674, rel=1e-9)
    assert vals[20e-6][1] == pytest.approx(0.00999990453790339, rel=1e-9)


def test_window_reflection_excess_is_kappa_ratio(op_5uw):
    # R at the window sits just above 1 by about (kappa/omega_m)^2
    excess = reflection_R(WM, op_5uw) - 1.0
    assert excess == pytest.approx((KAPPA / WM) ** 2, rel=2e-3)


# ------------------------------------------------------------------- noise

def test_vacuum_noise_at_window_power_insensitive(op_5uw, op_20uw):
    assert vacuum_noise(WM, op_5uw) == pytest.approx(0.019999618132457868,
                                                     rel=1e-9)
    assert vacuum_noise(WM, op_20uw) == pytest.approx(0.019999904532092553,
                                                      rel=1e-9)


def test_vacuum_noise_quadratic_in_power_when_drive_is_weak():
    # off resonance at vanishing drive the denominator is drive-independent,
    # so the quartic amplitude dependence shows as power squared
    w = 1.25 * WM
    s1 = vacuum_noise(w, derive_operating_point(
        replace(default_params(), drive_power=1e-12)))
    s2 = vacuum_noise(w, derive_operating_point(
        replace(default_params(), drive_power=2e-12)))
    assert s2 / s1 == pytest.approx(4.0, rel=1e-6)


def test_vacuum_noise_splits_at_stronger_drive(op_5uw, op_20uw):
    grid = default_grid(op_5uw)
    assert len(_local_maxima(vacuum_noise(grid, op_5uw))) == 1
    peaks = _local_maxima(vacuum_noise(grid, op_20uw))
    assert len(peaks) == 2
    # the split peaks sit symmetrically-ish about the window
    x = grid[peaks] / WM
    assert x[0] < 1.0 < x[1]


def test_thermal_noise_zero_at_zero_temperature(op_5uw):
    grid = default_grid(op_5uw)
    st = thermal_noise(grid, replace(op_5uw, bath_temp=0.0))
    assert np.all(st == 0.0)


def test_thermal_noise_frozen_peaks(op_5uw, op_20uw):
    grid = default_grid(op_5uw)
    assert np.max(thermal_noise(grid, op_5uw)) == \
        pytest.approx(0.06063778294194082, rel=1e-6)
    assert np.max(thermal_noise(grid, op_20uw)) == \
        pytest.approx(0.0233226564348148, rel=1e-6)
    assert np.max(thermal_noise(grid, replace(op_20uw, bath_temp=200e-3))) == \
        pytest.approx(0.23325469504783197, rel=1e-6)


def test_thermal_noise_stronger_drive_suppresses_window_value(op_5uw, op_20uw):
    ratio = thermal_noise(WM, op_20uw) / thermal_noise(WM, op_5uw)
    assert ratio == pytest.approx(0.25000358006378914, rel=1e-6)


def test_thermal_noise_scales_with_occupation(op_20uw):
    grid = default_grid(op_20uw)
    ratio = (np.max(thermal_noise(grid, replace(op_20uw, bath_temp=200e-3)))
             / np.max(thermal_noise(grid, replace(op_20uw, bath_temp=20e-3))))
    assert ratio == pytest.approx(10.0, rel=1e-3)


def test_thermal_noise_monotone_in_temperature(op_5uw):
    w = 0.97 * WM
    vals = [thermal_noise(w, replace(op_5uw, bath_temp=t))
            for t in (0.0, 10e-3, 20e-3, 0.1, 0.3)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------ output spectra

def test_output_spectra_flux_conserved_without_drive(op_off):
    grid = default_grid(op_off)
    spec = output_spectra(grid, op_off)
    scin = op_off.mech_freq * lorentzian_input(grid, op_off.input_center,
                                               op_off.input_bandwidth)
    np.testing.assert_allclose(spec.Scout + spec.Sdout, scin, rtol=1e-9)
    assert np.all(spec.Sv == 0.0)
    assert np.all(spec.St == 0.0)


def test_output_spectra_composition(op_5uw):
    grid = default_grid(op_5uw)
    spec = output_spectra(grid, op_5uw)
    scin = op_5uw.mech_freq * lorentzian_input(grid, op_5uw.input_center,
                                               op_5uw.input_bandwidth)
    np.testing.assert_allclose(spec.Scout, scin * spec.R + spec.Sv, rtol=1e-12)
    np.testing.assert_allclose(spec.Sdout, scin * spec.Tx + spec.St, rtol=1e-12)


def test_transmitted_leakage_small_against_input_peak(op_5uw):
    # at the window the directly transmitted line plus noise is a percent
    # of the incoming peak density
    op = op_5uw
    spec = output_spectra(default_grid(op), op)
    i = np.argmin(np.abs(spec.grid - WM))
    scin_peak = op.mech_freq * lorentzian_input(WM, op.input_center,
                                                op.input_bandwidth)
    ratio = spec.Sdout[i] / scin_peak
    assert ratio == pytest.approx(0.01188341710966707, rel=1e-6)
    assert ratio < 0.05


@pytest.mark.parametrize("grid", [
    np.array([]),
    np.array([1.0]),
    np.array([3.0, 2.0, 1.0]),
    np.array([-1.0, 1.0, 2.0]),
    np.array([0.0, 1.0]),
    np.array([1.0, np.nan]),
    np.array([1.0, 1.0, 2.0]),
])
def test_bad_grids_rejected(op_5uw, grid):
    with pytest.raises(InvalidParameterError):
        output_spectra(grid, op_5uw)


# ---------------------------------------------------------------- linewidth

def test_linewidth_zero_drive_is_mechanical_half_width(op_off):
    assert eit_linewidth(op_off) == pytest.approx(op_off.gamma_m / 2.0,
                                                  rel=1e-12)


def test_linewidth_frozen_values(op_5uw, op_20uw):
    assert eit_linewidth(op_5uw) / WM == pytest.approx(0.04761266736490852,
                                                       rel=1e-9)
    assert eit_linewidth(op_20uw) / WM == pytest.approx(0.19044930582327044,
                                                        rel=1e-9)


def test_linewidth_drive_term_linear_in_power(op_5uw):
    op2 = derive_operating_point(replace(default_params(), drive_power=10e-6))
    base = op_5uw.gamma_m / 2.0
    assert (eit_linewidth(op2) - base) == \
        pytest.approx(2.0 * (eit_linewidth(op_5uw) - base), rel=1e-12)


def test_dip_scan_frozen_geometry(op_5uw, op_20uw):
    scan5 = eit_linewidth_scan(op_5uw)
    assert scan5.center / WM == pytest.approx(0.9952640782145737, rel=1e-9)
    assert scan5.full_width / WM == pytest.approx(0.07946645588576909, rel=1e-9)
    assert scan5.half_width == pytest.approx(scan5.full_width / 2.0, rel=1e-12)
    scan20 = eit_linewidth_scan(op_20uw)
    assert scan20.center / WM == pytest.approx(0.9807855820704133, rel=1e-9)
    assert scan20.full_width / WM == pytest.approx(0.24472041157474264, rel=1e-9)


def test_dip_scan_agrees_with_independent_measurement(op_5uw, op_20uw):
    # values measured separately on a 1.2M-point grid before this module
    # was written
    assert eit_linewidth_scan(op_5uw).full_width / WM == \
        pytest.approx(0.07947, rel=2e-3)
    assert eit_linewidth_scan(op_20uw).full_width / WM == \
        pytest.approx(0.24472, rel=2e-3)


@pytest.mark.parametrize("power", [1e-6, 5e-6, 20e-6])
def test_dip_scan_matches_root_found_geometry(power):
    # the scan's grid error against the minimum and the half-depth
    # crossings found by root finding on the guarded pointwise T, with
    # brackets taken from the scan; at 1 uW the width is off by 2e-8
    from scipy.optimize import brentq
    op = derive_operating_point(replace(default_params(), drive_power=power))
    dip = eit_linewidth_scan(op)
    step = op.mech_freq / 200000   # the scan's grid spacing

    def slope(w, h=1e-3 * step):
        return (transmission_T(w + h, op) - transmission_T(w - h, op)) / (2 * h)

    def above(w):
        return transmission_T(w, op) - dip.level

    center = brentq(slope, dip.center - step, dip.center + step,
                    xtol=1e-12, rtol=1e-15)
    lo, hi = dip.center - dip.full_width, dip.center + dip.full_width
    assert above(lo) > 0.0 > above(dip.center) and above(hi) > 0.0
    left = brentq(above, lo, dip.center, xtol=1e-12, rtol=1e-15)
    right = brentq(above, dip.center, hi, xtol=1e-12, rtol=1e-15)
    assert dip.center == pytest.approx(center, rel=1e-7, abs=0.0)
    assert dip.full_width == pytest.approx(right - left, rel=1e-7, abs=0.0)
    assert dip.half_width == pytest.approx((right - left) / 2, rel=1e-7,
                                           abs=0.0)


def test_run_ends_match_the_index_walk():
    from omrouter.response import _run_ends
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        below = rng.random(n) < rng.uniform(0.2, 1.0)
        i0 = int(rng.integers(0, n))
        # the walk the vectorized search replaced, from the same start
        il = i0
        while il > 0 and below[il]:
            il -= 1
        ir = i0
        while ir < n - 1 and below[ir]:
            ir += 1
        if below[i0]:
            assert _run_ends(below, i0) == (il, ir)


@pytest.mark.parametrize("window", [(0.96, 1.0), (0.99, 1.04),
                                    (0.995, 0.996)])
def test_dip_scan_raises_when_a_crossing_leaves_the_window(op_5uw, window):
    # the 5 uW dip spans about 0.955..1.035 omega_m at half depth
    with pytest.raises(NumericalFailureError, match="crossings leave"):
        eit_linewidth_scan(op_5uw, window=window)


@pytest.mark.parametrize("window", [(0.5, 0.9), (1.1, 1.5)])
def test_dip_scan_raises_when_the_dip_is_outside(op_5uw, window):
    with pytest.raises(NumericalFailureError, match="not inside"):
        eit_linewidth_scan(op_5uw, window=window)


def _peak_mb(fn):
    """fn's result and the peak of memory traced while it ran [MB]."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak / 1e6


def test_design_path_memory_is_bounded(op_5uw):
    # the grid kernels work in blocks: output_spectra holds little beyond
    # its six 200,001-point outputs (9.6 MB), and the dip scan little
    # beyond its grid and T.  Whole-grid temporaries took 31 and 27 MB.
    grid = default_grid(op_5uw, 200001)
    spectra, peak = _peak_mb(lambda: output_spectra(grid, op_5uw))
    assert spectra.Sdout.size == 200001
    assert peak <= 14.0
    _, peak = _peak_mb(lambda: eit_linewidth_scan(op_5uw))
    assert peak <= 6.0


def test_dip_scan_requires_drive(op_off):
    with pytest.raises(InvalidParameterError):
        eit_linewidth_scan(op_off)


@pytest.mark.parametrize("window", [(1.5, 0.5), (0.0, 1.0)])
def test_dip_scan_rejects_a_bad_window(op_5uw, window):
    with pytest.raises(InvalidParameterError, match="bad scan window"):
        eit_linewidth_scan(op_5uw, window=window)


def test_dip_narrower_than_closed_form_near_mode_splitting(op_5uw):
    # the measured dip runs ~17% below the perturbative width at 5 uW
    ratio = eit_linewidth_scan(op_5uw).half_width / eit_linewidth(op_5uw)
    assert ratio == pytest.approx(0.8345, abs=5e-3)


# --------------------------------------------------------------- guard rail

def test_near_singular_denominator_raises():
    from omrouter import assess_stability, max_stable_power
    blue = replace(default_params(), eff_detuning=-WM)
    threshold = max_stable_power(blue, 1e-6, rel_tol=1e-12)
    op = derive_operating_point(replace(blue, drive_power=threshold))
    report = assess_stability(op)
    worst = report.roots[np.argmax(report.roots.imag)]
    with pytest.raises(NumericalFailureError):
        response_E(worst.real, op)
