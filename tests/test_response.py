import hashlib
import math
import random
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omrouter import (InvalidParameterError, NumericalFailureError,
                      default_grid, default_params, denominator_d,
                      derive_operating_point, eit_linewidth,
                      eit_linewidth_scan, empty_reflectance, kernels,
                      lorentzian_input, output_spectra, reflection_R,
                      response_E, thermal_noise, transmission_T,
                      vacuum_noise)
from omrouter.operating_point import HBAR
from omrouter.response import DipScan
from oracles import (BRIGHT_RANGES, EXCEPTIONAL_POWER, KAPPA, WM,
                     bright_params, bright_points, budget, design_pool,
                     hierarchy_draw, local_maxima)


# ---------------------------------------------------------------- amplitude

def test_zero_drive_reduces_to_bare_cavity(op_off):
    rng = np.random.default_rng(3)
    omega = rng.uniform(0.1, 3.0, size=500) * WM
    expected = 2.0 * KAPPA / (2.0 * KAPPA + 1j * (op_off.eff_detuning - omega))
    np.testing.assert_allclose(response_E(omega, op_off), expected, rtol=1e-12)


def test_scalar_amplitude_is_the_grid_kernels(op_5uw):
    # a scalar omega runs the grid kernel's block pass like an array: its
    # E and d are the array's to the bit, where numpy's scalar complex
    # product had rounded them apart on hosts with FMA; d at every point
    # of the default window, real and complex
    grid = np.linspace(0.5 * WM, 1.5 * WM, 301)
    _, _, e, d, _, _ = next(kernels._pass(grid, op_5uw))
    assert np.array_equal(response_E(grid, op_5uw), e)
    assert np.array_equal(denominator_d(grid, op_5uw), d)
    for w, want in zip(grid.tolist(), e.tolist()):
        got = response_E(w, op_5uw)
        assert type(got) is complex and got == want
    window = default_grid(op_5uw, 2001)
    for omega in (window, window * (1.0 + 0.01j), window * (1.0 - 0.3j)):
        array = denominator_d(omega, op_5uw)
        for w, want in zip(omega.tolist(), array.tolist()):
            assert denominator_d(w, op_5uw) == want
    # integers are taken as floats: omega^2 of an int64 10**10 wrapped
    assert response_E(10 ** 10, op_5uw) == response_E(1e10, op_5uw)


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


def test_denominator_takes_integers_as_floats(op_5uw):
    # omega**2 of an int64 10**10 wrapped around and d came out 13 times
    # too small; past the float range d is refused, not inf with a warning
    assert denominator_d(10 ** 10, op_5uw) == denominator_d(1e10, op_5uw)
    assert np.array_equal(denominator_d([3, 10 ** 10], op_5uw),
                          denominator_d([3.0, 1e10], op_5uw))
    with pytest.raises(NumericalFailureError, match="float range"):
        denominator_d(1e200, op_5uw)
    # float32 and complex64 are taken in double too: d of a float32 5e12
    # is 2.5e40, which single precision had refused as past the float
    # range, and an array's d is the float64 d to the bit, not complex64
    w32 = np.float32(5e12)
    assert denominator_d(w32, op_5uw) == denominator_d(float(w32), op_5uw)
    grid = default_grid(op_5uw, 2001)
    for omega in (grid, grid * (1.0 + 0.01j)):
        narrow = omega.astype(np.complex64 if omega.dtype.kind == "c"
                              else np.float32)
        d = denominator_d(narrow, op_5uw)
        assert d.dtype == np.complex128
        assert np.array_equal(d, denominator_d(narrow.astype(omega.dtype),
                                               op_5uw))


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
    assert len(local_maxima(vacuum_noise(grid, op_5uw))) == 1
    peaks = local_maxima(vacuum_noise(grid, op_20uw))
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


@pytest.mark.parametrize("temp", [-0.02, math.nan])
def test_thermal_noise_rejects_an_unphysical_temperature(op_5uw, temp):
    # replace() skips validate(); the kernel checks the temperature it reads
    with pytest.raises(InvalidParameterError, match="bath_temp"):
        thermal_noise(0.97 * WM, replace(op_5uw, bath_temp=temp))


def test_thermal_noise_monotone_in_temperature(op_5uw):
    w = 0.97 * WM
    vals = [thermal_noise(w, replace(op_5uw, bath_temp=t))
            for t in (0.0, 10e-3, 20e-3, 0.1, 0.3)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------ photon budget

def _budget_defect(op):
    """The largest |R + T + M - 1 - Sv| over R + T + M + Sv on op's default
    grid of 2,001 points, M = |V|^2*2*hbar*gamma_m*m*omega with |V|^2 as
    in thermal_noise and d from denominator_d."""
    w = default_grid(op, 2001)
    kappa = op.cavity_decay
    v2 = 2.0 * kappa * kernels.coupling(op) \
        * np.abs(2.0 * kappa - 1j * (op.eff_detuning + w)) ** 2 \
        / np.abs(denominator_d(w, op)) ** 2
    m = v2 * 2.0 * HBAR * op.gamma_m * op.eff_mass * w
    r, t, sv = (f(w, op) for f in (reflection_R, transmission_T,
                                   vacuum_noise))
    return np.max(np.abs(r + t + m - 1.0 - sv) / (r + t + m + sv))


@settings(max_examples=50, deadline=None)
@given(params=bright_points)
def test_photon_budget_closes_pointwise(params):
    # R + T + M = 1 + Sv is an identity of the formulas; the kernel keeps
    # it within its rounding of the budget's terms
    op = derive_operating_point(params)
    assume(kernels.is_stable(op))
    assert _budget_defect(op) <= kernels._ROUND


def test_photon_budget_closes_on_a_seeded_hierarchy_draw():
    # 300 points of random.Random(7) inside the hierarchy, at T = 0 and
    # from 1 mK up, left at most 7 unit roundoffs with AVX512
    rng = random.Random(7)
    for _ in range(300):
        assert _budget_defect(hierarchy_draw(rng)) <= kernels._ROUND


def test_photon_budget_is_an_identity_at_50_digits():
    # the exact channels keep R + T + M = 1 + Sv at 50 digits on 200
    # seeded points of BRIGHT_RANGES, stable or not: detunings from blue
    # to red, drives up to 100 times the range's, at -3 to 3 omega_m
    ranges = dict(BRIGHT_RANGES, detuning=(-1.5, 1.5), log_power=(-7.0, -2.7))
    rng = random.Random(23)
    with mpmath.workdps(50):
        for _ in range(200):
            op = derive_operating_point(bright_params(
                **{name: rng.uniform(*bounds)
                   for name, bounds in ranges.items()}))
            r, t, m, sv = budget(op, rng.uniform(-3.0, 3.0))
            assert abs(r + t + m - 1 - sv) <= 1e-40 * (r + t + abs(m) + sv)


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
    # not real numbers: no string is parsed, no complex part dropped
    "ab",
    [None, 1.0],
    np.array([0.9, 1.1]) * WM * (1 + 0.1j),
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


# ------------------------------------------------- the dense scan, as oracle

def _run_ends(below, i0):
    """Ends of the run of True in ``below`` that holds ``i0``.

    The last False index before i0 and the first after it, or the array's
    ends where there is none.
    """
    left = np.flatnonzero(~below[:i0])
    right = np.flatnonzero(~below[i0:])
    return (int(left[-1]) if left.size else 0,
            i0 + int(right[0]) if right.size else len(below) - 1)


def _dense_scan(op, window=(0.5, 1.5)):
    """The dip scan with T evaluated on all 200,001 grid points.

    The library's scan evaluates T only where its bounds cannot rule a
    cell out, and must give this answer bit for bit, errors included.
    """
    grid = np.linspace(window[0] * op.mech_freq, window[1] * op.mech_freq,
                       200001)
    trans = kernels.transmission(grid, op)

    i0 = int(np.argmin(trans))
    if i0 == 0 or i0 == len(grid) - 1:
        raise NumericalFailureError("transmission dip not inside the scan window")
    y0, y1, y2 = trans[i0 - 1], trans[i0], trans[i0 + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
    center = grid[i0] + shift * (grid[1] - grid[0])

    level = 0.5 * (float(trans.max()) + float(y1))
    below = trans < level
    if not below[i0]:
        raise NumericalFailureError("transmission dip too shallow to scan")

    il, ir = _run_ends(below, i0)
    if below[il] or below[ir]:
        raise NumericalFailureError("half-depth crossings leave the scan window")

    def _cross(ia, ib):
        ya, yb = trans[ia], trans[ib]
        return grid[ia] + (level - ya) / (yb - ya) * (grid[ib] - grid[ia])

    left = _cross(il, il + 1)
    right = _cross(ir - 1, ir)
    full = right - left
    return DipScan(center=float(center), full_width=float(full),
                   half_width=float(full / 2.0),
                   depth=float(trans.max() - y1), level=float(level))


def test_run_ends_match_the_index_walk():
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


def _outcome(scan, op, window):
    try:
        return scan(op, window)
    except NumericalFailureError as exc:
        return type(exc), str(exc)


# the default geometry's exceptional point, where the membrane pole and the
# cavity pole merge
_MERGED = derive_operating_point(replace(default_params(),
                                         drive_power=EXCEPTIONAL_POWER))


def test_dip_scan_is_the_dense_scan_on_the_design_pool():
    # and at the exceptional point, where two poles merge
    for op in (*design_pool(), _MERGED):
        assert eit_linewidth_scan(op) == _dense_scan(op)


def test_dip_scan_evaluates_a_tenth_of_the_grid_at_most(monkeypatch):
    points = []
    evaluate = kernels.transmission
    monkeypatch.setattr(kernels, "transmission",
                        lambda w, op: points.append(np.size(w))
                        or evaluate(w, op))
    for op in (*design_pool(), _MERGED):
        points.clear()
        eit_linewidth_scan(op)
        assert 0 < sum(points) <= 0.1 * 200001


def _assert_bounds_enclose(op, window=(0.5, 1.5)):
    # the scan's cells: 64 points each, the last point joining the last cell
    from omrouter.response import _cell_bounds
    n = 200001
    grid = np.linspace(window[0] * op.mech_freq, window[1] * op.mech_freq, n)
    starts = np.arange(0, n - 1, 64)
    low, high = _cell_bounds(grid[np.append(starts, n - 1)], op)
    cell = np.minimum(np.arange(n) // 64, starts.size - 1)
    trans = kernels.transmission(grid, op)
    assert np.all((low[cell] <= trans) & (trans <= high[cell]))
    return high


def test_cell_bounds_enclose_the_kernel():
    # on a third of the design pool and at the exceptional point every
    # cell has a finite upper bound, and each holds every value the kernel
    # computes
    for op in (*list(design_pool())[::3], _MERGED):
        assert np.all(np.isfinite(_assert_bounds_enclose(op)))


@pytest.mark.parametrize("start, stop", [(0.5 * WM, 1.5 * WM),
                                         (3.3, 3.3000001),
                                         (1e-320, 2e-320)])
def test_scan_grid_points_are_linspace_bit_for_bit(start, stop):
    # the last pair's step underflows to 0, which linspace forms apart
    from omrouter.response import _linspace_at
    grid = _linspace_at(start, stop, 200001)
    assert np.array_equal(grid(np.arange(200001)),
                          np.linspace(start, stop, 200001))


def test_dip_scan_with_uncertified_cells_evaluates_the_whole_grid(
        monkeypatch, op_5uw):
    # bounds that prove nothing rule out no cell: every cell is evaluated,
    # and the answer is still the dense one
    from omrouter import response
    points = []
    evaluate = kernels.transmission
    monkeypatch.setattr(kernels, "transmission",
                        lambda w, op: points.append(np.size(w))
                        or evaluate(w, op))
    monkeypatch.setattr(response, "_cell_bounds",
                        lambda edges, op: (np.zeros(edges.size - 1),
                                           np.full(edges.size - 1, np.inf)))
    assert eit_linewidth_scan(op_5uw) == _dense_scan(op_5uw)
    assert sum(points) >= 2 * 200001


@pytest.mark.parametrize("overrides", [
    {"eff_mass": 1e-40, "drive_power": 5e-6 * 1e-40 / 40e-12},
    {"quality": 1e20}], ids=["mass-past-2^-128", "gamma-past-2^-64"])
def test_cell_bounds_outside_their_float_range_prove_nothing(overrides):
    # a 1e-40 kg membrane (the drive scaled with it) is outside the range
    # in rad/s that keeps the bounds' roundings relative, and a damping of
    # 1e-20 omega_m outside the one in units of omega_m: every cell is
    # (0, inf), so every cell is evaluated, and the scan is the dense one
    from omrouter.response import _cell_bounds
    op = derive_operating_point(replace(default_params(), **overrides))
    low, high = _cell_bounds(np.linspace(0.5, 1.5, 9) * op.mech_freq, op)
    assert np.all(low == 0.0) and np.all(high == np.inf)
    assert eit_linewidth_scan(op) == _dense_scan(op)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dip_scan_is_the_dense_scan_on_random_points(data):
    # stable red-detuned points with gamma_m << kappa << omega_m, and
    # windows that may cut the dip or miss it; the cell bounds hold the
    # kernel's values on them too
    kappa = WM * data.draw(st.floats(0.011, 0.09))
    params = replace(default_params(), cavity_decay=kappa,
                     quality=data.draw(st.floats(11.0 * WM / kappa, 1e8)),
                     eff_detuning=WM * data.draw(st.floats(0.5, 1.5)),
                     drive_power=10 ** data.draw(st.floats(-8.0, -4.0)),
                     bath_temp=data.draw(st.sampled_from([0.0, 20e-3])))
    op = derive_operating_point(params)
    assume(kernels.is_stable(op))
    lo = data.draw(st.floats(0.05, 1.5))
    window = (lo, lo + data.draw(st.floats(1e-4, 1.5)))
    assert _outcome(eit_linewidth_scan, op, window) == \
        _outcome(_dense_scan, op, window)
    _assert_bounds_enclose(op, window)


@pytest.mark.dispatch_bytes
def test_design_spectra_and_dip_frozen_whole():
    # sha256 of each 200,001-point channel and the full dip geometry at
    # 1, 5 and 20 uW (Delta = omega_m, 20 mK), recorded before the spectra
    # moved into one table and the scan to bounded cells
    digests = {
        1e-6: ("3c2443c426e28b25da2b99228c9b62e20454dc799ebbb812dd4e3c9951e886be",
               "270a55b102f3d16aa3ed08bd76dbd2548f21d34527d02e260de3787e01ea705e",
               "3cbbd9efd7252a3f6d8bd76ebfe6528a577a54cf5c0a35bbcefa1e46e2b7004b",
               "8f6228fae019c3b035fadbf34231fb0faafb47806185c98d8ad14d5447292f35",
               "a02098ced29c08dca07d8cf622620bfec894f55f93484f3b4091d9960e72a140",
               "22e4a3d0e20f8dcc0839f0b6e3c9e2ea4536dd2cb4589f900a8cf5b1d289f7ff"),
        5e-6: ("7bfd92033d337d6084518287d9e6f7468ef56738ef093744930961a3287d26f6",
               "dd2808ba41e849a482341feed31b2009c1eda9f5ea3aa75d45c457dff248fa25",
               "9142b7f699403f11b905f1b4b013a4e1f3041466f7288b1deddca9149135b4a2",
               "c8d2df59cc8433ac7ebc6a08c0b1d92f1bdb9c0e1de1977a196dde691923fac7",
               "1f902d333655e8f8e763fd1cf315af96065f1726138ff7ff678bd7345e0c159b",
               "922bb4e9ee7cc80b7afc99597d223f3c1b94ca0870df71dc271243f61885a679"),
        20e-6: ("89082c29cb80d5abde6502f645ee7a2ffc97c3c6303cae27b1253e0a517cfaa2",
                "5dd051fd70bd5e8b4c66edd33ac97876b85a628e0ca2b4c8dcad5cb7c9e96b14",
                "96751777dd53df26f794d65c83fe139714dc35d75716444dee285b15f1e0f484",
                "23cfabd12358c5b3578b418f0818debc0cc8a54e94d4a3047542377b9394f691",
                "cc32bbcee589f2b7c5375d262fcc43c07f2bc42b6f63d92538570de63d041584",
                "1b81b262e4d6e886ecc5054b5eb63f75951e1c67e432b29b9430ff6096ee68ed"),
    }
    dips = {
        1e-6: DipScan(center=841152.299210879, full_width=15219.875276038656,
                      half_width=7609.937638019328, depth=1.000933292610969,
                      level=0.5005658832075428),
        5e-6: DipScan(center=837959.4368221936, full_width=66906.53071670327,
                      half_width=33453.26535835164, depth=1.0057616630167858,
                      level=0.502981590019495),
        20e-6: DipScan(center=825769.3128736255, full_width=206041.5750460308,
                       half_width=103020.7875230154, depth=1.0305861754043737,
                       level=0.5153969762084538),
    }
    for power, want in digests.items():
        op = derive_operating_point(replace(default_params(),
                                            drive_power=power,
                                            eff_detuning=WM, bath_temp=20e-3))
        spec = output_spectra(default_grid(op, 200001), op)
        got = tuple(hashlib.sha256(getattr(spec, ch).tobytes()).hexdigest()
                    for ch in ("R", "Tx", "Sv", "St", "Scout", "Sdout"))
        assert got == want
        assert eit_linewidth_scan(op) == dips[power]


def test_no_state_between_calls(op_5uw, capsys):
    # each call forms its scratch afresh: grid A, then a grid B of another
    # size and window, then A again give A's bytes, and so do two runs of
    # the spectrum command in one process
    from omrouter import cli
    op = op_5uw
    a = default_grid(op, 4001)
    b = np.linspace(0.7 * WM, 1.3 * WM, 2 * kernels.BLOCK + 3)
    rows = ("R", "Tx", "Sv", "St", "Scout", "Sdout")
    first = output_spectra(a, op)
    output_spectra(b, op)
    again = output_spectra(a, op)
    for name in rows:
        assert getattr(first, name).tobytes() == getattr(again, name).tobytes()
    runs = []
    for _ in range(2):
        assert cli.main(["spectrum"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1] and runs[0].count("\n") == 4002


def test_output_spectra_rows_share_one_table(op_5uw):
    spec = output_spectra(default_grid(op_5uw), op_5uw)
    table = spec.R.base
    assert table.shape == (6, spec.grid.size)
    for row, ch in enumerate(("R", "Tx", "Sv", "St", "Scout", "Sdout")):
        assert getattr(spec, ch).base is table
        assert np.shares_memory(getattr(spec, ch), table[row])


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
    # its table of six 200,001-point outputs (9.6 MB), and the dip scan
    # forms only the grid points it evaluates.  Whole-grid temporaries
    # took 31 and 27 MB.
    grid = default_grid(op_5uw, 200001)
    spectra, peak = _peak_mb(lambda: output_spectra(grid, op_5uw))
    assert spectra.Sdout.size == 200001
    assert peak <= 12.0
    _, peak = _peak_mb(lambda: eit_linewidth_scan(op_5uw))
    assert peak <= 2.0


@pytest.mark.parametrize("n_points", [0, 1, -3, 2.5, 4001.0, True, "5",
                                      None,
                                      pytest.param(10 ** 400, id="10**400"),
                                      pytest.param(2 ** 62, id="2**62")])
def test_default_grid_refuses_fewer_than_two_points(op_5uw, n_points):
    # 1 and 0 gave one point and an empty array, which output_spectra
    # refused only later; past what numpy can size, numpy raised a bare
    # ValueError
    with pytest.raises(InvalidParameterError, match="n_points"):
        default_grid(op_5uw, n_points)
    grid = default_grid(op_5uw, np.int64(2))
    assert grid.tolist() == [0.5 * op_5uw.mech_freq, 1.5 * op_5uw.mech_freq]


def test_dip_scan_requires_drive(op_off):
    with pytest.raises(InvalidParameterError):
        eit_linewidth_scan(op_off)


# the window must be two finite numbers 0 < lo < hi with hi*omega_m finite
@pytest.mark.parametrize("window", [(1.5, 0.5), (0.0, 1.0), (0.5, math.inf),
                                    (0.5,), (0.5, 1.5, 2.0), "ab", None,
                                    (0.5, 1e308), (0.5, 10 ** 400),
                                    ("0.5", "1.5"), (True, 1.5)])
def test_dip_scan_rejects_a_bad_window(op_5uw, window):
    with pytest.raises(InvalidParameterError, match="bad scan window"):
        eit_linewidth_scan(op_5uw, window=window)


def test_dip_scan_window_where_d_overflows_raises(op_5uw):
    # 1e300*omega_m is finite, but d's scale there is not: the scan says
    # so up front, as output_spectra does, with no RuntimeWarning (an
    # error in this suite) from the kernel on the way
    with pytest.raises(NumericalFailureError, match="overflows on the grid"):
        eit_linewidth_scan(op_5uw, window=(0.5, 1e300))


def test_dip_narrower_than_closed_form_near_mode_splitting(op_5uw):
    # the measured dip runs ~17% below the perturbative width at 5 uW
    ratio = eit_linewidth_scan(op_5uw).half_width / eit_linewidth(op_5uw)
    assert ratio == pytest.approx(0.8345, abs=5e-3)


# --------------------------------------------------------------- guard rail

_POINTWISE = (response_E, reflection_R, transmission_T, vacuum_noise,
              thermal_noise)


def test_near_singular_denominator_raises():
    # one guard serves every pointwise function, Sv and St included,
    # which divide by the same |d|^2
    from omrouter import assess_stability, max_stable_power
    blue = replace(default_params(), eff_detuning=-WM)
    threshold = max_stable_power(blue, 1e-6, rel_tol=1e-12)
    op = derive_operating_point(replace(blue, drive_power=threshold))
    report = assess_stability(op)
    worst = report.roots[np.argmax(report.roots.imag)]
    for channel in _POINTWISE:
        with pytest.raises(NumericalFailureError, match="near-singular"):
            channel(worst.real, op)


@pytest.mark.parametrize("channel", _POINTWISE,
                         ids=[f.__name__ for f in _POINTWISE])
def test_pointwise_functions_refuse_an_unstable_point(channel):
    # blue-detuned at 1 uW, far past its 4.8e-11 W threshold: R(omega_m)
    # would read 1.01, with no word that the fluctuations grow
    from omrouter import UnstableOperatingPointError
    op = derive_operating_point(replace(default_params(), eff_detuning=-WM,
                                        drive_power=1e-6))
    with pytest.raises(UnstableOperatingPointError):
        channel(WM, op)
    with pytest.raises(UnstableOperatingPointError):
        channel(default_grid(op), op)


@pytest.mark.parametrize("channel", _POINTWISE,
                         ids=[f.__name__ for f in _POINTWISE])
def test_pointwise_functions_run_the_kernel_once(monkeypatch, op_5uw,
                                                 channel):
    # the guard reads D from kernels.factored, so E and d are formed once
    # a call, by the grid kernel's rows; the guard used to form them too
    calls = []
    amplitude = kernels._amplitude

    def counted(w, op, *scratch):
        calls.append(w)
        return amplitude(w, op, *scratch)

    monkeypatch.setattr(kernels, "_amplitude", counted)
    channel(WM, op_5uw)
    assert len(calls) == 1
    channel(np.linspace(0.9 * WM, 1.1 * WM, 5), op_5uw)
    assert len(calls) == 2


def _rad_s_guard_refuses(omega, op):
    """The pointwise guard as it was written in rad/s: |d| from the grid
    kernel against 1e-12 of d's cancellation-free scale."""
    aw = abs(omega)
    mech = op.eff_mass * (op.mech_freq ** 2 + aw * aw + op.gamma_m * aw)
    cav = abs(2.0 * op.cavity_decay - 1j * omega) ** 2 \
        + op.eff_detuning ** 2
    scale = mech * cav + abs(kernels.drive_term(op))
    return bool(abs(denominator_d(omega, op)) < 1e-12 * scale)


def test_record_guard_refuses_where_the_rad_s_guard_did():
    # 64 powers below each of three blue thresholds, down to 2^-51.5 of
    # them, and each pole's real part moved by 0, 1e-13 and 1e-9: 2,304
    # decisions, of which the rad/s guard refuses 1,024
    from omrouter import assess_stability, max_stable_power
    refused = 0
    for detuning in (-0.95, -1.0, -1.05):
        blue = replace(default_params(), eff_detuning=detuning * WM)
        threshold = max_stable_power(blue, 1e-6)
        for k in range(64):
            power = threshold * (1.0 - 2.0 ** -(20.0 + k / 2.0))
            op = derive_operating_point(replace(blue, drive_power=power))
            for root in assess_stability(op).roots:
                for factor in (1.0, 1.0 + 1e-13, 1.0 + 1e-9):
                    omega = root.real * factor
                    want = _rad_s_guard_refuses(omega, op)
                    try:
                        reflection_R(omega, op)
                    except NumericalFailureError:
                        refused += 1
                        assert want, omega
                    else:
                        assert not want, omega
    assert refused == 1024
