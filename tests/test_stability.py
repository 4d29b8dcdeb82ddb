import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omrouter import (InvalidParameterError, NumericalFailureError,
                      UnstableOperatingPointError, assess_stability,
                      d_polynomial_coeffs, default_grid, default_params,
                      denominator_d, derive_operating_point,
                      eit_linewidth_scan, kernels, max_stable_power,
                      output_spectra, routing_probabilities,
                      switching_contrast)
from omrouter.operating_point import HBAR
from omrouter.stability import poles

WM = default_params().mech_freq
KAPPA = WM / 10.0


def _op(power, detuning=WM):
    return derive_operating_point(replace(default_params(),
                                          drive_power=power,
                                          eff_detuning=detuning))


def _poly_eval(coeffs, w):
    return sum(c * w ** (len(coeffs) - 1 - k) for k, c in enumerate(coeffs))


def test_leading_coefficient_is_the_mass(op_5uw):
    coeffs = d_polynomial_coeffs(op_5uw)
    assert coeffs[0] == op_5uw.eff_mass


def test_coefficients_reproduce_the_denominator(op_5uw):
    rng = np.random.default_rng(11)
    coeffs = d_polynomial_coeffs(op_5uw)
    for _ in range(100):
        w = (rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)) * WM
        direct = denominator_d(w, op_5uw)
        poly = _poly_eval(coeffs, w)
        scale = sum(abs(c) * abs(w) ** (len(coeffs) - 1 - k)
                    for k, c in enumerate(coeffs))
        assert abs(direct - poly) <= 1e-9 * scale


def _expanded_coeffs(op):
    # d's quartic expanded by hand, every square a product: the reference
    # d_polynomial_coeffs must equal bit for bit
    m, k, gm, dl = op.eff_mass, op.cavity_decay, op.gamma_m, op.eff_detuning
    wm2 = op.mech_freq * op.mech_freq
    cav0 = 4.0 * (k * k) + dl * dl
    return np.array([m, 1j * m * (4.0 * k + gm),
                     -m * (cav0 + 4.0 * k * gm + wm2),
                     -1j * m * (gm * cav0 + 4.0 * k * wm2),
                     m * wm2 * cav0 - 2.0 * HBAR * (op.g ** 2 * op.n_cav) * dl])


@pytest.mark.filterwarnings("ignore::omrouter.RegimeWarning")
def test_d_coefficients_are_the_direct_expansion_bit_for_bit():
    # on the benchmark's powers at the three design detunings, and on a
    # seeded sweep of random geometries and drives.  With glibc's pow on
    # x86-64, omega_m**2 rounds otherwise than omega_m*omega_m on 4 of the
    # sweep's 3,000 omega_m
    rng = np.random.default_rng(3000)
    points = [_op(power, detuning * WM) for power in
              (0.0, 1e-6, 2e-6, 3e-6, 5e-6, 7e-6, 10e-6, 12e-6, 15e-6, 18e-6,
               20e-6) for detuning in (0.95, 1.0, 1.05)]
    for _ in range(3000):
        wm = 10 ** rng.uniform(3.0, 8.0)
        points.append(derive_operating_point(replace(
            default_params(), mech_freq=wm,
            eff_mass=10 ** rng.uniform(-13.0, -8.0),
            quality=10 ** rng.uniform(2.0, 8.0),
            cavity_decay=wm * 10 ** rng.uniform(-3.0, 0.5),
            eff_detuning=wm * rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0),
            drive_power=10 ** rng.uniform(-10.0, -3.0))))
    for op in points:
        assert np.array_equal(d_polynomial_coeffs(op), _expanded_coeffs(op))


def test_drive_enters_only_the_constant_term(op_off, op_20uw):
    a = d_polynomial_coeffs(op_off)
    b = d_polynomial_coeffs(op_20uw)
    assert np.array_equal(a[:4], b[:4])
    assert a[4] != b[4]


def test_zero_drive_roots_are_the_bare_modes(op_off):
    gm = op_off.gamma_m
    mech = math.sqrt(WM ** 2 - gm ** 2 / 4.0)
    expected = np.array(sorted(
        [-WM - 2j * KAPPA, -mech - 0.5j * gm, mech - 0.5j * gm,
         WM - 2j * KAPPA],
        key=lambda z: (z.real, z.imag)))
    report = assess_stability(op_off)
    np.testing.assert_allclose(report.roots, expected, rtol=0, atol=1e-8 * WM)


def test_margins_and_flags_at_the_reference_powers(op_off, op_5uw, op_20uw):
    for op, margin in ((op_off, 0.38270310372024124),
                       (op_5uw, 65708.42629411086),
                       (op_20uw, 84194.87446773276)):
        report = assess_stability(op)
        assert report.stable
        assert report.margin == pytest.approx(margin, rel=1e-6)


def test_margin_equals_worst_root(op_5uw):
    report = assess_stability(op_5uw)
    assert report.margin == pytest.approx(-np.max(report.roots.imag), rel=0,
                                          abs=0.0)


def test_blue_detuning_goes_unstable():
    report = assess_stability(_op(1e-6, detuning=-WM))
    assert not report.stable
    assert report.margin < 0.0


def test_root_residuals_are_tiny(op_5uw, op_20uw):
    for op in (op_5uw, op_20uw):
        coeffs = d_polynomial_coeffs(op)
        for r in assess_stability(op).roots:
            scale = sum(abs(c) * abs(r) ** (len(coeffs) - 1 - k)
                        for k, c in enumerate(coeffs))
            assert abs(denominator_d(r, op)) <= 1e-12 * scale


@pytest.mark.parametrize("which", [0, 3])
def test_residual_guard_rejects_one_wrong_root(monkeypatch, op_5uw, which):
    roots = np.roots

    def one_off(p):
        r = roots(p)
        r[which] *= 1.0 + 1e-3
        return r

    monkeypatch.setattr(np, "roots", one_off)
    with pytest.raises(NumericalFailureError, match="root residual"):
        assess_stability(op_5uw)


# the default geometry's exceptional point, where the membrane pole and the
# cavity pole merge: 5% above the 5 uW design drive
EXCEPTIONAL_POWER = 5.2507297778e-6


def test_assessment_holds_at_the_exceptional_point():
    # the sweep reaches the merge, where the two closest poles lie within
    # 1e-6*omega_m of each other; the residual check still passes on every
    # power, and the verdict is exact
    params = default_params()
    closest = math.inf
    for rel in np.linspace(-3e-9, 3e-9, 6001):
        op = derive_operating_point(replace(
            params, drive_power=EXCEPTIONAL_POWER * (1.0 + rel)))
        assert assess_stability(op).stable is kernels.is_stable(op)
        roots, _ = poles(op)
        gaps = np.abs(roots[:, None] - roots)[~np.eye(4, dtype=bool)]
        closest = min(closest, gaps.min())
    assert closest < 1e-6


def test_repeated_assessment_is_deterministic(op_20uw):
    a = assess_stability(op_20uw)
    b = assess_stability(op_20uw)
    assert np.array_equal(a.roots, b.roots)
    assert a.margin == b.margin
    assert a.stable == b.stable


@pytest.mark.filterwarnings("ignore::omrouter.RegimeWarning")
def test_root_order_holds_under_one_ulp_nudges():
    # an overdamped membrane has a pole pair on the imaginary axis whose
    # real parts are rounding noise; nudging omega_m by 1-3 ulp must not
    # swap the rows they print on
    for quality in np.linspace(0.29, 0.31, 21):
        params = replace(default_params(), quality=float(quality))
        ref = assess_stability(derive_operating_point(params)).roots
        for steps in (-3, -2, -1, 1, 2, 3):
            wm = params.mech_freq
            for _ in range(abs(steps)):
                wm = math.nextafter(wm, math.copysign(math.inf, steps))
            roots = assess_stability(derive_operating_point(
                replace(params, mech_freq=wm))).roots
            assert np.max(np.abs(roots - ref)) <= 1e-9 * np.max(np.abs(ref))


# ------------------------------------------------------------- power search

def test_red_detuned_search_returns_the_cap():
    params = default_params()
    assert max_stable_power(params, 20e-6) == 20e-6


def test_zero_cap_is_zero():
    assert max_stable_power(default_params(), 0.0) == 0.0


def test_blue_detuned_threshold_bracketed():
    blue = replace(default_params(), eff_detuning=-WM)
    thr = max_stable_power(blue, 1e-6)
    assert 3e-11 < thr < 7e-11
    assert assess_stability(derive_operating_point(
        replace(blue, drive_power=thr))).stable
    assert not assess_stability(derive_operating_point(
        replace(blue, drive_power=2.0 * thr))).stable


def test_blue_detuned_stability_is_an_interval():
    blue = replace(default_params(), eff_detuning=-WM)
    flags = [assess_stability(derive_operating_point(
        replace(blue, drive_power=p))).stable
             for p in np.logspace(-13, -6, 25)]
    # once the drive destabilises the branch it stays unstable
    assert flags == sorted(flags, reverse=True)


def test_search_rejects_bad_arguments():
    params = default_params()
    with pytest.raises(InvalidParameterError):
        max_stable_power(params, -1e-6)
    # an int past the float range and a string raised numpy's TypeError
    for p_max in (10 ** 400, "1e-6"):
        with pytest.raises(InvalidParameterError, match="p_max"):
            max_stable_power(params, p_max)
    with pytest.raises(InvalidParameterError, match="rel_tol"):
        max_stable_power(params, 1e-6, rel_tol=10 ** 400)
    with pytest.raises(InvalidParameterError):
        max_stable_power(params, float("nan"))
    with pytest.raises(InvalidParameterError):
        max_stable_power(params, 1e-6, rel_tol=0.0)
    with pytest.raises(InvalidParameterError):
        max_stable_power(params, 1e-6, rel_tol=1.5)


# ------------------------------------------------- exact Hurwitz threshold

BLUE_POWERS = (1e-6, 2e-6, 3e-6, 5e-6, 7e-6, 10e-6, 12e-6, 15e-6, 18e-6,
               20e-6)


def _stable(params, power):
    return assess_stability(derive_operating_point(
        replace(params, drive_power=power))).stable


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-15])
def test_threshold_contract_holds_at_tight_tolerances(rel_tol):
    # the bisection over a root-sign verdict broke this at 1e-9 on three
    # of these thirty blue twins
    for detuning in (0.95, 1.0, 1.05):
        blue = replace(default_params(), eff_detuning=-detuning * WM)
        for p_max in BLUE_POWERS:
            p = max_stable_power(blue, p_max, rel_tol=rel_tol)
            assert 0.0 < p < p_max
            assert _stable(blue, p)
            assert not _stable(blue, p * (1.0 + 2.0 * rel_tol))


@pytest.mark.parametrize("detuning, threshold", [
    (-1.0, 4.8211467454e-11), (-1.05, 5.6279888532e-11),
    (-0.95, 4.6476787273e-11)])
def test_blue_threshold_closed_form_values(detuning, threshold):
    blue = replace(default_params(), eff_detuning=detuning * WM)
    assert max_stable_power(blue, 1e-6) == pytest.approx(threshold,
                                                         rel=1e-10, abs=0.0)


def test_red_static_bound():
    # a0 = 0: a pole crosses the axis at omega = 0
    params = default_params()
    p = max_stable_power(params, 1.0)
    assert p == pytest.approx(1.3652e-4, rel=1e-4)
    for power, stable in ((p, True), (p * (1.0 + 1e-15), False)):
        assert kernels.is_stable(derive_operating_point(
            replace(params, drive_power=power))) is stable


def test_report_at_the_red_static_bound_matches_the_verdict():
    # a root near omega = 0 is smaller there than the rounding of c0, so the
    # residual guard measures c0 by its cancellation-free size
    params = default_params()
    p = max_stable_power(params, 1.0)
    powers = [p]
    for _ in range(8):
        powers = ([math.nextafter(powers[0], 0.0)] + powers
                  + [math.nextafter(powers[-1], 1.0)])
    for power in powers:
        op = derive_operating_point(replace(params, drive_power=power))
        assert assess_stability(op).stable is kernels.is_stable(op)


def test_threshold_takes_a_few_verdicts(monkeypatch):
    # a bisection from 1 W down to the 5e-11 W blue threshold takes ~40
    calls = []
    verdict = kernels.is_stable
    monkeypatch.setattr(kernels, "is_stable",
                        lambda op: calls.append(op) or verdict(op))
    for detuning in (-1.0, 1.0):
        calls.clear()
        max_stable_power(replace(default_params(), eff_detuning=detuning * WM),
                         1.0)
        assert len(calls) <= 16


def _hierarchy_params(draw):
    kappa = WM * draw(st.floats(0.011, 0.09))
    quality = draw(st.floats(11.0 * WM / kappa, 1e8))
    detuning = WM * draw(st.sampled_from([-1.0, 1.0])) \
        * draw(st.floats(0.2, 2.0))
    return replace(default_params(), cavity_decay=kappa, quality=quality,
                   eff_detuning=detuning)


def _mp_stable(op):
    """Stability from 50-digit roots of d(i*s)/m, built from the op's fields.

    The float d_polynomial_coeffs are not used: their rounding moves the
    threshold of the rounded polynomial far more than 1e-12.
    """
    with mpmath.workdps(50):
        wm, gm, k = (mpmath.mpf(v) for v in (op.mech_freq, op.gamma_m,
                                             op.cavity_decay))
        delta, m = mpmath.mpf(op.eff_detuning), mpmath.mpf(op.eff_mass)
        x = 2 * mpmath.mpf(HBAR) * mpmath.mpf(op.g) ** 2 \
            * mpmath.mpf(op.n_cav) * delta / m
        cav0 = 4 * k * k + delta * delta
        # s = wm*z, monic in z
        coeffs = [1, (4 * k + gm) / wm,
                  (cav0 + 4 * k * gm + wm * wm) / wm ** 2,
                  (gm * cav0 + 4 * k * wm * wm) / wm ** 3,
                  (wm * wm * cav0 - x) / wm ** 4]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=100)
        return all(mpmath.re(r) < 0 for r in roots)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_threshold_brackets_the_exact_roots(data):
    params = _hierarchy_params(data.draw)
    p_max = 1e3
    p = max_stable_power(params, p_max)
    assume(p < p_max)
    below = derive_operating_point(replace(params, drive_power=p * (1 - 1e-12)))
    above = derive_operating_point(replace(params, drive_power=p * (1 + 1e-12)))
    assert _mp_stable(below) and kernels.is_stable(below)
    assert not _mp_stable(above) and not kernels.is_stable(above)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verdict_matches_the_margin_sign_away_from_the_threshold(data):
    params = _hierarchy_params(data.draw)
    power = 10 ** data.draw(st.floats(-12.0, 0.0))
    report = assess_stability(derive_operating_point(
        replace(params, drive_power=power)))
    assume(abs(report.margin) > 1e-6 * WM)
    assert report.stable == (report.margin > 0.0)


def test_zero_detuning_is_stable_at_any_power():
    params = replace(default_params(), eff_detuning=0.0)
    assert max_stable_power(params, 1e100) == 1e100


@pytest.mark.parametrize("call", ["output_spectra", "routing_probabilities",
                                  "eit_linewidth_scan", "switching_contrast"])
def test_unstable_point_is_refused_by_the_library(call):
    # blue twin of the design point, probe line on the window at omega_m
    params = replace(default_params(), eff_detuning=-WM, input_center=WM)
    op = derive_operating_point(params)
    run = {"output_spectra": lambda: output_spectra(default_grid(op), op),
           "routing_probabilities": lambda: routing_probabilities(op),
           "eit_linewidth_scan": lambda: eit_linewidth_scan(op),
           "switching_contrast": lambda: switching_contrast(params, 5e-6)}
    with pytest.raises(UnstableOperatingPointError, match="unstable"):
        run[call]()
