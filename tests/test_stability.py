import math
from dataclasses import replace

import numpy as np
import pytest

from omrouter import (InvalidParameterError, NumericalFailureError,
                      assess_stability,
                      d_polynomial_coeffs, default_params, denominator_d,
                      derive_operating_point, max_stable_power)

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


def test_repeated_assessment_is_deterministic(op_20uw):
    a = assess_stability(op_20uw)
    b = assess_stability(op_20uw)
    assert np.array_equal(a.roots, b.roots)
    assert a.margin == b.margin
    assert a.stable == b.stable


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
    with pytest.raises(InvalidParameterError):
        max_stable_power(params, float("nan"))
    with pytest.raises(InvalidParameterError):
        max_stable_power(params, 1e-6, rel_tol=0.0)
    with pytest.raises(InvalidParameterError):
        max_stable_power(params, 1e-6, rel_tol=1.5)
