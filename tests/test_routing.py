import cmath
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omrouter import (InvalidParameterError, NumericalFailureError,
                      assess_stability, default_params,
                      derive_operating_point, eit_linewidth,
                      lorentzian_band_mass, reflection_R, routing,
                      routing_probabilities, switching_contrast,
                      thermal_noise, transmission_T, vacuum_noise)
from omrouter import kernels, stability
from omrouter.operating_point import HBAR, KB

WM = default_params().mech_freq
# a bath at which hbar*omega/(kB*T) passes 0.01 on the default band, so
# that a drive-on report falls back to the quadrature
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


def _band_residues(num, poles, lo, hi):
    """int_lo^hi num(w) / prod(w - p) dw over simple poles p, exactly.

    num is a polynomial of degree below len(poles) - 1, so the integral is
    the sum over the poles of residue*[log(hi-p) - log(lo-p)], the residue
    being num(p)/prod(p - q) over the other poles q; no pole is real, so
    the principal logarithm is continuous along the band.
    """
    total = 0j
    for i, p in enumerate(poles):
        residue = num(p)
        for j, q in enumerate(poles):
            if j != i:
                residue /= p - q
        total += residue * (cmath.log(hi - p) - cmath.log(lo - p))
    return total.real


def _line_poles(op):
    center, gamma = op.input_center, op.input_bandwidth
    return [center + 1j * gamma, center - 1j * gamma]


def _two_lorentzian_band_integral(lo, hi, center, gamma, delta, width):
    """int_lo^hi (gamma/pi)/((w-center)^2+gamma^2)
                 * width^2/((w-delta)^2+width^2) dw, exactly."""
    poles = (center + 1j * gamma, center - 1j * gamma,
             delta + 1j * width, delta - 1j * width)
    return gamma / math.pi * width * width * _band_residues(
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
    refl = op.input_bandwidth / math.pi * _band_residues(
        lambda p: (p - delta) ** 2, poles, lo, hi)
    mass = lorentzian_band_mass(lo, hi, op.input_center, op.input_bandwidth)
    rep = routing_probabilities(op)
    assert rep.p_reflect == pytest.approx(refl / mass, rel=1e-10, abs=0.0)
    assert rep.quad_error <= 1e-10


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
        scale * _band_residues(abs2(r_num), poles, lo, hi), rel=1e-10, abs=0.0)
    assert rep.p_transmit * mass == pytest.approx(
        scale * _band_residues(abs2(e_num), poles, lo, hi), rel=1e-10, abs=0.0)
    sv = _band_residues(lambda p: kernels.sv_numerator(op) / (m * m),
                        noise_poles, lo, hi)
    assert rep.vacuum_leak * op.mech_freq == pytest.approx(sv, rel=1e-10,
                                                           abs=0.0)


@pytest.mark.parametrize("power", [0.0, 5e-6, 20e-6])
@pytest.mark.parametrize("width", [0.0005, 0.01, 0.1])
def test_integrated_line_mass_is_exact(power, width):
    op = _op(drive_power=power, input_bandwidth=width * WM)
    lo, hi = _default_band(op)
    (mass, *_), _, _ = routing._band_integrals(op, lo, hi)
    # the quadrature integrates on the omega/omega_m axis
    assert mass * op.mech_freq == pytest.approx(
        lorentzian_band_mass(lo, hi, op.input_center, op.input_bandwidth),
        rel=1e-12, abs=0.0)


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
    # the drive-off report comes from the empty cavity's closed form; the
    # general band integrator, run on the same point, is its reference
    op = derive_operating_point(params)
    rep = routing_probabilities(op)
    (mass, refl, trans, sv, st_), _, _ = routing._band_integrals(op, *rep.band)
    assert rep.p_reflect == pytest.approx(refl / mass, rel=1e-10, abs=0.0)
    assert rep.p_transmit == pytest.approx(trans / mass, rel=1e-10, abs=0.0)
    assert sv == st_ == 0.0 == rep.vacuum_leak == rep.thermal_leak


def test_drive_off_closed_form_runs_no_quadrature_pass(op_off, monkeypatch):
    passes = []
    gk21 = routing._gk21

    def counted(a, b, op):
        passes.append(a.size)
        return gk21(a, b, op)

    monkeypatch.setattr(routing, "_gk21", counted)
    rep = routing_probabilities(op_off)
    assert passes == []
    assert type(rep.quad_error) is float and rep.quad_error == 0.0
    assert type(rep.n_evals) is int and rep.n_evals == 0
    assert all(type(getattr(rep, name)) is float for name in
               ("p_reflect", "p_transmit", "vacuum_leak", "thermal_leak"))
    # the on state of a switch still takes its quadrature passes where St
    # is not polynomial on the band: a bath below 1 mK
    switching_contrast(replace(default_params(), bath_temp=_SUB_MK_BATH), 5e-6)
    assert 1 <= len(passes) <= 2


def test_closed_form_logarithm_of_zero_raises(op_off):
    # a line 1e-300 rad/s wide at the band's lower edge and the cavity
    # 1e30 rad/s away: one ratio under a logarithm underflows to 0
    op = replace(op_off, eff_detuning=1e30, input_bandwidth=1e-300)
    center = op.input_center
    with pytest.raises(NumericalFailureError, match="failed"):
        routing_probabilities(op, band=(center, center + 1.0))


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


def test_report_carries_its_quadrature_diagnostics():
    # a bath below 1 mK takes the drive-on report to the quadrature
    rep = routing_probabilities(_op(bath_temp=_SUB_MK_BATH))
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


# the benchmark's routing pool: every report, drive on or off, at every
# bath temperature of the pool, comes from a closed form and takes no
# qk21 pass
@pytest.mark.parametrize("power", [0.0, 1e-6, 2e-6, 3e-6, 5e-6, 7e-6, 10e-6,
                                   12e-6, 15e-6, 18e-6, 20e-6])
def test_pool_reports_take_at_most_two_passes(power, monkeypatch):
    passes = []
    gk21 = routing._gk21

    def counted(a, b, op):
        passes.append(a.size)
        return gk21(a, b, op)

    monkeypatch.setattr(routing, "_gk21", counted)
    for temp in (0.0, 10e-3, 20e-3, 30e-3, 40e-3, 50e-3):
        for width in (0.001, 0.002, 0.005, 0.01, 0.015, 0.02):
            rep = routing_probabilities(_op(drive_power=power, bath_temp=temp,
                                            input_bandwidth=width * WM))
            assert passes == [], (temp, width, passes)
            assert rep.quad_error == 0.0 and rep.n_evals == 0


def test_graded_start_is_refused_before_it_is_built(monkeypatch):
    # a line 1e-300*omega_m wide would need about 2,000 cuts to grade
    # toward; the count is checked from log2(band/Gamma) instead
    monkeypatch.setattr(routing, "_gk21", None)
    op = _op(input_bandwidth=1e-300 * WM)
    with pytest.raises(NumericalFailureError, match="first partition"):
        routing._band_integrals(op, *_default_band(op))


def test_non_finite_integral_raises(monkeypatch):
    # an integrand that is inf (here St at every node) gives inf panel sums
    # and NaN error estimates; the loop used to split nothing and run
    # forever on a NaN error estimate
    fill = kernels.fill_channels

    def overflowing(flat, op, refl, trans, sv, st_):
        fill(flat, op, refl, trans, sv, st_)
        st_[:] = math.inf

    monkeypatch.setattr(kernels, "fill_channels", overflowing)
    op = _op()
    with pytest.raises(NumericalFailureError, match="not finite"):
        routing._band_integrals(op, *_default_band(op))


def test_quadrature_of_a_finite_st_at_an_extreme_bath_is_finite():
    # at 1e305 K St is finite (3e305 at omega_m); integrated on the
    # omega/omega_m axis its band integral is too, where panel sums in
    # rad/s overflowed.  At the exceptional point the report is the
    # quadrature's; at 5 uW, the closed form's
    quad = routing_probabilities(_op(drive_power=_EP, bath_temp=1e305))
    closed = routing_probabilities(_op(drive_power=5e-6, bath_temp=1e305))
    assert quad.n_evals > 0 and closed.n_evals == 0
    assert quad.thermal_leak == pytest.approx(4.54e304, rel=1e-2)
    assert closed.thermal_leak == pytest.approx(4.54e304, rel=1e-2)


def test_pass_that_splits_nothing_raises(op_5uw, monkeypatch):
    # every panel's estimate exactly at its fair share of the tolerance,
    # while the rounded sum of the shares is over it: splitting cannot help
    lo, hi = _default_band(op_5uw)
    center = op_5uw.input_center
    n = routing._first_edges(op_5uw, lo - center, hi - center).size - 1

    def over(x):
        tol = routing._REL_TOL * np.full(n, x).sum()
        return np.full(n, tol / n).sum() > tol

    scale = next(x for x in 1.0 + np.arange(1, 4096) * 2.0 ** -30 if over(x))

    def at_share(a, b, op):
        val = np.full((5, a.size), scale)
        tol = routing._REL_TOL * np.abs(val.sum(axis=1))
        return val, np.repeat((tol / a.size)[:, None], a.size, axis=1)

    monkeypatch.setattr(routing, "_gk21", at_share)
    with pytest.raises(NumericalFailureError, match="no panel"):
        routing._band_integrals(op_5uw, lo, hi)


# ----------------------------------------- the drive-on closed form

# the default geometry's exceptional point [W], where two poles of d merge
_EP = 5.2507297778e-6


def _mp_polymul(p, q):
    out = [mpmath.mpc(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _mp_drive_on_report(op, lo, hi):
    """(p_reflect, p_transmit, vacuum_leak, thermal_leak) at 50 digits.

    The float fields of op are taken exactly.  On the axis u = omega/omega_m
    every channel is a ratio over |D(u)|^2, D = d/(m*omega_m^4) being a
    monic quartic, whose zeros mpmath.polyroots finds.  Each rational band
    integral is the sum over its poles p of residue*[log(b-p) - log(a-p)].
    St carries the true Bose factor: its numerator n(u)*B(theta*u), with
    B(x) = x/(e^x - 1) and theta = hbar*omega_m/(kB*T), is not a
    polynomial.  Dividing n times B's Taylor series to x^30 by |D|^2 leaves
    a polynomial part S, integrated exactly, and a remainder equal to
    n*B at the poles, integrated by residues.
    """
    with mpmath.workdps(50):
        mpf, mpc = mpmath.mpf, mpmath.mpc
        wm = mpf(op.mech_freq)
        k = mpf(op.cavity_decay) / wm
        gm = mpf(op.gamma_m) / wm
        dl = mpf(op.eff_detuning) / wm
        h = (mpf(HBAR) * mpf(kernels.coupling(op))
             / (mpf(op.eff_mass) * wm ** 3))
        a, b = mpf(lo) / wm, mpf(hi) / wm
        c, gw = mpf(op.input_center) / wm, mpf(op.input_bandwidth) / wm
        i = mpc(0, 1)
        # ascending coefficients of D
        d = _mp_polymul([mpc(1), -i * gm, mpc(-1)],
                        [(2 * k) ** 2 + dl ** 2, -4 * i * k, mpc(-1)])
        d[0] -= 2 * h * dl
        zeros = mpmath.polyroots(d[::-1], maxsteps=500, extraprec=400)
        noise_poles = list(zeros) + [mpmath.conj(z) for z in zeros]
        line_poles = [mpc(c, gw), mpc(c, -gw)]

        def band(num, poles):
            total = mpc(0)
            for j, p in enumerate(poles):
                residue = num(p)
                for m, q in enumerate(poles):
                    if m != j:
                        residue /= p - q
                total += residue * (mpmath.log(b - p) - mpmath.log(a - p))
            return total.real

        def d_at(u):
            return sum(coef * u ** n for n, coef in enumerate(d))

        def e_num(u):
            return 2 * k * ((1 - u * u - i * gm * u) * (2 * k - i * (dl + u))
                            + i * h)

        def abs2(f):
            return lambda p: f(p) * mpmath.conj(f(mpmath.conj(p)))

        weight = gw / mpmath.pi
        mass = (mpmath.atan((b - c) / gw) - mpmath.atan((a - c) / gw)) \
            / mpmath.pi
        refl = weight * band(abs2(lambda u: e_num(u) - d_at(u)),
                             noise_poles + line_poles)
        trans = weight * band(abs2(e_num), noise_poles + line_poles)
        sv = 8 * (k * h) ** 2 * band(lambda p: mpc(1), noise_poles)
        st = mpf(0)
        kbt = mpf(KB) * mpf(op.bath_temp)
        if kbt:
            theta = mpf(HBAR) * wm / kbt
            side = [dl ** 2 + 4 * k * k, 2 * dl, mpf(1)]
            series = [mpmath.bernoulli(n) / mpmath.factorial(n) * theta ** n
                      for n in range(31)]
            num = _mp_polymul(side, series)
            denom = _mp_polymul(d, [mpmath.conj(x) for x in d])
            part = mpc(0)
            for deg in range(len(num) - 1, 7, -1):
                coef = num[deg]
                part += coef * (b ** (deg - 7) - a ** (deg - 7)) / (deg - 7)
                for n in range(9):
                    num[deg - 8 + n] -= coef * denom[n]

            def bose(p):
                x = theta * p
                return (p * p + 2 * dl * p + dl ** 2 + 4 * k * k) \
                    * x / mpmath.expm1(x)

            st = 4 * k * gm * h / theta * (band(bose, noise_poles)
                                           + part.real)
        return tuple(float(v) for v in (refl / mass, trans / mass, sv, st))


def _report_values(rep):
    return (rep.p_reflect, rep.p_transmit, rep.vacuum_leak, rep.thermal_leak)


def _quadrature_report(op, band):
    """The report routing_probabilities makes from the qk21 pass."""
    (mass, refl, trans, sv, st_), quad_error, n_evals = \
        routing._band_integrals(op, *band)
    return routing.RoutingReport(
        p_reflect=refl / mass, p_transmit=trans / mass,
        vacuum_leak=sv, thermal_leak=st_, band=band, quad_error=quad_error,
        n_evals=n_evals)


def _assert_near_quadrature(rep, op):
    quad = _quadrature_report(op, rep.band)
    for value, ref in zip(_report_values(rep), _report_values(quad)):
        assert value == pytest.approx(ref, rel=1e-10, abs=0.0)


def _assert_near_oracle(rep, op):
    exact = _mp_drive_on_report(op, *rep.band)
    for name, value, ref in zip(("p_reflect", "p_transmit", "vacuum_leak",
                                 "thermal_leak"), _report_values(rep), exact):
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0), name


_WIDTHS_AND_BATHS = ((1e-12, 20e-3), (1e-6, 0.0), (1e-3, 0.3), (0.02, 20e-3),
                     (0.1, 10e-3))


@pytest.mark.parametrize("center", [0.95, 1.0, 1.05])
@pytest.mark.parametrize("power", [1e-6, 5e-6, 20e-6, _EP * 0.99,
                                   _EP * 1.01])
def test_drive_on_closed_form_against_mpmath(power, center):
    # off-centre lines, widths from 1e-12*omega_m, and powers 1% from the
    # exceptional point: every report is a closed form, within 1e-12 of
    # the 50-digit residues
    for width, temp in _WIDTHS_AND_BATHS:
        op = _op(drive_power=power, bath_temp=temp,
                 input_bandwidth=width * WM, input_center=center * WM)
        rep = routing_probabilities(op)
        assert rep.quad_error == 0.0 and rep.n_evals == 0, (width, temp)
        _assert_near_oracle(rep, op)


def _closed_form_or_quadrature(op):
    """Whether op's report is a closed form, after checking that it is
    within 1e-12 of the 50-digit residues or is the quadrature's own."""
    rep = routing_probabilities(op)
    if rep.n_evals == 0:
        assert rep.quad_error == 0.0
        _assert_near_oracle(rep, op)
        return True
    assert rep == _quadrature_report(op, rep.band)
    return False


def test_drive_on_closed_form_across_the_exceptional_point():
    # two poles of d merge at the exceptional point, where their residues
    # cancel
    closed = set()
    for step in (0.0, 1e-9, 1e-6, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1):
        for sign in ((1.0,) if step == 0.0 else (1.0, -1.0)):
            if _closed_form_or_quadrature(
                    _op(drive_power=_EP * (1.0 + sign * step))):
                closed.add(step)
    assert {0.0, 1e-9, 1e-6} & closed == set()
    assert {1e-2, 3e-2, 0.1} <= closed


def test_drive_on_closed_form_with_the_line_on_a_pole():
    # the line's pole center + i*Gamma next to an upper pole of d's: the
    # two residues cancel, although d's zeros are well apart
    poles = [r.conjugate() for r in assess_stability(_op()).roots
             if r.real > 0.0]
    assert len(poles) == 2
    for pole in poles:
        closed = set()
        for step in (0.0, 1e-8, 1e-5, 1e-3, 0.1):
            if _closed_form_or_quadrature(
                    _op(input_center=pole.real,
                        input_bandwidth=pole.imag * (1.0 + step))):
                closed.add(step)
        assert 0.1 in closed and {0.0, 1e-8} & closed == set()


# drive on, inside gamma_m << kappa << omega_m, with lines off center; the
# power scales with omega_m^3 so that the drive's share of d stays near
# the default point's
_bright_points = st.builds(
    lambda log_wm, log_kappa, log_gamma, detuning, log_width, center, temp,
    log_power:
        replace(default_params(),
                mech_freq=10 ** log_wm,
                cavity_decay=10 ** (log_wm + log_kappa),
                quality=10 ** -(log_kappa + log_gamma),
                eff_detuning=detuning * 10 ** log_wm,
                input_bandwidth=10 ** (log_wm + log_width),
                input_center=center * 10 ** log_wm,
                drive_power=10 ** log_power * (10 ** log_wm / WM) ** 3,
                bath_temp=temp),
    log_wm=st.floats(5.0, 6.5),
    log_kappa=st.floats(-1.3, -1.0),
    log_gamma=st.floats(-4.0, -1.05),
    detuning=st.floats(0.8, 1.2),
    log_width=st.floats(-6.0, -1.5),
    center=st.floats(0.9, 1.1),
    temp=st.floats(0.0, 0.3),
    log_power=st.floats(-7.0, -4.7),
)


@settings(deadline=None, max_examples=50)
@given(params=_bright_points)
def test_reduced_model_is_d_in_units_of_omega_m(params):
    # the record's monic quartic D = mech*cav - dd, expanded from its
    # factors, times m*omega_m^(4-k), is d_polynomial_coeffs to within
    # _ROUND of each coefficient's cancellation-free size; h and theta
    # scale back to E's numerator and the Bose factor's argument
    op = derive_operating_point(params)
    k2, g, dl, dd, h, theta = kernels.reduced(op)
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
                  <= stability._ROUND * size)
    assert h * m * wm ** 3 == pytest.approx(HBAR * kernels.coupling(op),
                                            rel=stability._ROUND)
    kbt = KB * op.bath_temp
    assert theta == (pytest.approx(HBAR * wm / kbt) if kbt else 0.0)


@pytest.mark.parametrize("temp", [math.inf, math.nan])
def test_reduced_model_never_reads_an_unbounded_bath_as_zero_kelvin(
        op_5uw, temp):
    # hbar*omega_m/(kB*T) is 0.0 at T = inf, as it is at T = 0, but St is
    # not: theta is NaN, the residues decline such a bath, and the
    # quadrature refuses it
    op = replace(op_5uw, bath_temp=temp)
    assert routing._residue_report(op, *_default_band(op)) is None
    with pytest.raises(InvalidParameterError, match="bath_temp"):
        routing_probabilities(op)
    assert math.isnan(kernels.reduced(op)[5])


@pytest.mark.filterwarnings("ignore::omrouter.RegimeWarning")
def test_reduced_model_never_reads_a_hot_bath_as_zero_kelvin():
    # a finite bath so hot that hbar*omega_m/(kB*T) underflows to 0: the
    # residues, which take the point at T = 0, decline it
    wm = 1e-5
    op = _op(mech_freq=wm, cavity_decay=0.1 * wm, eff_detuning=wm,
             input_bandwidth=0.01 * wm, drive_power=5e-6 * (wm / WM) ** 4,
             bath_temp=1e308)
    band = _default_band(op)
    assert routing._residue_report(replace(op, bath_temp=0.0), *band)
    assert routing._residue_report(op, *band) is None
    assert math.isnan(kernels.reduced(op)[5])


@settings(deadline=None, max_examples=50)
@given(params=_bright_points)
def test_drive_on_closed_form_against_quadrature(params):
    op = derive_operating_point(params)
    assume(kernels.is_stable(op))
    lo, hi = _default_band(op)
    rep = routing._residue_report(op, lo, hi)
    assume(rep is not None)
    _assert_near_quadrature(rep, op)


# a third of the benchmark's design pool (list(_design_pool())[::3] of
# tests/test_response.py): its points at T = 0, every zero set of the pool
_DESIGN_THIRD = [{"drive_power": power, "eff_detuning": detuning * WM,
                  "bath_temp": 0.0}
                 for power in (1e-6, 2e-6, 3e-6, 5e-6, 7e-6, 10e-6, 12e-6,
                               15e-6, 18e-6, 20e-6)
                 for detuning in (0.95, 1.0, 1.05)]


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
    zeros, _, backward = routing._hurwitz_zeros(kernels.reduced(op))
    roots, _ = stability.poles(op)
    for root in roots:
        assert min(abs(root - z) for z in zeros) < 1e-12
    assert backward <= stability._ROUND
    _assert_near_quadrature(routing._residue_report(op, *_default_band(op)),
                            op)
