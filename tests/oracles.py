"""Exact references and named inputs for the test suite, each written once.

The exact model reads an operating point's float fields as exact numbers
and works at the caller's mpmath precision; it takes nothing from the
package but the constants HBAR and KB.  On u = omega/omega_m

    d(omega) = m*omega_m^4 * D(u),
    D(u) = (1 - u^2 - i*gm*u)*((2*k - i*u)^2 + dl^2) - 2*h*dl,

with k = kappa/omega_m, gm = gamma_m/omega_m, dl = Delta/omega_m and
h = hbar*g^2*|c_s|^2/(m*omega_m^3), g^2*|c_s|^2 being the float the
program forms.  Every rational band integral of the model is the residue
sum of :func:`band_sum` over its poles.

The named inputs are the default geometry, the benchmark's request pools
(perfbench/workloads.py) and the seeded draws that the routing module's
docstring cites.  pytest does not collect this module: its name does not
match test_*.py.
"""

import cmath
import math
from dataclasses import replace

import mpmath
import numpy as np
from hypothesis import strategies as st

from omrouter import (SystemParams, default_params, derive_operating_point,
                      kernels)
from omrouter.operating_point import HBAR, KB

WM = default_params().mech_freq
KAPPA = WM / 10.0
# the default geometry's exceptional point [W], where the membrane pole and
# the cavity pole of d merge: 5% above the 5 uW design drive
EXCEPTIONAL_POWER = 5.2507297778e-6

# the benchmark's request pools: drive powers [W], bath temperatures [K],
# line half-widths and design detunings per omega_m
POWERS = (1e-6, 2e-6, 3e-6, 5e-6, 7e-6, 10e-6, 12e-6, 15e-6, 18e-6, 20e-6)
TEMPS = (0.0, 10e-3, 20e-3, 30e-3, 40e-3, 50e-3)
DESIGN_TEMPS = (0.0, 20e-3, 50e-3)
BANDWIDTHS = (0.001, 0.002, 0.005, 0.01, 0.015, 0.02)
DETUNINGS = (0.95, 1.0, 1.05)


def design_pool():
    """The benchmark's design requests: powers x detunings x temperatures."""
    for power in POWERS:
        for detuning in DETUNINGS:
            for temp in DESIGN_TEMPS:
                yield derive_operating_point(SystemParams(
                    drive_power=power, bath_temp=temp,
                    eff_detuning=detuning * WM))


def local_maxima(y):
    """Indices of the strict interior local maxima of the 1-d array y."""
    return np.where((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1


# ------------------------------------------------------------ the exact model

def _polymul(p, q):
    out = [mpmath.mpc(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def polyval(coeffs, u):
    """The polynomial of ``coeffs``, lowest power first, at u."""
    return sum(coef * u ** n for n, coef in enumerate(coeffs))


def _scalars(op):
    """(omega_m, k, gm, dl, h) of the module docstring."""
    mpf = mpmath.mpf
    wm = mpf(op.mech_freq)
    h = mpf(HBAR) * mpf(op.g ** 2 * op.n_cav) / (mpf(op.eff_mass) * wm ** 3)
    return (wm, mpf(op.cavity_decay) / wm, mpf(op.gamma_m) / wm,
            mpf(op.eff_detuning) / wm, h)


def d_coeffs(op):
    """D's coefficients on u = omega/omega_m, lowest power first."""
    _, k, gm, dl, h = _scalars(op)
    i = mpmath.mpc(0, 1)
    d = _polymul([mpmath.mpc(1), -i * gm, mpmath.mpc(-1)],
                 [(2 * k) ** 2 + dl ** 2, -4 * i * k, mpmath.mpc(-1)])
    d[0] -= 2 * h * dl
    return d


def _e_num(k, gm, dl, h, u):
    """E*D at u: 2*k*(mech*sb + i*h), mech = 1 - u^2 - i*gm*u and sb =
    2*k - i*(dl + u)."""
    i = mpmath.mpc(0, 1)
    return 2 * k * ((1 - u * u - i * gm * u) * (2 * k - i * (dl + u)) + i * h)


def budget(op, x):
    """(R, T, M, Sv) at omega = x*omega_m, at the caller's mpmath precision.

    R = |E - 1|^2 and T = |E|^2 for E = E*D/D, Sv = 8*(k*h)^2/|D|^2, and
    M = 4*k*gm*h*x*|sb|^2/|D|^2, the probe's share absorbed by the membrane
    (omrouter.response's docstring) on this axis.  R + T + M = 1 + Sv is an
    identity of these formulas.
    """
    _, k, gm, dl, h = _scalars(op)
    x = mpmath.mpf(x)
    d = polyval(d_coeffs(op), x)
    e = _e_num(k, gm, dl, h, x) / d
    d2 = abs(d) ** 2
    sb2 = abs(2 * k - mpmath.mpc(0, 1) * (dl + x)) ** 2
    return (abs(e - 1) ** 2, abs(e) ** 2, 4 * k * gm * h * x * sb2 / d2,
            8 * (k * h) ** 2 / d2)


def d_zeros(coeffs):
    """The four zeros of D, from its coefficients (:func:`d_coeffs`)."""
    return mpmath.polyroots(coeffs[::-1], maxsteps=500, extraprec=400)


def d_at(op, omega):
    """d at a real omega [rad/s]: m*omega_m^4*D(omega/omega_m)."""
    wm = mpmath.mpf(op.mech_freq)
    return mpmath.mpf(op.eff_mass) * wm ** 4 \
        * polyval(d_coeffs(op), mpmath.mpf(omega) / wm)


def exactly_stable(op):
    """Whether every zero of D lies below the real axis, at 50 digits.

    The float d_polynomial_coeffs are not used: their rounding moves the
    threshold of the rounded polynomial far more than 1e-12.
    """
    with mpmath.workdps(50):
        return all(z.imag < 0 for z in d_zeros(d_coeffs(op)))


def band_sum(num, poles, a, b):
    """int_a^b num(u) / prod(u - p) du over simple poles p, none of them real.

    num is a polynomial of degree below len(poles) - 1, so the integral is
    the sum over the poles of residue*[log(b-p) - log(a-p)], the residue
    being num(p)/prod(p - q) over the other poles q; no pole is real, so
    the principal logarithm is continuous along the band.  The sum is
    formed in cmath for float a, else in mpmath.
    """
    log = cmath.log if isinstance(a, float) else mpmath.log
    total = 0
    for i, p in enumerate(poles):
        residue = num(p)
        for j, q in enumerate(poles):
            if j != i:
                residue /= p - q
        total += residue * (log(b - p) - log(a - p))
    return total.real


def band_integrals(lo, hi, center, gamma, resonance, decay):
    """The empty cavity's (mass, int L*R, int L*T) over [lo, hi], 50 digits.

    Each integrand is a ratio of polynomials over the four simple poles
    center +- i*gamma and resonance +- 2i*kappa.  Where the line and the
    cavity have the same pole, the mean over gamma*(1 +- 1e-20) stands in
    for it, off by about 1e-40.
    """
    with mpmath.workdps(50):
        lo, hi, center, gamma, resonance, decay = (
            mpmath.mpf(v) for v in (lo, hi, center, gamma, resonance, decay))
        width = 2 * decay

        def band(num, gamma):
            poles = [mpmath.mpc(center, gamma), mpmath.mpc(center, -gamma),
                     mpmath.mpc(resonance, width),
                     mpmath.mpc(resonance, -width)]
            return band_sum(num, poles, lo, hi) * gamma / mpmath.pi

        def overlap(num):
            if center != resonance or gamma != width:
                return band(num, gamma)
            shift = gamma * mpmath.mpf(10) ** -20
            return (band(num, gamma + shift) + band(num, gamma - shift)) / 2

        mass = (mpmath.atan((hi - center) / gamma)
                - mpmath.atan((lo - center) / gamma)) / mpmath.pi
        refl = overlap(lambda p: (p - resonance) ** 2)
        trans = overlap(lambda p: width * width)
        return float(mass), float(refl), float(trans)


def drive_on_report(op, lo, hi):
    """(p_reflect, p_transmit, vacuum_leak, thermal_leak) at 50 digits.

    Every channel is a ratio over |D(u)|^2, so each rational band integral
    is a :func:`band_sum` over D's zeros, their conjugates and, for the
    probe channels, the line's poles.  St carries the true Bose factor:
    its numerator n(u)*B(theta*u), with B(x) = x/(e^x - 1) and theta =
    hbar*omega_m/(kB*T), is not a polynomial.  Dividing n times B's Taylor
    series to x^30 by |D|^2 leaves a polynomial part S, integrated
    exactly, and a remainder equal to n*B at the poles, integrated by
    residues.  The series' terms fall like (theta*b/(2*pi))^k, so they
    reach 1e-15 only while theta*b < 2 (about 5 uK on the default band);
    at colder baths St is the 30-digit mpmath.quad of
    :func:`thermal_quad` instead.
    """
    with mpmath.workdps(50):
        mpf, mpc = mpmath.mpf, mpmath.mpc
        wm, k, gm, dl, h = _scalars(op)
        a, b = mpf(lo) / wm, mpf(hi) / wm
        c, gw = mpf(op.input_center) / wm, mpf(op.input_bandwidth) / wm
        d = d_coeffs(op)
        zeros = d_zeros(d)
        noise_poles = list(zeros) + [mpmath.conj(z) for z in zeros]
        line_poles = [mpc(c, gw), mpc(c, -gw)]

        def e_num(u):
            return _e_num(k, gm, dl, h, u)

        def abs2(f):
            return lambda p: f(p) * mpmath.conj(f(mpmath.conj(p)))

        weight = gw / mpmath.pi
        mass = (mpmath.atan((b - c) / gw) - mpmath.atan((a - c) / gw)) \
            / mpmath.pi
        refl = weight * band_sum(abs2(lambda u: e_num(u) - polyval(d, u)),
                                 noise_poles + line_poles, a, b)
        trans = weight * band_sum(abs2(e_num), noise_poles + line_poles, a, b)
        sv = 8 * (k * h) ** 2 * band_sum(lambda p: mpc(1), noise_poles, a, b)
        st = mpf(0)
        kbt = mpf(KB) * mpf(op.bath_temp)
        if kbt and mpf(HBAR) * wm / kbt * b >= 2:
            return tuple(float(v) for v in (refl / mass, trans / mass, sv)) \
                + (thermal_quad(op, lo, hi),)
        if kbt:
            theta = mpf(HBAR) * wm / kbt
            side = [dl ** 2 + 4 * k * k, 2 * dl, mpf(1)]
            series = [mpmath.bernoulli(n) / mpmath.factorial(n) * theta ** n
                      for n in range(31)]
            num = _polymul(side, series)
            denom = _polymul(d, [mpmath.conj(x) for x in d])
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

            st = 4 * k * gm * h / theta * (band_sum(bose, noise_poles, a, b)
                                           + part.real)
        return tuple(float(v) for v in (refl / mass, trans / mass, sv, st))


def thermal_quad(op, lo, hi):
    """The thermal leak by a 30-digit mpmath.quad of St on u = omega/omega_m.

    The band is cut at the real parts of D's zeros, at r +- |Im z|*4^k
    around each, and at a + 2^k/theta, where B(theta*u) falls by e^-2^k:
    the integrand's narrow features.
    """
    with mpmath.workdps(30):
        mpf = mpmath.mpf
        wm, k, gm, dl, h = _scalars(op)
        a, b = mpf(lo) / wm, mpf(hi) / wm
        theta = mpf(HBAR) * wm / (mpf(KB) * mpf(op.bath_temp))
        d = d_coeffs(op)

        def st(u):
            x = theta * u
            return ((u + dl) ** 2 + 4 * k * k) * x / mpmath.expm1(x) \
                / abs(polyval(d, u)) ** 2

        cuts = {a, b}
        for z in d_zeros(d):
            cuts.update(z.real + s * abs(z.imag) * 4 ** n
                        for s in (-1, 0, 1) for n in range(4))
        cuts.update(a + mpf(2) ** n / theta for n in range(7))
        total = mpmath.quad(st, sorted(c for c in cuts if a <= c <= b))
        return float(4 * k * gm * h / theta * total)


# ------------------------------------------------------------- named draws

# the drive-on points inside gamma_m << kappa << omega_m, with lines off
# center, in draw order; the power scales with omega_m^3 so that the
# drive's share of d stays near the default point's
BRIGHT_RANGES = {
    "log_wm": (5.0, 6.5),
    "log_kappa": (-1.3, -1.0),
    "log_gamma": (-4.0, -1.05),
    "detuning": (0.8, 1.2),
    "log_width": (-6.0, -1.5),
    "center": (0.9, 1.1),
    "temp": (0.0, 0.3),
    "log_power": (-7.0, -4.7),
}


def bright_params(log_wm, log_kappa, log_gamma, detuning, log_width, center,
                  temp, log_power):
    """The SystemParams of one point of :data:`BRIGHT_RANGES`."""
    wm = 10 ** log_wm
    return replace(default_params(),
                   mech_freq=wm,
                   cavity_decay=10 ** (log_wm + log_kappa),
                   quality=10 ** -(log_kappa + log_gamma),
                   eff_detuning=detuning * wm,
                   input_bandwidth=10 ** (log_wm + log_width),
                   input_center=center * wm,
                   drive_power=10 ** log_power * (wm / WM) ** 3,
                   bath_temp=temp)


bright_points = st.builds(bright_params, **{
    name: st.floats(lo, hi) for name, (lo, hi) in BRIGHT_RANGES.items()})


def hierarchy_draw(rng):
    """A stable point of :data:`BRIGHT_RANGES` drawn by the random.Random
    ``rng``, with T = 0 or a bath log-uniform from 1 mK to 0.3 K.

    The routing module docstring's error bounds come from 600 points of
    random.Random(11) and 3,000 of random.Random(1), each report against
    :func:`drive_on_report`.
    """
    while True:
        values = {}
        for name, (lo, hi) in BRIGHT_RANGES.items():
            if name == "temp":
                values[name] = 0.0 if rng.random() < 0.5 \
                    else 10 ** rng.uniform(-3.0, math.log10(hi))
            else:
                values[name] = rng.uniform(lo, hi)
        op = derive_operating_point(bright_params(**values))
        if kernels.is_stable(op):
            return op


def static_bound_draw(rng):
    """A stable point at T = 0 whose a0 is 3e-4 to 0.1 of c0, drawn by the
    random.Random ``rng``."""
    while True:
        wm = 10 ** rng.uniform(3.0, 7.0)
        kappa = wm * 10 ** rng.uniform(-2.0, -1.0)
        base = replace(default_params(), mech_freq=wm, cavity_decay=kappa,
                       quality=wm / (kappa * 10 ** rng.uniform(-4.0, -1.0)),
                       eff_detuning=wm * rng.uniform(0.5, 1.5),
                       input_bandwidth=wm * 10 ** rng.uniform(
                           -4.0, math.log10(3e-2)),
                       input_center=wm * rng.uniform(0.9, 1.1),
                       bath_temp=0.0, drive_power=1e-9)
        k2, _, dl, dd = kernels.reduced(derive_operating_point(base))[:4]
        ratio = 10 ** rng.uniform(math.log10(3e-4), -1.0)
        op = derive_operating_point(replace(
            base, drive_power=1e-9 * (k2 * k2 + dl * dl) * (1.0 - ratio) / dd))
        if kernels.is_stable(op):
            return op


# drive-on points of BRIGHT_RANGES that routing refuses at a cold bath:
# St's terms cancel there by more than the report's 1e-10 estimate allows
COLD_BATHS = {
    "wm1e5-1nK": bright_params(5.0, -1.25, -2.0, 1.0, -2.0, 1.0, 1e-9, -7.0),
    "wm1e6-10nK": bright_params(6.0, -1.25, -2.0, 1.125, -2.0, 1.0, 10e-9,
                                -7.0),
    "wm1e6-100nK": bright_params(6.0, -1.25, -2.0, 1.125, -2.0, 1.0, 100e-9,
                                 -7.0),
    # found by a random draw of the drive-on quadrature property
    "wm3e6-119nK": bright_params(6.5, -1.0, -2.0, 1.0, -2.0, 1.0, 1.19e-7,
                                 -7.0),
}
