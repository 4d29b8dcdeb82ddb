"""Bare two-port cavity response and the probe line shape.

With the membrane removed (or the drive off) the cavity is a symmetric
two-mirror etalon: a Lorentzian transmission window of half-width 2*kappa
around resonance.  These closed forms anchor the limits of the full model
and supply the input spectrum for the routing integrals, and the line's
band integrals against the empty cavity are the drive-off routing report.
"""

import cmath
import math

import numpy as np

from .errors import NumericalFailureError
from .operating_point import _numbers, _real


def _shares(omega, resonance, decay):
    """d/h and 2*kappa/h, with d = omega - resonance and h = hypot(d,
    2*kappa): R and T are their squares, which hold where d^2 or kappa^2
    would underflow or overflow.  Where d, 2*kappa or h is past the float
    range, d and 2*kappa are quartered first, which changes no other value.

    Raises InvalidParameterError unless omega is finite real numbers,
    resonance a finite real number and decay one > 0.
    """
    w = np.asarray(_numbers("omega", omega, finite=True), dtype=float)
    decay = _real("decay", decay, above=0.0)
    resonance = _real("resonance", resonance)
    width = 2.0 * decay
    with np.errstate(over="ignore"):
        d = w - resonance
        h = np.hypot(d, width)
    over = np.isinf(h)
    if over.any():
        d = np.where(over, 0.25 * w - 0.25 * resonance, d)
        width = np.where(over, 0.5 * decay, width)
        h = np.hypot(d, width)
    return d / h, width / h


def empty_reflectance(omega, resonance, decay):
    """R(omega) = (omega-omega_0)^2 / (4 kappa^2 + (omega-omega_0)^2).

    Vanishes on resonance (everything leaks out the far mirror) and tends
    to 1 far away.  ``decay`` is kappa, so the reflection dip has
    half-width 2*kappa.  InvalidParameterError unless omega is finite real
    numbers, resonance a finite real number and decay one > 0.
    """
    r = _shares(omega, resonance, decay)[0]
    return r * r


def empty_transmittance(omega, resonance, decay):
    """T(omega) = 4 kappa^2 / (4 kappa^2 + (omega-omega_0)^2), so R + T = 1.
    Refuses its arguments as :func:`empty_reflectance` does."""
    t = _shares(omega, resonance, decay)[1]
    return t * t


def lorentzian_input(omega, center, bandwidth):
    """Unit-mass Lorentzian line: (Gamma/pi) / ((omega-center)^2 + Gamma^2).

    ``bandwidth`` is the half-width at half-maximum Gamma; the peak density
    is 1/(pi*Gamma) and the density falls to half of that at center +- Gamma.
    InvalidParameterError unless omega is finite real numbers, center a
    finite real number and bandwidth one > 0; NumericalFailureError where
    the density is past the float range (at the center of a line narrower
    than about 1.8e-309).

    Where the larger of |omega - center| and Gamma lies outside [2**-500,
    2**500], so that their squares could underflow or overflow, both are
    scaled by a power of two first, and the density back by it; that
    changes no other value.
    """
    center, bandwidth = _line(center, bandwidth)
    w = np.asarray(_numbers("omega", omega, finite=True), dtype=float)
    with np.errstate(all="ignore"):
        d = w - center
        width = np.maximum(np.abs(d), bandwidth)
        odd = (width < 2.0 ** -500) | (width > 2.0 ** 500)
        if not odd.any():
            return _density(w, center, bandwidth)
        power = np.frexp(width)[1]
        u, g = np.ldexp(d, -power), np.ldexp(bandwidth, -power)
        scaled = np.ldexp((g / math.pi) / (u * u + g * g), -power)
        density = np.where(odd, scaled, _density(w, center, bandwidth))
    if not np.isfinite(density).all():
        raise NumericalFailureError(
            "the line density is past the float range")
    return density[()]


def _line(center, bandwidth):
    """The line's center and bandwidth as floats: InvalidParameterError
    unless they are a finite real number and one > 0."""
    return (_real("input_center", center),
            _real("input_bandwidth", bandwidth, above=0.0))


def _density(w, center, bandwidth, out=None):
    """The line density at the float array w, of a checked line, written
    into ``out`` where given."""
    d = np.subtract(w, center, out=out)
    return np.divide(bandwidth / math.pi,
                     np.add(np.multiply(d, d, out=out),
                            bandwidth * bandwidth, out=out), out=out)


def lorentzian_band_mass(lo, hi, center, bandwidth):
    """Exact line mass on [lo, hi]: (atan((hi-c)/Gamma) - atan((lo-c)/Gamma))/pi.

    Used to normalize band integrals; note the heavy tails, e.g. the mass
    within +-50 Gamma is (2/pi)*atan(50) = 0.9873, not 1.
    InvalidParameterError unless the four arguments are finite real
    numbers and bandwidth is > 0.
    """
    center, bandwidth = _line(center, bandwidth)
    lo, hi = _real("lo", lo), _real("hi", hi)
    return (math.atan((hi - center) / bandwidth)
            - math.atan((lo - center) / bandwidth)) / math.pi


# below this |w| the series of log1p(w)/w is summed: its 18 terms reach
# 8^-17/18 < 2^-55 there, where the logarithm of 1 + w would lose
# -log2|w| bits to the rounding of 1 + w
_SERIES_RADIUS = 0.125
_SERIES_TERMS = 18


def _log1p_over(w, ratio):
    """phi(w) = log1p(w)/w, given w and ratio = 1 + w, each formed directly.

    The logarithm is taken of ``ratio`` rather than of the rounded 1 + w,
    so that a ratio near 0 keeps its relative accuracy too.
    """
    if abs(w) < _SERIES_RADIUS:
        phi = 0j
        for k in range(_SERIES_TERMS, 0, -1):
            phi = 1.0 / k - w * phi
        return phi
    return cmath.log(ratio) / w


def _band_log(a, b, z):
    """Log((b - z)/(a - z)) for z off the real band [a, b].

    Far from the band, where w = (b - a)/(a - z) is below _SERIES_RADIUS,
    it is w*phi(w) (:func:`_log1p_over`), so a ratio near 1 loses no digits
    to its rounding; elsewhere it is the logarithm of the ratio.
    """
    az = a - z
    if abs(az) * _SERIES_RADIUS > b - a:
        w = (b - a) / az
        return w * _log1p_over(w, (b - z) / az)
    return cmath.log((b - z) / az)


def _lorentzian_band_integrals(lo, hi, center, bandwidth, resonance, decay):
    """The line's band mass and its overlaps with the empty cavity, exactly.

    Returns (mass, int L*R, int L*T) over [lo, hi], L being the unit-mass
    line of :func:`lorentzian_input` and R, T the empty reflectance and
    transmittance.  On the axis u = omega - resonance, with the band
    [a, b], the line at s and W = 2*kappa, both integrands are
    N(u)/(|u-z1|^2 |u-z2|^2) with the upper poles z1 = s + i*Gamma and
    z2 = i*W, and N = u^2 for R, W^2 for T.  Summing the residues of the
    four poles against G(z) = Log(b-z) - Log(a-z) gives 2*Re H[z1, z2],
    the divided difference of H = N*G*K with K(z) = 1/((z-conj z1)(z-conj z2)).

    H[z1, z2] is expanded by the Leibniz rule with the narrower pole zn
    first: (GK)[zn, zw] = G(zn)*K[zn, zw] + G[zn, zw]*K(zw), and likewise
    K[x, y] = -A(x)*B(y)*(B(x) + A(y)) for K = A*B, A(z) = 1/(z - conj z1),
    B(z) = 1/(z - conj z2), so that no divided difference is formed by
    subtraction.  G is :func:`_band_log`, and G[zn, zw] is written through
    phi(w) = log1p(w)/w (:func:`_log1p_over`): each logarithm's divided
    difference is [Log(c-.)][x, y] = -phi(w)/(c-y) with w = (y-x)/(c-y),
    which holds as z1 -> z2 (Gamma = 2*kappa on resonance).  The arguments
    of the logarithms lie below the real axis, so each difference of two
    principal logarithms is the principal logarithm of their ratio.
    int L*R comes from N[zn, zw] = zn + zw.  u is measured in units of a
    power of two near max(Gamma, W), which changes no bit of a result
    that is in range without it, and keeps K's products of three inverse
    widths finite however narrow the line and the cavity are.  The mass
    is taken on [a, b] too, the band as the integrals read it, so that
    its rounding moves the mass as it moves them.

    Raises
    ------
    InvalidParameterError
        As :func:`lorentzian_band_mass`, for a band or line that is not
        finite or a bandwidth that is not > 0.
    """
    width = 2.0 * decay
    # lengths on the u axis in units of a power of two near max(Gamma, W):
    # exact, and K's three inverse widths then stay in the float range
    unit = math.ldexp(1.0, -math.frexp(max(bandwidth, width))[1])
    a, b = (lo - resonance) * unit, (hi - resonance) * unit
    gamma, width = bandwidth * unit, width * unit
    line = complex((center - resonance) * unit, gamma)
    mass = lorentzian_band_mass(a, b, line.real, gamma)
    cavity = complex(0.0, width)
    narrow, wide = (line, cavity) if gamma <= width else (cavity, line)

    def log_slope(c):
        cw = c - wide
        w = (wide - narrow) / cw
        return -_log1p_over(w, (c - narrow) / cw) / cw

    def line_factor(z):
        return 1.0 / (z - line.conjugate())

    def cavity_factor(z):
        return 1.0 / (z - cavity.conjugate())

    k_wide = line_factor(wide) * cavity_factor(wide)
    k_slope = -line_factor(narrow) * cavity_factor(wide) \
        * (cavity_factor(narrow) + line_factor(wide))
    gk_wide = _band_log(a, b, wide) * k_wide
    gk_slope = _band_log(a, b, narrow) * k_slope \
        + (log_slope(b) - log_slope(a)) * k_wide
    scale = 2.0 * gamma / math.pi
    # W*(W*...): W^2 alone would be subnormal for a cavity narrower than
    # about 1e-154 of the line
    trans = scale * (width * (width * gk_slope)).real
    refl = scale * (narrow * narrow * gk_slope
                    + (narrow + wide) * gk_wide).real
    return mass, refl, trans
