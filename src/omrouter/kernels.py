"""The response-channel formulas of the driven cavity, each written once.

Frequencies are sideband offsets omega from the drive [rad/s]; every
function accepts a scalar or an array there.  All four channels share the
degree-4 denominator

    d(omega) = mech(omega) * cav(omega) - 2*hbar*g^2*|c_s|^2*Delta

and are ratios over it (E) or over |d|^2 (Sv and St):

    E  = 2*kappa*[mech*(2*kappa - i*(Delta+omega)) + i*hbar*g^2*|c_s|^2] / d
    Sv = 8*(kappa*hbar*g^2*|c_s|^2)^2 / |d|^2
    St = |V|^2 * thermal_weight,  |V|^2 = 2*kappa*g^2*|c_s|^2*|2*kappa - i*(Delta+omega)|^2 / |d|^2

d is built from its two factors and the numerator of E from the mechanical
one; the factors are passed in, so a grid evaluates each of them once.

The channels mean something only where every zero of d lies below the
real axis.  That verdict is also written once, here beside the drive term
it turns on: :func:`is_stable`, from the Routh-Hurwitz conditions.

Keep the arithmetic order as written (x*x rather than x**2, the drive term
grouped as 2*hbar*(g^2*|c_s|^2)*Delta, complex array operands bound to
names before they are multiplied): the command line spectra are pinned
byte for byte.
"""

import functools
import math

import numpy as np

from .errors import (InvalidParameterError, NumericalFailureError,
                     UnstableOperatingPointError)
from .operating_point import HBAR, KB

# Grid kernels run in blocks of this many points, writing into preallocated
# outputs.  A block's temporaries then stay in cache, and below 16,384
# complex points (256 KiB) numpy never elides a temporary into an
# in-place operation.  Elision can swap the operands of a complex
# multiply, whose SIMD loop is not bitwise commutative, so without blocks
# a value's last bits would depend on the size of the array it sits in.
BLOCK = 8192


def coupling(op):
    """g^2*|c_s|^2: the only combination through which the drive enters the
    fluctuation dynamics."""
    return op.g ** 2 * op.n_cav


def drive_term(op):
    """2*hbar*g^2*|c_s|^2*Delta, the drive's share of d(omega)."""
    return 2.0 * HBAR * coupling(op) * op.eff_detuning


def _hurwitz_coeffs(op):
    """a3, a2, a1 of :func:`stable_drive_window`'s quartic p(s), and the two
    factors omega_m*omega_m and 4*kappa^2 + Delta^2 of a0's drive-free part.

    Every expansion of d's quartic is built from these terms: the Hurwitz
    bounds, :func:`omrouter.stability.d_polynomial_coeffs` and the zeros of
    the routing residues.
    """
    k = op.cavity_decay
    gm = op.gamma_m
    wm2 = op.mech_freq * op.mech_freq
    cav0 = 4.0 * (k * k) + op.eff_detuning * op.eff_detuning
    return (4.0 * k + gm, cav0 + 4.0 * k * gm + wm2, gm * cav0 + 4.0 * k * wm2,
            wm2, cav0)


def stable_drive_window(op):
    """The open interval of drive_term(op)/m in which the point is stable.

    With omega = i*s, the poles lie below the real axis exactly when every
    root of p(s) = d(i*s)/m = s^4 + a3*s^3 + a2*s^2 + a1*s + a0 has
    Re s < 0, where

        a3 = 4*kappa + gamma_m
        a2 = 4*kappa^2 + Delta^2 + 4*kappa*gamma_m + omega_m^2
        a1 = gamma_m*(4*kappa^2 + Delta^2) + 4*kappa*omega_m^2
        a0 = omega_m^2*(4*kappa^2 + Delta^2) - x,   x = drive_term(op)/m.

    a1, a2 and a3 are positive, so by the Routh-Hurwitz conditions that
    holds exactly when a0 > 0 and a3*a2*a1 - a1^2 - a3^2*a0 = H + a3^2*x
    > 0, with the drive-free part

        H = 4*kappa*gamma_m*[(Delta^2 - omega_m^2)^2
            + 8*kappa^2*(Delta^2 + omega_m^2) + 16*kappa^4
            + 4*kappa*gamma_m*(Delta^2 + 4*kappa^2 + omega_m^2)
            + gamma_m^2*(Delta^2 + 4*kappa^2)].

    H vanishes at gamma_m = 0, so formed as that difference it would lose
    its last digits to cancellation; this form has none.  Only x depends
    on the drive, in proportion to the drive power.

    Returns
    -------
    (lo, hi) : (float, float)
        -H/a3^2 < 0 and omega_m^2*(4*kappa^2 + Delta^2) > 0.

    Raises
    ------
    NumericalFailureError
        When a bound is past the float range (omega_m^6 overflows).
    """
    k = op.cavity_decay
    gm = op.gamma_m
    d2 = op.eff_detuning * op.eff_detuning
    k2 = k * k
    a3, _, _, wm2, cav0 = _hurwitz_coeffs(op)
    # cav0 = d2 + 4*k2 to the bit: 4*k2 is exact and + commutes
    h = 4.0 * k * gm * ((d2 - wm2) * (d2 - wm2) + 8.0 * k2 * (d2 + wm2)
                        + 16.0 * k2 * k2 + 4.0 * k * gm * (cav0 + wm2)
                        + gm * gm * cav0)
    lo = -h / (a3 * a3)
    hi = wm2 * cav0
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalFailureError("Hurwitz stability bounds are not finite")
    return lo, hi


def is_stable(op):
    """Whether every pole of d(omega) lies strictly below the real axis.

    The Routh-Hurwitz verdict of :func:`stable_drive_window`, exact up to
    the rounding of a few operations: no roots are found.  It is monotone
    in the drive power, which only moves drive_term(op)/m.
    """
    lo, hi = stable_drive_window(op)
    return lo < drive_term(op) / op.eff_mass < hi


def require_stable(op):
    """Raise UnstableOperatingPointError unless :func:`is_stable` holds."""
    if not is_stable(op):
        raise UnstableOperatingPointError(
            f"operating point unstable: at drive power {op.drive_power:.6e} W "
            "a pole lies on or above the real axis")


def mech_factor(omega, op):
    """Inverse membrane susceptibility m*(omega_m^2 - omega^2 - i*gamma_m*omega)."""
    return op.eff_mass * (op.mech_freq * op.mech_freq - omega * omega
                          - 1j * op.gamma_m * omega)


def cav_factor(omega, op):
    """Cavity factor (2*kappa - i*omega)^2 + Delta^2."""
    return (2.0 * op.cavity_decay - 1j * omega) ** 2 \
        + op.eff_detuning * op.eff_detuning


def _sideband(omega, op):
    # 2*kappa - i*(Delta + omega), one linear factor of cav_factor
    return 2.0 * op.cavity_decay - 1j * (op.eff_detuning + omega)


def denominator(mech, cav, op):
    """d(omega) = mech * cav - drive_term(op).

    mech and cav are mech_factor(omega, op) and cav_factor(omega, op).
    """
    return mech * cav - drive_term(op)


def e_numerator(omega, op, mech):
    """E(omega) * d(omega), given mech = mech_factor(omega, op)."""
    # named, so that numpy cannot elide it into the product (see BLOCK):
    # on arrays of 256 KiB or more that would run sb * mech, not mech * sb
    sb = _sideband(omega, op)
    return 2.0 * op.cavity_decay * (mech * sb + 1j * HBAR * coupling(op))


def sv_numerator(op):
    """Sv(omega) * |d(omega)|^2, the same at every frequency."""
    return 8.0 * (op.cavity_decay * HBAR * coupling(op)) ** 2


def v2_numerator(omega, op):
    """|V(omega)|^2 * |d(omega)|^2, V being the membrane-force-to-field gain."""
    return 2.0 * op.cavity_decay * coupling(op) \
        * np.abs(_sideband(omega, op)) ** 2


def thermal_weight(omega, op):
    """Thermal force weight hbar*gamma_m*m*(-omega)*(1 + coth(-hbar*omega/(2*kB*T))).

    One expression at every omega, 2*hbar*gamma_m*m*omega/expm1(x) with
    x = hbar*omega/(kB*T): for omega > 0 it is 2*hbar*gamma_m*m*omega*nbar
    (zero when T = 0), and for omega < 0 expm1 tends to -1, so the
    spontaneous term survives.  Where |x| is below the float epsilon it
    takes the classical limit 2*gamma_m*m*kB*T, exact to rounding there:
    at omega = 0, where 1/expm1(x) overflows (|x| below about 5.6e-309),
    and where 2*hbar*gamma_m*m*omega underflows.

    Parameters
    ----------
    omega : array_like
        Frequencies [rad/s].
    op : OperatingPoint
        Supplies gamma_m, eff_mass and the bath temperature T (bath_temp).

    Raises
    ------
    InvalidParameterError
        When bath_temp is negative, NaN or infinite, as a point made by
        dataclasses.replace, which skips validation, can carry.
    """
    if not 0.0 <= op.bath_temp < math.inf:
        raise InvalidParameterError(
            f"bath_temp must be >= 0 and finite, got {op.bath_temp!r}")
    kbt = KB * op.bath_temp
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    amp = 2.0 * HBAR * op.gamma_m * op.eff_mass

    if kbt == 0.0:
        out = np.zeros_like(w)
        neg = w < 0.0
        out[neg] = amp * (-w[neg])
        return out

    # x overflowing to inf gives a weight of 0 for omega > 0; 1/expm1(x)
    # overflowing, and 0 * inf at omega = 0, only where |x| < eps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = HBAR * w / kbt
        out = amp * w * (1.0 / np.expm1(x))
    out[np.abs(x) < np.finfo(float).eps] = \
        2.0 * op.gamma_m * op.eff_mass * kbt
    return out


def _amplitude(w, op):
    """E(omega) and d(omega) on one block of frequencies."""
    mech = mech_factor(w, op)
    cav = cav_factor(w, op)
    d = denominator(mech, cav, op)
    return e_numerator(w, op, mech) / d, d


def _flat(omega):
    """The grid's shape and the grid flattened to 1-d."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    return w.shape, w.reshape(-1)


def blocks(size):
    """The slices that cut a flat grid of ``size`` points into BLOCK points."""
    return [slice(lo, lo + BLOCK) for lo in range(0, size, BLOCK)]


def _finite(kernel):
    """``kernel`` raising NumericalFailureError where x/0, an overflow or
    an invalid operation (0/0, inf - inf, 0 * inf) would write inf or NaN."""
    @functools.wraps(kernel)
    def checked(*args):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return kernel(*args)
        except FloatingPointError as exc:
            raise NumericalFailureError(f"channels are not finite: {exc}")
    return checked


@_finite
def fill_channels(flat, op, refl, trans, sv, st):
    """Write R, T, Sv and St on the 1-d grid ``flat`` into the given arrays.

    The grid is evaluated BLOCK points at a time, so a value does not
    depend on the size of the grid around it.  The four outputs are
    preallocated by the caller: separate arrays, or rows of one table.

    Raises
    ------
    NumericalFailureError
        When a channel divides by zero, overflows or forms NaN: |d|^2
        underflowing to 0 over a zero numerator (drive off), St past the
        float range (a bath near 1e308 K), or inf arithmetic.
    """
    sv_num = sv_numerator(op)
    for b in blocks(flat.size):
        w = flat[b]
        e, d = _amplitude(w, op)
        refl[b] = np.abs(e - 1.0) ** 2
        trans[b] = np.abs(e) ** 2
        absd2 = np.abs(d) ** 2
        sv[b] = sv_num / absd2
        st[b] = v2_numerator(w, op) / absd2 * thermal_weight(w, op)


def channel_arrays(omega, op):
    """Evaluate the four response channels on a frequency grid.

    d is evaluated once and shared; there is no near-singular guard here
    (the pointwise functions of :mod:`omrouter.response` add one).
    The grid is evaluated as in :func:`fill_channels`.

    Parameters
    ----------
    omega : array_like
        Sideband frequencies [rad/s], measured from the drive.
    op : OperatingPoint
        The working point; its bath_temp sets the thermal channel.

    Returns
    -------
    (R, T, Sv, St) : tuple of ndarray
        Probe reflection and transmission probabilities, the vacuum noise
        density on the reflected port, and the thermal noise density, the
        latter two per unit omega/omega_m.

    Raises
    ------
    NumericalFailureError
        As :func:`fill_channels`.
    """
    shape, flat = _flat(omega)
    out = [np.empty(flat.size) for _ in range(4)]
    fill_channels(flat, op, *out)
    return tuple(a.reshape(shape) for a in out)


@_finite
def transmission(omega, op):
    """Probe transmission |E(omega)|^2 alone: channel_arrays' T, bit for bit."""
    shape, flat = _flat(omega)
    trans = np.empty(flat.size)
    for b in blocks(flat.size):
        e, _ = _amplitude(flat[b], op)
        trans[b] = np.abs(e) ** 2
    return trans.reshape(shape)
