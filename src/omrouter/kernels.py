"""The response-channel formulas of the driven cavity, each written once.

Frequencies are sideband offsets omega from the drive [rad/s], taken as
a grid: a scalar is a grid of one point.  All four channels share the
degree-4 denominator

    d(omega) = mech(omega) * cav(omega) - 2*hbar*g^2*|c_s|^2*Delta

and are ratios over it (E) or over |d|^2 (Sv and St):

    E  = 2*kappa*[mech*(2*kappa - i*(Delta+omega)) + i*hbar*g^2*|c_s|^2] / d
    Sv = 8*(kappa*hbar*g^2*|c_s|^2)^2 / |d|^2
    St = |V|^2 * thermal_weight,  |V|^2 = 2*kappa*g^2*|c_s|^2*|2*kappa - i*(Delta+omega)|^2 / |d|^2

One block pass evaluates them: it forms the factors mech and cav, d,
the sideband 2*kappa - i*(Delta+omega) and E's numerator once a block,
and every channel is read from those rows.

The channels mean something only where every zero of d lies below the
real axis.  That verdict is also written once, here beside the drive term
it turns on: :func:`is_stable`, from the Routh-Hurwitz conditions; so is
the rest of d's algebra: :func:`reduced`, :func:`scale`, :func:`factored`,
_ROUND, RECORD and :func:`zeros`, where routing finds d's zeros.  Only
the roots that :mod:`omrouter.stability` prints still come from np.roots,
until their pinned bytes are re-recorded.

Keep the arithmetic order as written: the command line spectra are pinned
byte for byte.  Each step is one numpy ufunc on operands in the written
order (x*x rather than x**2, the drive term grouped as
2*hbar*(g^2*|c_s|^2)*Delta, mech first in mech*cav and mech*sb: numpy's
SIMD complex product is not bitwise commutative).  The grid pass writes
every step into a scratch row with ``out=``, so no temporary is left for
numpy to elide into an in-place operation, and no complex product,
square or quotient writes over one of its own operands.
"""

import cmath
import functools
import math

import numpy as np

from . import empty_cavity, operating_point
from .errors import NumericalFailureError, UnstableOperatingPointError
from .operating_point import HBAR, KB

# The grid pass runs in blocks of this many points, and BLOCK sets the size
# of each call's scratch: four complex and three float rows of BLOCK points
# (704 KiB), which every step of a block writes into with out=, so they
# stay in cache.  No step forms a temporary that numpy could elide into an
# in-place operation, which can swap the operands of a complex multiply,
# so a value's last bits do not depend on the size of the grid it sits in.
BLOCK = 8192

# 64 unit roundoffs: the kernel's d and E*d, a polynomial coefficient and
# each Taylor coefficient of a dip-scan cell bound take at most 16 roundings
# (a complex product counts as sqrt(5)): within _ROUND of their sizes
_ROUND = 32.0 * np.finfo(float).eps
# the record's dd and h are formed by up to 7 and 5 roundings, so the
# sizes of the terms that carry them count them at this many ulp
RECORD = 4.0
_THIRD_TURN = 2.0 * math.pi / 3.0


def coupling(op):
    """g^2*|c_s|^2: the only combination through which the drive enters the
    fluctuation dynamics."""
    return op.g ** 2 * op.n_cav


def drive_term(op):
    """2*hbar*g^2*|c_s|^2*Delta, the drive's share of d(omega)."""
    return 2.0 * HBAR * coupling(op) * op.eff_detuning


def reduced(op):
    """d in units of omega_m: the record (k2, g, dl, dd, h, theta, a0).

    k2 = 2*kappa/omega_m, g = gamma_m/omega_m, dl = Delta/omega_m,
    dd = drive_term(op)/(m*omega_m^4) and h = hbar*coupling(op)/(m*omega_m^3),
    both divided by m and omega_m one factor at a time, and theta =
    hbar*omega_m/(kB*T).  On x = omega/omega_m, d = m*omega_m^4*D and
    E*d = k2*m*omega_m^4*N, with D = mech*cav - dd and N = mech*sb + i*h
    built from mech = 1 - x^2 - i*g*x, cav = (k2 - i*x)^2 + dl^2 and
    sb = k2 - i*(dl + x).  theta is 0.0 where kB*T is 0, and NaN where
    only the quotient is (an infinite bath, or one so hot that it
    underflows: St is not 0 there) or the bath is NaN.

    a0 = D(0) = c0 - dd, c0 = k2^2 + dl^2.  Where it cancels below c0/8,
    next to the red static bound, it is formed exactly from the point's
    floats kappa, Delta, omega_m, m and coupling(op), and rounded once.
    """
    wm, mass = op.mech_freq, op.eff_mass
    kbt = KB * op.bath_temp
    theta = (HBAR * wm / kbt or math.nan) if kbt else 0.0
    k2, dl = 2.0 * op.cavity_decay / wm, op.eff_detuning / wm
    dd = drive_term(op) / mass / wm / wm / wm / wm
    c0 = k2 * k2 + dl * dl
    a0 = c0 - dd
    if abs(a0) < 0.125 * c0:
        # fractions imports decimal, a millisecond: only points here pay it
        from fractions import Fraction
        w2 = Fraction(wm) ** 2
        delta = Fraction(op.eff_detuning)
        a0 = float((4 * Fraction(op.cavity_decay) ** 2 + delta * delta) / w2
                   - 2 * Fraction(HBAR) * Fraction(coupling(op)) * delta
                   / (Fraction(mass) * w2 * w2))
    return (k2, op.gamma_m / wm, dl, dd,
            HBAR * coupling(op) / mass / wm / wm / wm, theta, a0)


def scale(red, x):
    """(1 + x^2 + g*x)*((k2 + x)^2 + dl^2) + |dd|, the size of d/(m*omega_m^4)
    at |omega| = x*omega_m >= 0: the kernel rounds d within _ROUND of it."""
    k2, g, dl, dd = red[:4]
    return (1.0 + x * x + g * x) * ((k2 + x) * (k2 + x) + dl * dl) + abs(dd)


def factored(red, u, sized=True):
    """D(u), D'(u) and the size of D's terms (0.0 unless ``sized``) on the
    record ``red``, at a complex scalar or array u: D = mech*cav - dd, with
    mech = (1 - u)*(1 + u) - i*g*u and cav = (k2 - i*u - i*dl)*(k2 - i*u +
    i*dl), which cancel nothing next to their zeros: the size (|1 - u|*|1 +
    u| + g*|u|)*|cav| + RECORD*|dd| bounds D's rounding in ulp.  Where |u| <
    1/2, next to the red static bound, D = a0 - u*((2i*k2 + u) + (u +
    i*g)*cav) and the size is |a0| (c0 + RECORD*|dd| unless 8*|a0| < c0, c0
    = k2^2 + dl^2, where the record holds a0 exactly) plus |u|*(2*k2 + |u| +
    (|u| + g)*|cav|)."""
    k2, g, dl, dd, _, _, a0 = red
    side = k2 - 1j * u
    cav = (side - 1j * dl) * (side + 1j * dl)
    bare = (1.0 - u) * (1.0 + u)
    mech = bare - 1j * g * u
    value = mech * cav - dd
    slope = -(2.0 * u + 1j * g) * cav - 2j * side * mech
    size = (abs(bare) + g * abs(u)) * abs(cav) + RECORD * abs(dd) if sized \
        else 0.0
    near = abs(u) < 0.5
    # a Python scalar u, the common case, makes near a bool
    if near is False or not np.any(near):
        return value, slope, size
    small = a0 - u * ((2j * k2 + u) + (u + 1j * g) * cav)
    if sized:
        c0 = k2 * k2 + dl * dl
        au = abs(u)
        small_size = (abs(a0) if 8.0 * abs(a0) < c0
                      else c0 + RECORD * abs(dd)) \
            + au * (2.0 * k2 + au + (au + g) * abs(cav))
        size = small_size if near is True else np.where(near, small_size,
                                                        size)
    return (small if near is True else np.where(near, small, value), slope,
            size)


def zeros(red):
    """The zeros of D on the omega/omega_m axis, D' and the size of D's
    terms at each, their worst backward residual, and each zero's tail:
    the further Newton step -D(u)/D'(u), which a float u cannot take.

    ``red`` is the record of :func:`reduced`.  D(i*s) = s^4 + a3*s^3 +
    a2*s^2 + a1*s + a0 is the real quartic of :func:`stable_drive_window`
    in units of omega_m.  Ferrari's method writes its depressed form
    y^4 + p*y^2 + q*y + r, y = s + a3/4, as (y^2 + t*y + m1)*(y^2 - t*y +
    m2), where T = t^2 is a root of the resolvent cubic T^3 + 2p*T^2 +
    (p^2 - 4r)*T - q^2.  The cubic is solved in its depressed form by the
    trigonometric (or hyperbolic) formula, taking the root of largest
    magnitude so that q/t stays small, and that root is polished by one
    Newton step.  Where T < 0 the two quadratics are each other's
    conjugates, so only the first is solved.  Each zero then takes one
    Newton step on D's factored form (:func:`factored`), in which a zero's
    small imaginary part is not a small part of a sum of monomials, nor,
    next to the red static bound, a zero next to u = 0 a small part of c0.
    The backward residual is |D(u)| over the size of D's terms plus
    |u|*|D'(u)|, the rounding of the zero itself.  u plus its tail is the
    zero to about the rounding of D(u) over |D'(u)|, far inside that ulp
    of u.  NumericalFailureError where the resolvent's root is not finite.
    """
    k2, g, dl, _, _, _, a0 = red
    c0 = k2 * k2 + dl * dl
    a3, a2, a1 = 2.0 * k2 + g, c0 + 2.0 * k2 * g + 1.0, g * c0 + 2.0 * k2
    s = 0.25 * a3
    s2 = s * s
    p = a2 - 6.0 * s2
    q = a1 - s * (2.0 * a2 - 8.0 * s2)
    r = a0 - s * (a1 - s * (a2 - 3.0 * s2))
    pc = -p * p / 3.0 - 4.0 * r
    qc = p * (8.0 * r - 2.0 * p * p / 9.0) / 3.0 - q * q
    shift = 2.0 * p / 3.0
    if pc < 0.0:
        amp = 2.0 * math.sqrt(-pc / 3.0)
        c = 3.0 * qc / (pc * amp)
        if abs(c) <= 1.0:
            # three real roots; the largest and the smallest are the
            # candidates for the largest magnitude
            phi = math.acos(c) / 3.0
            big = max(amp * math.cos(phi) - shift,
                      amp * math.cos(phi - 2.0 * _THIRD_TURN) - shift,
                      key=abs)
        else:
            big = -math.copysign(amp, qc) \
                * math.cosh(math.acosh(abs(c)) / 3.0) - shift
    elif pc > 0.0:
        amp = 2.0 * math.sqrt(pc / 3.0)
        big = -amp * math.sinh(math.asinh(3.0 * qc / (pc * amp)) / 3.0) \
            - shift
    else:
        big = -math.copysign(abs(qc) ** (1.0 / 3.0), qc) - shift
    lin = p * p - 4.0 * r
    big -= (((big + 2.0 * p) * big + lin) * big - q * q) \
        / ((3.0 * big + 4.0 * p) * big + lin)
    if not math.isfinite(big):   # a NaN would give two zeros, not four
        raise NumericalFailureError(
            "drive-on band integrals failed: the resolvent cubic's terms "
            "are past the float range")
    t = cmath.sqrt(big)
    ratio = q / t
    ys = []
    factors = [(1.0, 0.5 * (p + big - ratio))]
    if big >= 0.0:
        factors.append((-1.0, 0.5 * (p + big + ratio)))
    for sign, m in factors:
        # y^2 + sign*t*y + m = 0, the larger root first
        w = cmath.sqrt(big - 4.0 * m)
        if (t.conjugate() * w).real < 0.0:
            w = -w
        y = -0.5 * sign * (t + w)
        ys += [y, m / y]
    zeros, tails, slopes, sizes = [], [], [], []
    backward = 0.0
    for y in ys:
        u = 1j * (y - s)
        value, slope, _ = factored(red, u, sized=False)
        u -= value / slope
        value, slope, size = factored(red, u)
        backward = max(backward, abs(value) / (size + abs(u) * abs(slope)))
        zeros.append(u)
        tails.append(-value / slope)
        slopes.append(slope)
        sizes.append(size)
    if big < 0.0:
        # D(-conj(u)) = conj(D(u)), so D'(-conj(u)) = -conj(D'(u))
        zeros += [-u.conjugate() for u in zeros]
        tails += [-e.conjugate() for e in tails]
        slopes += [-d.conjugate() for d in slopes]
        sizes += sizes
    return zeros, slopes, sizes, backward, tails


def _hurwitz_coeffs(op):
    """a3, a2, a1 of :func:`stable_drive_window`'s quartic p(s), and the two
    factors omega_m*omega_m and 4*kappa^2 + Delta^2 of a0's drive-free part.

    The Hurwitz bounds and :func:`omrouter.stability.d_polynomial_coeffs`
    expand d's quartic from these terms in rad/s.
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
        When a bound is past the float range (omega_m^6 overflows, or
        a3^2 underflows to 0).
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
    a3a3 = a3 * a3   # underflowing to 0, it leaves no finite lower bound
    lo = -h / a3a3 if a3a3 else -math.inf
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
    """Raise InvalidParameterError unless ``op`` is an OperatingPoint, and
    UnstableOperatingPointError unless :func:`is_stable` holds."""
    operating_point._operating_point(op)
    if not is_stable(op):
        raise UnstableOperatingPointError(
            f"operating point unstable: at drive power {op.drive_power:.6e} W "
            "a pole lies on or above the real axis")


# Each formula below is written once, as numpy ufuncs that write into the
# scratch rows ``out`` (and ``tmp``, of the grid's kind) of the block pass.

def _abs2(z, out):
    # |z|^2 as abs, then square: the pinned channels' order
    return np.square(np.abs(z, out=out), out=out)


def _mech(w, op, out, tmp):
    # m*((omega_m^2 - omega^2) - (i*gamma_m)*omega), omega^2 formed in tmp
    sq = np.subtract(op.mech_freq * op.mech_freq,
                     np.multiply(w, w, out=tmp), out=tmp)
    return np.multiply(op.eff_mass, np.subtract(
        sq, np.multiply(1j * op.gamma_m, w, out=out), out=out), out=out)


def _cav(w, op, out, tmp):
    # (2*kappa - i*omega)^2 + Delta^2, the factor formed in complex tmp
    side = np.subtract(2.0 * op.cavity_decay, np.multiply(1j, w, out=tmp),
                       out=tmp)
    return np.add(np.square(side, out=out), op.eff_detuning * op.eff_detuning,
                  out=out)


def _sideband(w, op, out, tmp):
    # 2*kappa - i*(Delta + omega), one linear factor of _cav, with
    # Delta + omega formed in tmp
    return np.subtract(2.0 * op.cavity_decay, np.multiply(
        1j, np.add(op.eff_detuning, w, out=tmp), out=out), out=out)


def _denominator(mech, cav, op, out):
    # d = mech * cav - drive_term(op), mech first: numpy's SIMD complex
    # product is not bitwise commutative
    return np.subtract(np.multiply(mech, cav, out=out), drive_term(op),
                       out=out)


def _numerator(mech, sb, op, out):
    # E*d = 2*kappa*(mech * sb + i*hbar*g^2*|c_s|^2), mech first as in
    # _denominator
    return np.multiply(2.0 * op.cavity_decay, np.add(
        np.multiply(mech, sb, out=out), 1j * HBAR * coupling(op), out=out),
        out=out)


def sv_numerator(op):
    """Sv(omega) * |d(omega)|^2, the same at every frequency."""
    return 8.0 * (op.cavity_decay * HBAR * coupling(op)) ** 2


def _v2(sb, op, out):
    # |V|^2*|d|^2 from the sideband sb, into a float out
    return np.multiply(2.0 * op.cavity_decay * coupling(op), _abs2(sb, out),
                       out=out)


def _kbt(op):
    """kB*T of the point's bath, refused as :func:`thermal_weight` says."""
    return KB * operating_point._real("bath_temp", op.bath_temp, at_least=0.0)


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
    NumericalFailureError
        When the classical limit is taken and is past the float range.
    """
    kbt = _kbt(op)
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    return _weight(w, op, kbt, *(np.empty_like(w) for _ in range(3)))


def _weight(w, op, kbt, out, x, tmp):
    """:func:`thermal_weight` on the float array w at kbt = _kbt(op), written
    into out, with x and tmp as scratch of w's shape."""
    amp = 2.0 * HBAR * op.gamma_m * op.eff_mass
    if kbt == 0.0:
        out.fill(0.0)
        neg = w < 0.0
        out[neg] = amp * (-w[neg])
        return out

    # x overflowing to inf gives a weight of 0 for omega > 0; 1/expm1(x)
    # overflowing, and 0 * inf at omega = 0, only where |x| < eps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(np.multiply(HBAR, w, out=x), kbt, out=x)
        np.divide(1.0, np.expm1(x, out=out), out=out)
        np.multiply(np.multiply(amp, w, out=tmp), out, out=out)
    small = np.abs(x, out=x) < np.finfo(float).eps
    limit = 2.0 * op.gamma_m * op.eff_mass * kbt   # inf sets no numpy flag
    if not math.isfinite(limit) and small.any():
        raise NumericalFailureError(
            "thermal weight is not finite: its classical limit overflows")
    out[small] = limit
    return out


def _scratch(size, kind):
    """One call's scratch for blocks of up to ``size`` points: four complex
    rows, and three of the grid's kind (float, or complex for a complex
    grid).  Separate arrays: below 128 KiB each, a 4,001-point grid's rows
    come from the heap where one table of them would be mapped afresh."""
    return ([np.empty(size, complex) for _ in range(4)],
            [np.empty(size, kind) for _ in range(3)])


def _amplitude(w, op, c, f):
    """E(omega) and d(omega) on one block of frequencies w.

    They are formed in the complex scratch rows c[0] and c[1], with the
    sideband left in c[2], and the rows c[3] and f[0] are overwritten
    (:func:`_scratch`).  No complex product, square or quotient writes
    over one of its operands: numpy would round a 1-point block of that by
    another loop.
    """
    mech = _mech(w, op, c[0], f[0])
    d = _denominator(mech, _cav(w, op, c[3], c[1]), op, c[1])
    sb = _sideband(w, op, c[2], f[0])
    return np.divide(_numerator(mech, sb, op, c[3]), d, out=c[0]), d


def _flat(omega):
    """The grid's shape and the grid flattened to 1-d."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    return w.shape, w.reshape(-1)


def blocks(size):
    """The slices that cut a flat grid of ``size`` points into BLOCK points."""
    return [slice(lo, lo + BLOCK) for lo in range(0, size, BLOCK)]


def _pass(flat, op):
    """E and d on the 1-d grid ``flat``, BLOCK points at a time.

    Yields (b, w, e, d, c, f) for each block: its slice of the grid, its
    frequencies, E and d, and the call's scratch rows cut to the block
    (:func:`_amplitude`), which the caller may overwrite before it asks
    for the next block.  The scratch is the call's own, so calls share
    nothing.
    """
    c, f = _scratch(min(BLOCK, flat.size), flat.dtype)
    for b in blocks(flat.size):
        w = flat[b]
        if w.size < c[0].size:
            c, f = [a[:w.size] for a in c], [a[:w.size] for a in f]
        e, d = _amplitude(w, op, c, f)
        yield b, w, e, d, c, f


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
def fill_channels(flat, op, refl, trans, sv, st, *ports):
    """Write R, T, Sv and St on the 1-d grid ``flat`` into the given arrays,
    and the port outputs Scout and Sdout into two more where given.

    The ports mix the probe line (op.input_center, op.input_bandwidth) in
    as the density Scin = omega_m*lorentzian_input(omega, ...):

        Scout = Scin*R + Sv,    Sdout = Scin*T + St.

    One pass over the grid, BLOCK points at a time, so a value does not
    depend on the size of the grid around it: each block's channels are
    formed from its E, d and sideband, and its ports from its channels,
    while they are in cache.  The bath, and the line where the ports are
    asked for, are checked once a call.  The outputs are preallocated by
    the caller: separate arrays, or rows of one table.

    Raises
    ------
    InvalidParameterError
        As :func:`thermal_weight` for the bath, and as
        :func:`omrouter.empty_cavity.lorentzian_input` for the line.
    NumericalFailureError
        When a channel divides by zero, overflows or forms NaN: |d|^2
        underflowing to 0 over a zero numerator (drive off), St past the
        float range (a bath near 1e308 K), or inf arithmetic; or the line
        density does (a line so narrow that Gamma^2 underflows).
    """
    kbt = _kbt(op)
    if ports:
        scout, sdout = ports
        center, bandwidth = empty_cavity._line(op.input_center,
                                               op.input_bandwidth)
    sv_num = sv_numerator(op)
    for b, w, e, d, c, f in _pass(flat, op):
        t, r, s = trans[b], refl[b], sv[b]
        _abs2(e, t)
        _abs2(np.subtract(e, 1.0, out=e), r)
        absd2 = _abs2(d, f[1])
        np.divide(sv_num, absd2, out=s)
        v2 = np.divide(_v2(c[2], op, f[2]), absd2, out=f[2])
        th = np.multiply(v2, _weight(w, op, kbt, st[b], f[0], f[1]),
                         out=st[b])
        if ports:
            scin = np.multiply(op.mech_freq, empty_cavity._density(
                w, center, bandwidth, f[0]), out=f[0])
            np.add(np.multiply(scin, r, out=scout[b]), s, out=scout[b])
            np.add(np.multiply(scin, t, out=sdout[b]), th, out=sdout[b])


def channel_arrays(omega, op):
    """Evaluate the four response channels on a frequency grid.

    d is evaluated once a block and shared; it is the d that
    :func:`omrouter.response.denominator_d` returns.  There is no
    near-singular guard here (the pointwise functions of
    :mod:`omrouter.response` add one).  The grid is evaluated as in
    :func:`fill_channels`, so a value's bits do not depend on the grid
    around it: a scalar omega is a grid of one point.

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
    InvalidParameterError, NumericalFailureError
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
    for b, _, e, _, _, _ in _pass(flat, op):
        _abs2(e, trans[b])
    return trans.reshape(shape)
