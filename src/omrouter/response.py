"""Linear response of the driven cavity to a weak probe, with noise floors.

Frequencies here are sideband offsets omega from the drive (rotating
frame); a probe at absolute frequency omega_p sits at omega = omega_p -
omega_drive, and the routing resonance is omega = eff_detuning.  The
transmitted probe amplitude is E(omega), the reflected one is E(omega)-1,
and every channel shares the degree-4 denominator d(omega) whose zeros are
the poles of the coupled membrane-field fluctuations.

For drive on and the red-detuned working point, radiation pressure opens a
narrow transparency window in reflection, inverting the empty-cavity
behaviour: the probe photon is reflected at the window instead of
transmitted.  The window closes when the drive is off, which is what makes
the device a switchable router.

Output spectra mix the probe line with the channels.  Densities are per
unit omega/omega_m (so band integrals are photon probabilities); the grid
itself stays in rad/s.

The channel formulas live in :mod:`omrouter.kernels`, written once; this
module validates inputs, allocates the spectra table and scans the dip.
The pointwise functions (:func:`response_E` and the four channels) are
the grid kernel's values at the caller's frequencies, bit for bit, behind
one guard: they refuse a frequency that is not real (E alone takes
complex ones), an unstable operating point, as the spectra and the dip
scan do, and a frequency where d cancels to near zero.  How d
rounds is read from :mod:`omrouter.kernels`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidParameterError, NumericalFailureError
from .kernels import _ROUND
from .operating_point import (HBAR, OperatingPoint, _interval, _numbers,
                              _operating_point)

_SCAN_POINTS = 200001   # points of the dip scan's grid
_CELL = 64              # grid points per cell of the dip scan's bounds

# |D| below this fraction of kernels.scale means the response value carries
# no trustworthy digits
_SINGULAR_RTOL = 1e-12


def denominator_d(omega, op: OperatingPoint):
    """Shared channel denominator, a degree-4 polynomial in omega.

    d(omega) = m*(omega_m^2 - omega^2 - i*gamma_m*omega)
               * ((2*kappa - i*omega)^2 + Delta^2)
               - 2*hbar*g^2*|c_s|^2*Delta

    Accepts finite real or complex omega, scalar or array; anything else
    raises InvalidParameterError.  Integers are taken as floats, so their
    squares do not wrap around.  A d past the float range raises
    NumericalFailureError.
    """
    _operating_point(op)
    w = _numbers("omega", omega, "iufc", finite=True)
    if w.dtype.kind in "iu":
        w = w.astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        d = kernels.denominator(kernels.mech_factor(w, op),
                                kernels.cav_factor(w, op), op)
    if not np.all(np.isfinite(d)):
        raise NumericalFailureError("d is past the float range")
    return d


def _checked(omega, op: OperatingPoint, kinds="iuf"):
    """omega as an array, behind the pointwise functions' checks: a dtype
    of the kinds ``kinds`` (integers and floats unless told otherwise), a
    stable point, and a d that does not cancel to near zero."""
    w = _numbers("omega", omega, kinds)
    kernels.require_stable(op)
    # a scalar as a Python number, whose arithmetic takes a tenth of numpy's
    x = (w.item() if w.ndim == 0 else w) / op.mech_freq
    red = kernels.reduced(op)
    # a frequency that is not finite is left to the kernel
    with np.errstate(invalid="ignore", over="ignore"):
        bad = np.abs(kernels.factored(red, x, sized=False)[0]) \
            < _SINGULAR_RTOL * kernels.scale(red, np.abs(x))
    if np.any(bad):
        w_bad = np.atleast_1d(w)[np.atleast_1d(bad)][0]
        raise NumericalFailureError(
            f"near-singular response denominator at omega={w_bad:.9e}")
    return w


def _channel(omega, op: OperatingPoint, row):
    """Row ``row`` of kernels.channel_arrays at the real frequencies
    omega, behind the shared checks; a float for a scalar omega."""
    val = kernels.channel_arrays(_checked(omega, op), op)[row]
    return float(val[0]) if np.ndim(omega) == 0 else val


@kernels._finite
def _amplitude(w, op):
    """E at the frequencies w from the grid kernel's block pass, behind its
    floating-point guard; integers are taken as floats."""
    flat = np.ravel(np.asarray(w, dtype=np.result_type(w, float)))
    e = np.empty(flat.size, complex)
    for b, _, block, _, _, _ in kernels._pass(flat, op):
        e[b] = block
    return e.reshape(np.shape(w))


def response_E(omega, op: OperatingPoint):
    """Transmitted probe amplitude E(omega).

    E = 2*kappa*[m*(omega_m^2 - omega^2 - i*gamma_m*omega)
        *(2*kappa - i*(Delta+omega)) + i*hbar*g^2*|c_s|^2] / d(omega)

    E comes from the grid kernel's block pass, and the four channels
    below are rows of :func:`omrouter.kernels.channel_arrays` at omega,
    bit for bit: a scalar omega gives an array's value.  All five share
    one guard.

    Raises
    ------
    InvalidParameterError
        When omega is not integers, floats or complex numbers; the four
        channels take integers and floats only.
    UnstableOperatingPointError
        When a pole of the response lies on or above the real axis
        (:func:`omrouter.kernels.is_stable`).
    NumericalFailureError
        When |D| (:func:`omrouter.kernels.factored`) is below 1e-12 of
        :func:`omrouter.kernels.scale`, which on the real axis only
        happens next to an instability threshold, or E is not finite.
    """
    e = _amplitude(_checked(omega, op, "iufc"), op)
    return complex(e) if np.ndim(omega) == 0 else e


def reflection_R(omega, op: OperatingPoint):
    """Probe reflection probability |E(omega) - 1|^2.

    Can slightly exceed 1 near the working point (the mechanically
    mediated sideband adds to the directly reflected field).  Raises as
    :func:`response_E`.
    """
    return _channel(omega, op, 0)


def transmission_T(omega, op: OperatingPoint):
    """Probe transmission probability |E(omega)|^2.  Raises as
    :func:`response_E`."""
    return _channel(omega, op, 1)


def vacuum_noise(omega, op: OperatingPoint):
    """Vacuum noise density on the reflected port, per unit omega/omega_m.

    Sv(omega) = 8*|kappa*hbar*g^2*c_s^2 / d(omega)|^2; drive-induced, it
    survives at zero temperature and grows like the fourth power of the
    intracavity amplitude where d does not keep pace.  Raises as
    :func:`response_E`.
    """
    return _channel(omega, op, 2)


def thermal_noise(omega, op: OperatingPoint):
    """Thermal noise density fed through the membrane, per unit omega/omega_m.

    |V(omega)|^2 * hbar*gamma_m*m*(-omega)*(1 + coth(-hbar*omega/(2*kB*T)))
    with |V|^2 = 2*kappa*g^2*|c_s|^2*|2*kappa - i*(Delta+omega)|^2/|d|^2
    and T = op.bath_temp.  Zero for omega > 0 at T = 0; the omega = 0 value
    is the classical limit.  For another temperature, re-derive the point:
    derive_operating_point(replace(op.as_params(), bath_temp=T)).  Raises
    as :func:`response_E`, and InvalidParameterError for a bath_temp that
    is negative or not finite.
    """
    return _channel(omega, op, 3)


@dataclass(frozen=True, eq=False)
class ChannelSpectra:
    """Channel values on a grid.  Tx is transmission (T is reserved for temperature).

    The six value arrays are the rows of one (6, n) table, allocated and
    filled by :func:`output_spectra`: keeping any one of them alive keeps
    the whole table (9.6 MB on the 200,001-point design grid).  Copy a row
    to keep it alone.
    """

    grid: np.ndarray    # sideband frequencies [rad/s]
    R: np.ndarray       # probe reflection
    Tx: np.ndarray      # probe transmission
    Sv: np.ndarray      # vacuum noise density, per unit omega/omega_m
    St: np.ndarray      # thermal noise density, per unit omega/omega_m
    Scout: np.ndarray   # total reflected-port output density
    Sdout: np.ndarray   # total transmitted-port output density


def _require_finite_d2(top, op: OperatingPoint):
    """Raise NumericalFailureError unless the square of d's size at omega =
    top, a grid's largest, is finite; no float power can overflow here."""
    wm = op.mech_freq
    with np.errstate(over="ignore"):
        scale = kernels.scale(kernels.reduced(op), top / wm) \
            * wm * wm * wm * wm * op.eff_mass
        if not np.isfinite(scale * scale):
            raise NumericalFailureError(
                f"|d|^2 overflows on the grid: d's scale at omega={top:.3e} "
                f"is {scale:.3e}")


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(_numbers("grid", grid, finite=True), dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise InvalidParameterError("grid must be 1-d with at least 2 points")
    if g[0] <= 0.0:
        raise InvalidParameterError("grid must be strictly positive")
    if not np.all(g[1:] > g[:-1]):
        raise InvalidParameterError("grid must be strictly increasing")
    return g


def output_spectra(grid, op: OperatingPoint) -> ChannelSpectra:
    """Evaluate all channels and the port outputs on a grid.

    The probe line (op.input_center, op.input_bandwidth) enters as the
    density Scin(omega) = omega_m * (Gamma/pi)/((omega-omega_p)^2+Gamma^2),
    per unit omega/omega_m like the noise channels, so that

        Scout = Scin*R + Sv      (reflected port)
        Sdout = Scin*Tx + St     (transmitted port)

    integrate to photon numbers.  Grids are restricted to omega > 0, where
    the rotating-frame noise formulas apply.  The six outputs are the rows
    of one (6, n) table, filled in one pass of
    :func:`omrouter.kernels.fill_channels`, block by block.

    Raises
    ------
    InvalidParameterError
        Unless the grid is at least 2 real numbers, finite, positive and
        strictly increasing, in 1-d.
    UnstableOperatingPointError
        When a pole of the response lies on or above the real axis
        (:func:`omrouter.kernels.is_stable`): the spectra would describe
        fluctuations that do not decay.
    NumericalFailureError
        When |d|^2 may overflow on the grid: the square of d's size at the
        grid's largest omega is not finite.
        Or when a channel divides by zero or forms NaN, as
        :func:`omrouter.kernels.fill_channels` raises it, or the line
        density does (a line so narrow that Gamma^2 underflows).
    """
    kernels.require_stable(op)
    g = _check_grid(grid)
    _require_finite_d2(g[-1], op)
    table = np.empty((6, g.size))
    kernels.fill_channels(g, op, *table)
    refl, trans, sv, st, scout, sdout = table
    return ChannelSpectra(grid=g, R=refl, Tx=trans, Sv=sv, St=st,
                          Scout=scout, Sdout=sdout)


def default_grid(op: OperatingPoint, n_points: int = 4001) -> np.ndarray:
    """The standard scan window [0.5, 1.5]*omega_m in n_points points;
    InvalidParameterError unless op is an OperatingPoint and n_points is an
    int >= 2 whose 8*n_points bytes numpy can size."""
    _operating_point(op)
    whole = isinstance(n_points, numbers.Integral) \
        and not isinstance(n_points, bool)
    if not whole or n_points < 2:
        raise InvalidParameterError(
            "n_points must be an int >= 2, got "
            + ("one below 2" if whole else type(n_points).__name__))
    if n_points > np.iinfo(np.intp).max // 8:
        raise InvalidParameterError(
            "n_points is more than an array may hold: numpy cannot size "
            "its 8*n_points bytes")
    return np.linspace(0.5 * op.mech_freq, 1.5 * op.mech_freq, n_points)


def eit_linewidth(op: OperatingPoint) -> float:
    """Closed-form half-width of the transparency window [rad/s].

    gamma_m/2 + hbar*g^2*eps_c^2 / (4*m*omega_m*kappa*(4*kappa^2+omega_m^2))

    Valid at the red-detuned working point Delta ~ omega_m; reduces to the
    bare mechanical half-width gamma_m/2 when the drive is off.  This is a
    half-width: compare against half the measured dip width.

    The drive-induced part Gamma_d (the second term) is only first order
    in Gamma_d/kappa.  Keeping only the cavity pole next to the window and
    letting gamma_m -> 0, the measured dip's half-depth half-width is
    exactly kappa*(sqrt(1 + 2*Gamma_d/kappa) - 1), which tends to Gamma_d
    as Gamma_d/kappa -> 0.  At the 5 uW default (Gamma_d/kappa = 0.48) this
    formula runs 20% above that width; :func:`eit_linewidth_scan` agrees
    with the closed form to 0.03% there.
    """
    _operating_point(op)
    drive = (HBAR * op.g ** 2 * op.eps_c ** 2
             / (4.0 * op.eff_mass * op.mech_freq * op.cavity_decay
                * (4.0 * op.cavity_decay ** 2 + op.mech_freq ** 2)))
    return op.gamma_m / 2.0 + drive


@dataclass(frozen=True)
class DipScan:
    """Measured geometry of the transmission dip."""

    center: float       # interpolated dip minimum [rad/s]
    full_width: float   # distance between half-depth crossings [rad/s]
    half_width: float   # full_width/2, comparable to eit_linewidth
    depth: float        # max(T) - min(T) on the window
    level: float        # the half-depth level used for the crossings


def _within(values, bits):
    """Whether every nonzero value is finite with |log2| <= bits."""
    return all(v == 0.0 or (math.isfinite(v) and abs(math.log2(abs(v))) <= bits)
               for v in values)


def _less(a, b):
    """A lower bound of a - b from a, b within _ROUND of their exact values."""
    return np.maximum(a * (1.0 - _ROUND) - b * (1.0 + _ROUND), 0.0)


def _times(a, b):
    """The Taylor coefficients of a product, from those of its factors."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def _spread(coeffs, r):
    """A bound of sum_{k>=1} |P_k|*r^k, for the Taylor coefficients P_k of
    P at c: of |P(x) - P_0| over |x - c| <= r."""
    spread = 0.0
    for p in coeffs[:0:-1]:
        spread = (spread + np.abs(p)) * r
    return spread * (1.0 + _ROUND)


def _cell_bounds(edges, op: OperatingPoint):
    """Bounds of the kernel's computed T on each cell [edges[c], edges[c+1]]
    of a grid [rad/s].

    With x = omega/omega_m, T = k2^2*|N|^2/|D|^2, with the cubic N and the
    quartic D of :func:`omrouter.kernels.reduced`.  On a cell of centre c
    and half-width r, |N| and |D| lie within sum_{k>=1} |P_k|*r^k of
    |P_0|, P_k being their Taylor coefficients at c, formed from the
    factors' (:func:`_spread`).  The cancellation-free sizes of N and D,
    sums of the moduli of their terms, have nonnegative Taylor
    coefficients, so at the cell's top c + r each is the sum of the sizes
    of the P_k times r^k: within _ROUND of it lie both the coefficients'
    rounding and the kernel's rounding of E*d and d on the cell (D's size
    is :func:`omrouter.kernels.scale`).  The kernel's division, modulus and
    square move T by less than 4*_ROUND relative.  Everything is formed in
    units of omega_m, so no bound overflows where T is finite.

    Returns (low, high), arrays over the cells; every cell gets (0, inf)
    when the float range cannot certify the bounds, and a cell whose lower
    bound on |D| reaches 0 gets an infinite high.
    """
    wm = op.mech_freq
    low = np.zeros(edges.size - 1)
    high = np.full(edges.size - 1, np.inf)
    # the kernel's products have at most five factors; inputs within 2^128
    # keep them, and six levels of cancellation below them, in the normal
    # float range, so every rounding is relative
    if not _within((op.eff_mass, wm, op.gamma_m, op.cavity_decay,
                    op.eff_detuning, kernels.drive_term(op),
                    HBAR * kernels.coupling(op), edges[0], edges[-1]), 128):
        return low, high
    k2, g, dl, dd, h, *_ = red = kernels.reduced(op)
    x = edges / wm
    # in units of omega_m the bounds' products stay in range
    if not _within((k2, g, dl, dd, h, x[0], x[-1]), 64):
        return low, high
    c = 0.5 * (x[:-1] + x[1:])
    # the x are within _ROUND*x[1:] of the exact cell edges
    r = 0.5 * (x[1:] - x[:-1]) + _ROUND * x[1:]
    u = k2 - 1j * c
    mech = [1.0 - c * c - 1j * g * c, -2.0 * c - 1j * g, -1.0]
    num = _times(mech, [k2 - 1j * (dl + c), -1j])
    den = _times(mech, [u * u + dl * dl, -2j * u, -1.0])
    num[0] = num[0] + 1j * h
    den[0] = den[0] - dd
    # the sizes of N and D at the cell's top, c + r: _ROUND of each for
    # the coefficients' rounding and _ROUND for the kernel's
    top = x[1:] * (1.0 + _ROUND)
    mech_top = 1.0 + top * top + g * top
    size_e = mech_top * (k2 + abs(dl) + top) + abs(h)
    size_d = kernels.scale(red, top)
    num_spread = _spread(num, r) + 2.0 * _ROUND * size_e
    den_spread = _spread(den, r) + 2.0 * _ROUND * size_d
    num, den = np.abs(num[0]), np.abs(den[0])
    tiny = np.finfo(float).smallest_subnormal
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo = (k2 * _less(num, num_spread)
              / ((den + den_spread) * (1.0 + _ROUND))) ** 2 \
            * (1.0 - 4.0 * _ROUND)
        hi = (k2 * (num + num_spread) * (1.0 + _ROUND)
              / _less(den, den_spread)) ** 2 * (1.0 + 4.0 * _ROUND)
        # underflow in the kernel's last steps: a few subnormal steps
        hi = hi + 4.0 * tiny * (1.0 + np.sqrt(hi))
    low = np.where(lo - 4.0 * tiny >= 0.0, lo - 4.0 * tiny, 0.0)
    high = np.where(hi >= low, hi, np.inf)
    return low, high


def _linspace_at(start, stop, num):
    """np.linspace(start, stop, num) as a function of the index, bit for bit.

    Point i is start + i*step with step = (stop - start)/(num - 1), one
    rounding per operation, and the last point is stop itself; a step that
    underflows to 0 is formed as (i/(num - 1))*(stop - start).  Only the
    points asked for are formed, so no num-point array is allocated.
    """
    delta = stop - start
    div = num - 1
    step = delta / div

    def at(idx):
        i = np.asarray(idx, dtype=float)
        w = (i * step if step != 0.0 else i / div * delta) + start
        return np.where(i == div, stop, w)
    return at


def eit_linewidth_scan(op: OperatingPoint, window=(0.5, 1.5)) -> DipScan:
    """Measure the transmission dip numerically on window*omega_m.

    The dip is measured on a grid of 200,001 points: the grid minimum with
    parabolic refinement, and linear interpolation of the two crossings of
    level = (max+min)/2.  Reports the full width between crossings and its
    half for direct comparison with :func:`eit_linewidth`; near the onset
    of normal-mode splitting the measured dip runs narrower than that
    first-order width, by about 17% at the 5 uW default.  An unstable point
    raises UnstableOperatingPointError, and a window on which |d|^2 may
    overflow NumericalFailureError, as in :func:`output_spectra`.  A
    window that is not two finite numbers 0 < lo < hi with hi*omega_m
    finite raises InvalidParameterError.

    The answer is the one T evaluated on every grid point gives, bit for
    bit (the same argmin, max, level and crossing indices), but T is
    evaluated only on the 64-point cells that bounds cannot rule out as
    holding the minimum, the maximum or a half-depth crossing; on the
    benchmark's design points that is 2-8% of the grid, and 5% at the
    exceptional point, where two poles merge.  The bounds come from the
    Taylor expansions of E*d and d on each cell (:func:`_cell_bounds`),
    so no root is found.  Where they prove nothing, the cell is evaluated.
    The grid is np.linspace's, but only the points of those cells are
    formed: the scan allocates no array of the grid's size.
    """
    kernels.require_stable(op)
    if op.drive_power <= 0.0:
        raise InvalidParameterError(
            "eit_linewidth_scan needs drive_power > 0: no dip without drive")
    lo, hi = _interval("scan window", window)
    if not math.isfinite(hi * op.mech_freq):
        raise InvalidParameterError(
            f"bad scan window ({lo!r}, {hi!r}): hi*omega_m is past the "
            "float range")
    _require_finite_d2(hi * op.mech_freq, op)
    n = _SCAN_POINTS
    grid = _linspace_at(lo * op.mech_freq, hi * op.mech_freq, n)
    # cell c holds the points starts[c] <= i < stops[c]; its bounds cover
    # [grid(starts[c]), grid(stops[c])], the last point joining the last cell
    starts = np.arange(0, n - 1, _CELL)
    stops = np.append(starts[1:], n)
    low, high = _cell_bounds(grid(np.append(starts, n - 1)), op)

    def evaluate(cells):
        # the grid indices of the cells, ascending, and T on them
        idx = starts[cells, None] + np.arange(_CELL + 1)
        idx = idx[idx < stops[cells, None]]
        return idx, kernels.transmission(grid(idx), op)

    # a cell holds no value below min(high) unless low <= min(high), and
    # none above max(low) unless high >= max(low)
    idx, trans = evaluate(np.flatnonzero((low <= high.min())
                                         | (high >= low.max())))
    i0 = int(idx[np.argmin(trans)])
    if i0 == 0 or i0 == n - 1:
        raise NumericalFailureError("transmission dip not inside the scan window")
    t_max = trans.max()
    # parabola through the three points around the minimum
    w = grid(np.arange(i0 - 1, i0 + 2))
    y0, y1, y2 = kernels.transmission(w, op)
    denom = y0 - 2.0 * y1 + y2
    shift = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
    w0, w1 = grid(np.array([0, 1]))
    center = w[1] + shift * (w1 - w0)

    level = 0.5 * (float(t_max) + float(y1))
    if not y1 < level:
        raise NumericalFailureError("transmission dip too shallow to scan")

    # the nearest points at or above the level on either side of i0: in a
    # cell with low >= level every point is, in one with high < level none
    idx, trans = evaluate(np.flatnonzero((low < level) & (high >= level)))
    at_or_above = idx[~(trans < level)]
    clear = np.flatnonzero(low >= level)
    cell0 = i0 // _CELL
    lefts = np.concatenate((at_or_above[at_or_above < i0],
                            stops[clear[clear < cell0]] - 1))
    rights = np.concatenate((at_or_above[at_or_above > i0],
                             starts[clear[clear > cell0]]))
    if not (lefts.size and rights.size):
        raise NumericalFailureError("half-depth crossings leave the scan window")
    il, ir = int(lefts.max()), int(rights.min())

    wa, wb, wc, wd = w = grid(np.array([il, il + 1, ir - 1, ir]))
    ya, yb, yc, yd = kernels.transmission(w, op)
    # linear interpolation of the level crossings between neighbours
    left = wa + (level - ya) / (yb - ya) * (wb - wa)
    right = wc + (level - yc) / (yd - yc) * (wd - wc)
    full = right - left
    return DipScan(center=float(center), full_width=float(full),
                   half_width=float(full / 2.0),
                   depth=float(t_max - y1), level=float(level))
