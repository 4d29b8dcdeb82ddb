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
module validates inputs, guards the amplitude against a near-singular
denominator, assembles the port spectra and scans the dip.  The spectra
and the dip scan refuse an unstable operating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .empty_cavity import lorentzian_input
from .errors import InvalidParameterError, NumericalFailureError
from .operating_point import HBAR, OperatingPoint

_SCAN_POINTS = 200001   # points of the dip scan's grid

# |d| below this fraction of its typical (cancellation-free) scale means
# the response value carries no trustworthy digits
_SINGULAR_RTOL = 1e-12


def _d_scale(omega, op: OperatingPoint):
    """Cancellation-free magnitude of d's constituents: the typical scale
    |d| is compared against to detect catastrophic loss of precision."""
    aw = np.abs(omega)
    f1 = op.eff_mass * (op.mech_freq ** 2 + aw * aw + op.gamma_m * aw)
    f2 = np.abs(2.0 * op.cavity_decay - 1j * omega) ** 2 + op.eff_detuning ** 2
    return f1 * f2 + abs(kernels.drive_term(op))


def denominator_d(omega, op: OperatingPoint):
    """Shared channel denominator, a degree-4 polynomial in omega.

    d(omega) = m*(omega_m^2 - omega^2 - i*gamma_m*omega)
               * ((2*kappa - i*omega)^2 + Delta^2)
               - 2*hbar*g^2*|c_s|^2*Delta

    Accepts real or complex omega, scalar or array.
    """
    w = np.asarray(omega)
    return kernels.denominator(kernels.mech_factor(w, op),
                               kernels.cav_factor(w, op), op)


def response_E(omega, op: OperatingPoint):
    """Transmitted probe amplitude E(omega).

    E = 2*kappa*[m*(omega_m^2 - omega^2 - i*gamma_m*omega)
        *(2*kappa - i*(Delta+omega)) + i*hbar*g^2*|c_s|^2] / d(omega)

    Raises
    ------
    NumericalFailureError
        When d(omega) cancels below 1e-12 of its largest term, which on the
        real axis only happens at an instability threshold.
    """
    w = np.asarray(omega)
    mech = kernels.mech_factor(w, op)
    d = kernels.denominator(mech, kernels.cav_factor(w, op), op)
    bad = np.abs(d) < _SINGULAR_RTOL * _d_scale(w, op)
    if np.any(bad):
        w_bad = np.atleast_1d(w)[np.atleast_1d(bad)][0]
        raise NumericalFailureError(
            f"near-singular response denominator at omega={w_bad:.9e}")
    e = kernels.e_numerator(w, op, mech) / d
    return complex(e) if np.ndim(omega) == 0 else e


def reflection_R(omega, op: OperatingPoint):
    """Probe reflection probability |E(omega) - 1|^2.

    Can slightly exceed 1 near the working point (the mechanically
    mediated sideband adds to the directly reflected field).
    """
    e = response_E(omega, op)
    return np.abs(np.asarray(e) - 1.0) ** 2 if np.ndim(omega) else abs(e - 1.0) ** 2


def transmission_T(omega, op: OperatingPoint):
    """Probe transmission probability |E(omega)|^2."""
    e = response_E(omega, op)
    return np.abs(np.asarray(e)) ** 2 if np.ndim(omega) else abs(e) ** 2


def vacuum_noise(omega, op: OperatingPoint):
    """Vacuum noise density on the reflected port, per unit omega/omega_m.

    Sv(omega) = 8*|kappa*hbar*g^2*c_s^2 / d(omega)|^2; drive-induced, it
    survives at zero temperature and grows like the fourth power of the
    intracavity amplitude where d does not keep pace.
    """
    val = kernels.sv_numerator(op) / np.abs(denominator_d(omega, op)) ** 2
    return float(val) if np.ndim(omega) == 0 else val


def thermal_noise(omega, op: OperatingPoint):
    """Thermal noise density fed through the membrane, per unit omega/omega_m.

    |V(omega)|^2 * hbar*gamma_m*m*(-omega)*(1 + coth(-hbar*omega/(2*kB*T)))
    with |V|^2 = 2*kappa*g^2*|c_s|^2*|2*kappa - i*(Delta+omega)|^2/|d|^2
    and T = op.bath_temp.  Zero for omega > 0 at T = 0; the omega = 0 value
    is the classical limit.  For another temperature, re-derive the point:
    derive_operating_point(replace(op.as_params(), bath_temp=T)).
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    val = (kernels.v2_numerator(w, op) / np.abs(denominator_d(w, op)) ** 2
           * kernels.thermal_weight(w, op))
    return float(val[0]) if np.ndim(omega) == 0 else val


@dataclass(frozen=True, eq=False)
class ChannelSpectra:
    """Channel values on a grid.  Tx is transmission (T is reserved for temperature)."""

    grid: np.ndarray    # sideband frequencies [rad/s]
    R: np.ndarray       # probe reflection
    Tx: np.ndarray      # probe transmission
    Sv: np.ndarray      # vacuum noise density, per unit omega/omega_m
    St: np.ndarray      # thermal noise density, per unit omega/omega_m
    Scout: np.ndarray   # total reflected-port output density
    Sdout: np.ndarray   # total transmitted-port output density


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise InvalidParameterError("grid must be 1-d with at least 2 points")
    if not np.all(np.isfinite(g)) or g[0] <= 0.0:
        raise InvalidParameterError("grid must be finite and strictly positive")
    if not np.all(np.diff(g) > 0.0):
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
    the rotating-frame noise formulas apply.

    Raises
    ------
    UnstableOperatingPointError
        When a pole of the response lies on or above the real axis
        (:func:`omrouter.kernels.is_stable`): the spectra would describe
        fluctuations that do not decay.
    """
    kernels.require_stable(op)
    g = _check_grid(grid)
    refl, trans, sv, st = kernels.channel_arrays(g, op)
    scin = op.mech_freq * lorentzian_input(g, op.input_center,
                                           op.input_bandwidth)
    return ChannelSpectra(grid=g, R=refl, Tx=trans, Sv=sv, St=st,
                          Scout=scin * refl + sv, Sdout=scin * trans + st)


def default_grid(op: OperatingPoint, n_points: int = 4001) -> np.ndarray:
    """The standard scan window [0.5, 1.5]*omega_m."""
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


def _run_ends(below, i0):
    """Ends of the run of True in ``below`` that holds ``i0``.

    The last False index before i0 and the first after it, or the array's
    ends where there is none.
    """
    left = np.flatnonzero(~below[:i0])
    right = np.flatnonzero(~below[i0:])
    return (int(left[-1]) if left.size else 0,
            i0 + int(right[0]) if right.size else len(below) - 1)


def eit_linewidth_scan(op: OperatingPoint, window=(0.5, 1.5)) -> DipScan:
    """Measure the transmission dip numerically on window*omega_m.

    Dense grid of 200,001 points, parabolic refinement of the minimum, and
    linear interpolation of the two crossings of level = (max+min)/2.
    Reports the full width between crossings and its half for direct
    comparison with :func:`eit_linewidth`; near the onset of normal-mode
    splitting the measured dip runs narrower than that first-order width,
    by about 17% at the 5 uW default.  An unstable point raises
    UnstableOperatingPointError, as in :func:`output_spectra`.
    """
    kernels.require_stable(op)
    if op.drive_power <= 0.0:
        raise InvalidParameterError(
            "eit_linewidth_scan needs drive_power > 0: no dip without drive")
    if not (0.0 < window[0] < window[1]):
        raise InvalidParameterError(f"bad scan window {window!r}")
    grid = np.linspace(window[0] * op.mech_freq, window[1] * op.mech_freq,
                       _SCAN_POINTS)
    trans = kernels.transmission(grid, op)

    i0 = int(np.argmin(trans))
    if i0 == 0 or i0 == len(grid) - 1:
        raise NumericalFailureError("transmission dip not inside the scan window")
    # parabola through the three points around the minimum
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
        # linear interpolation of the level crossing between neighbours
        ya, yb = trans[ia], trans[ib]
        return grid[ia] + (level - ya) / (yb - ya) * (grid[ib] - grid[ia])

    left = _cross(il, il + 1)
    right = _cross(ir - 1, ir)
    full = right - left
    return DipScan(center=float(center), full_width=float(full),
                   half_width=float(full / 2.0),
                   depth=float(trans.max() - y1), level=float(level))
