"""Band-integrated routing of a Lorentzian single-photon line.

The probe photon arrives in a Lorentzian line of half-width Gamma centered
on the transparency window; weighting the reflection and transmission
channels by the line density over the analysis band and normalizing by the
in-band line mass gives the probabilities that the photon leaves through
either port.  The noise channels integrate over the same normalized axis,
so leaks and probabilities share a scale.

Heavy Lorentzian tails matter here: a line of width Gamma against a window
of half-width w (the dip's half-depth half-width, as measured by
eit_linewidth_scan) loses roughly Gamma/(Gamma+w) of its mass to the skirts
where the window no longer reflects.  Narrow lines or stronger drive are
what push the routing toward ideal.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

from scipy import integrate

from .empty_cavity import lorentzian_input
from .errors import InvalidParameterError, NumericalFailureError
from .operating_point import OperatingPoint, SystemParams, derive_operating_point
from .response import reflection_R, thermal_noise, transmission_T, vacuum_noise

# the band must cover the line core, center +- one half-width; wider lines
# legitimately spill outside the band (that spillage is the physics of a
# too-broad photon) and only the normalization accounts for it
_BAND_COVER = 1.0


@dataclass(frozen=True)
class RoutingReport:
    """Where the photon (and the added noise) goes."""

    p_reflect: float      # probe exits the driven port
    p_transmit: float     # probe exits the far port
    vacuum_leak: float    # band-integrated Sv, units of photons
    thermal_leak: float   # band-integrated St, units of photons
    band: tuple[float, float]   # analysis band [rad/s]


def _quad(f, lo, hi, points, limit):
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, _ = integrate.quad(f, lo, hi, points=points, limit=limit,
                                    epsabs=0.0, epsrel=1e-6)
        except integrate.IntegrationWarning as exc:
            raise NumericalFailureError(f"band integral did not converge: {exc}")
    return val


def routing_probabilities(op: OperatingPoint, band=None,
                          quad_points: int = 400) -> RoutingReport:
    """Integrate the channels against the probe line over the band.

    p_reflect = int_band Scin*R / int_band Scin, likewise for transmission;
    the normalization by the in-band line mass makes the two sum to exactly
    1 when the drive is off.  Values may exceed 1 by the small margin R
    itself does; they are reported as computed, never clamped.

    Parameters
    ----------
    op : OperatingPoint
        Must be dynamically stable; this is the caller's contract (the
        command line front end verifies it).
    band : (float, float), optional
        Analysis band [rad/s], default [0.5, 1.5]*omega_m.  Must cover the
        line core, center +- Gamma.
    quad_points : int
        Subdivision budget for the adaptive quadrature, at least 200.
    """
    if quad_points < 200:
        raise InvalidParameterError(
            f"quad_points must be >= 200, got {quad_points!r}")
    if band is None:
        band = (0.5 * op.mech_freq, 1.5 * op.mech_freq)
    lo, hi = float(band[0]), float(band[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise InvalidParameterError(f"band must satisfy 0 < lo < hi, got {band!r}")
    center = op.input_center
    gamma = op.input_bandwidth
    if lo > center - _BAND_COVER * gamma or hi < center + _BAND_COVER * gamma:
        raise InvalidParameterError(
            f"band {band!r} excludes the input line core "
            f"{center!r} +- {_BAND_COVER * gamma!r}")

    pts = sorted(p for p in (center - gamma, center, center + gamma,
                             op.mech_freq) if lo < p < hi)

    def scin(w):
        return float(lorentzian_input(w, center, gamma))

    mass = _quad(scin, lo, hi, pts, quad_points)
    p_r = _quad(lambda w: scin(w) * reflection_R(w, op), lo, hi, pts,
                quad_points) / mass
    p_t = _quad(lambda w: scin(w) * transmission_T(w, op), lo, hi, pts,
                quad_points) / mass
    # leaks live on the omega/omega_m axis, same measure as the spectra
    v_leak = _quad(lambda w: vacuum_noise(w, op), lo, hi, pts,
                   quad_points) / op.mech_freq
    t_leak = _quad(lambda w: thermal_noise(w, op), lo, hi, pts,
                   quad_points) / op.mech_freq
    return RoutingReport(p_reflect=p_r, p_transmit=p_t, vacuum_leak=v_leak,
                         thermal_leak=t_leak, band=(lo, hi))


def switching_contrast(params: SystemParams, p_on: float, band=None,
                       quad_points: int = 400) -> float:
    """min(p_transmit with drive off, p_reflect at drive p_on).

    The figure of merit for using the device as a switch: how well it
    passes the photon in the off state and turns it around in the on
    state, whichever is worse.  p_on = 0 is degenerate (both states
    identical) and simply returns min(p_transmit, p_reflect) there.

    The contrast is noise-free: it uses the probe channels only, so it does
    not depend on ``bath_temp``.  Temperature shows up only in
    :attr:`RoutingReport.thermal_leak`.
    """
    if not (p_on >= 0.0 and math.isfinite(p_on)):
        raise InvalidParameterError(f"p_on must be >= 0 and finite, got {p_on!r}")
    off = routing_probabilities(
        derive_operating_point(replace(params, drive_power=0.0)),
        band=band, quad_points=quad_points)
    on = routing_probabilities(
        derive_operating_point(replace(params, drive_power=p_on)),
        band=band, quad_points=quad_points)
    return min(off.p_transmit, on.p_reflect)
