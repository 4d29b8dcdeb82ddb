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

The five band integrals (Scin, Scin*R, Scin*T, Sv and St) are computed
together by one adaptive 21-point Gauss-Kronrod pass with QUADPACK's qk21
error estimate.  The first partition is graded toward the narrow features,
whose place and width are known: cuts at the line center and at
center +- Gamma*2^k, k = 0, 1, ..., out to the band edges, and, with the
drive on, likewise around omega_m at the window half-width eit_linewidth
(one set at the narrower width where the line sits on the window).
Panels then shrink with the features they hold, so most reports need no
refinement.  Where one does, each refinement level evaluates the channels
once, on the nodes of every panel it splits, and a panel is split while
its error estimate exceeds its fair share of the tolerance for any of the
five.  The pass stops when each integral's summed error estimate is within
1e-10 of its value.  The line is evaluated at offsets from its center,
so a line as narrow as 1e-12*omega_m is integrated to that accuracy too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .empty_cavity import lorentzian_input
from .errors import InvalidParameterError, NumericalFailureError
from .operating_point import OperatingPoint, SystemParams, derive_operating_point
# Not used here.  perfbench/tracer.py wraps these names in this module as
# its response.pointwise layer and reports the layer absent without them.
from .response import (reflection_R, thermal_noise,  # noqa: F401
                       transmission_T, vacuum_noise)
from .response import eit_linewidth

# the band must cover the line core, center +- one half-width; wider lines
# legitimately spill outside the band (that spillage is the physics of a
# too-broad photon) and only the normalization accounts for it
_BAND_COVER = 1.0

# each band integral stops once its summed error estimate is within this
# fraction of its value
_REL_TOL = 1e-10

# most Gauss-Kronrod panels the band may be split into, the first
# partition included
_MAX_PANELS = 400

# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1]: the positive Kronrod
# abscissae and their weights, then the weights of the embedded 10-point
# Gauss rule, whose abscissae are every second Kronrod one from the second
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077208564865465, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WK0 = 0.149445554002916905664936468389821   # Kronrod weight of the center
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_GK_X = np.array([-x for x in _XK] + [0.0] + list(reversed(_XK)))
_GK_WK = np.array(list(_WK) + [_WK0] + list(reversed(_WK)))
_GK_WG = np.zeros(21)
_GK_WG[1:10:2] = _WG
_GK_WG[19:10:-2] = _WG
# qk21's floor on an error estimate: 50 ulp of the panel's absolute integral
_ROUNDOFF = 50.0 * np.finfo(float).eps


@dataclass(frozen=True)
class RoutingReport:
    """Where the photon (and the added noise) goes."""

    p_reflect: float      # probe exits the driven port
    p_transmit: float     # probe exits the far port
    vacuum_leak: float    # band-integrated Sv, units of photons
    thermal_leak: float   # band-integrated St, units of photons
    band: tuple[float, float]   # analysis band [rad/s]
    quad_error: float     # worst relative error estimate of the band integrals
    n_evals: int          # frequency nodes the band integrals evaluated


# an integrand that overflows is reported by the caller, as one error
@np.errstate(all="ignore")
def _gk21(a, b, op: OperatingPoint):
    """The five integrands' qk21 values and error estimates on panels [a, b].

    The panel edges are offsets from the line center.  Returns two arrays
    of shape (5, len(a)), rows Scin, Scin*R, Scin*T, Sv and St.
    """
    half = 0.5 * (b - a)
    offsets = ((0.5 * (a + b))[:, None] + half[:, None] * _GK_X).ravel()
    refl, trans, sv, st = kernels.channel_arrays(op.input_center + offsets, op)
    # the line is evaluated at the offsets themselves: rounded to the
    # absolute axis, the nodes of a line 1e-9*omega_m wide would move by
    # 1e-7 of its width, an error the rule cannot see
    scin = lorentzian_input(offsets, 0.0, op.input_bandwidth)
    f = np.stack((scin, scin * refl, scin * trans, sv, st)).reshape(5, -1, 21)
    resk = f @ _GK_WK
    err = np.abs(resk - f @ _GK_WG) * half
    # the rule applied to |f - mean of f|; the weights sum to 2
    resasc = (np.abs(f - 0.5 * resk[..., None]) @ _GK_WK) * half
    # the integrands are >= 0, so this is also the absolute integral that
    # _ROUNDOFF scales
    resk *= half
    # resasc * min(1, (200 * err / resasc)^1.5), dividing only below the cap
    ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err),
                      where=200.0 * err < resasc)
    err = np.maximum(resasc * ratio ** 1.5, _ROUNDOFF * resk)
    return resk, err


def _features(op: OperatingPoint):
    """The narrow features of the integrands: (point, scale) pairs.

    Points are offsets from the line center.  The line has half-width
    Gamma at 0; with the drive on, the transparency window has half-width
    eit_linewidth at omega_m.  Where the two coincide, the narrower scale
    stands for both.  With the drive off the mechanics is decoupled, and
    there is no window.
    """
    gamma = op.input_bandwidth
    if kernels.coupling(op) == 0.0:
        return [(0.0, gamma)]
    window, width = op.mech_freq - op.input_center, eit_linewidth(op)
    if window == 0.0:
        return [(0.0, min(gamma, width))]
    return [(0.0, gamma), (window, width)]


def _doublings(reach, scale):
    """An upper bound on the k >= 0 with scale*2^k < reach."""
    if reach <= scale:
        return 0
    return 1 + math.floor(math.log2(reach) - math.log2(scale))


def _first_edges(op: OperatingPoint, lo: float, hi: float):
    """Panel edges of the first partition, as offsets from the line center.

    Each feature gets the cuts point and point +- scale*2^k, k = 0, 1, ...,
    that fall strictly inside the band; omega_m is always a cut.

    Raises
    ------
    NumericalFailureError
        When those cuts alone would make more than _MAX_PANELS panels; the
        count is bounded from log2(band/scale) before any cut is made.
    """
    features = _features(op)
    steps = [(_doublings(point - lo, scale), _doublings(hi - point, scale))
             for point, scale in features]
    n_panels = 2 + sum(1 + below + above for below, above in steps)
    if n_panels > _MAX_PANELS:
        raise NumericalFailureError(
            f"band integrals did not converge within {_MAX_PANELS} panels: "
            f"the graded first partition alone needs up to {n_panels}")
    cuts = {lo, hi, op.mech_freq - op.input_center}
    for (point, scale), (below, above) in zip(features, steps):
        cuts.add(point)
        cuts.update(point - scale * 2.0 ** k for k in range(below))
        cuts.update(point + scale * 2.0 ** k for k in range(above))
    return np.array(sorted(c for c in cuts if lo <= c <= hi))


def _band_integrals(op: OperatingPoint, lo: float, hi: float):
    """Integrate Scin, Scin*R, Scin*T, Sv and St over [lo, hi] together.

    Returns the five integrals as floats, the worst relative error estimate
    among them and the number of frequency nodes evaluated.

    Raises
    ------
    NumericalFailureError
        When meeting the tolerance would take more than _MAX_PANELS
        panels, when no panel is over its share of a tolerance that the
        total is over, or when an integral or its error estimate is not
        finite.
    """
    center = op.input_center
    edges = _first_edges(op, lo - center, hi - center)
    a, b = edges[:-1], edges[1:]
    val, err = _gk21(a, b, op)
    n_evals = _GK_X.size * a.size
    while True:
        total, total_err = val.sum(axis=1), err.sum(axis=1)
        # every term is >= 0, so the sum is finite only if all are
        if not math.isfinite(total.sum() + total_err.sum()):
            raise NumericalFailureError("band integrals did not converge: an "
                                        "integral or its error estimate is "
                                        "not finite")
        tol = _REL_TOL * np.abs(total)
        if np.all(total_err <= tol):
            break
        # split each panel over its fair share of any integral's tolerance;
        # while one total is over, some panel is over its share of it,
        # unless rounding hides it
        split = np.any(err > (tol / a.size)[:, None], axis=0)
        n_split = np.count_nonzero(split)
        if n_split == 0:
            raise NumericalFailureError(
                "band integrals did not converge: no panel is over its "
                "share of the tolerance")
        if a.size + n_split > _MAX_PANELS:
            raise NumericalFailureError(
                f"band integrals did not converge within {_MAX_PANELS} panels")
        keep = ~split
        left, right = a[split], b[split]
        mid = 0.5 * (left + right)
        new_a = np.concatenate((left, mid))
        new_b = np.concatenate((mid, right))
        new_val, new_err = _gk21(new_a, new_b, op)
        n_evals += _GK_X.size * new_a.size
        a = np.concatenate((a[keep], new_a))
        b = np.concatenate((b[keep], new_b))
        val = np.concatenate((val[:, keep], new_val), axis=1)
        err = np.concatenate((err[:, keep], new_err), axis=1)
    worst = max((e / abs(v) if v else 0.0)
                for v, e in zip(total.tolist(), total_err.tolist()))
    return total.tolist(), worst, n_evals


def routing_probabilities(op: OperatingPoint, band=None) -> RoutingReport:
    """Integrate the channels against the probe line over the band.

    p_reflect = int_band Scin*R / int_band Scin, likewise for transmission;
    the normalization by the in-band line mass, computed with the same
    nodes, makes the two sum to 1 within rounding when the drive is off.
    Values may exceed 1 by the small margin R itself does; they are
    reported as computed, never clamped.

    All five band integrals come from one adaptive 21-point Gauss-Kronrod
    pass (see the module docstring).  It starts from panels graded
    geometrically toward the line center and, with the drive on, toward
    omega_m, and stops once each integral's error estimate is within 1e-10
    of its value, with the band in at most 400 panels, the first partition
    included; the report carries the worst relative estimate and the
    number of frequency nodes evaluated.

    Parameters
    ----------
    op : OperatingPoint
        The working point; it must be dynamically stable.
    band : (float, float), optional
        Analysis band [rad/s], default [0.5, 1.5]*omega_m.  Must cover the
        line core, center +- Gamma.

    Raises
    ------
    UnstableOperatingPointError
        When a pole of the response lies on or above the real axis
        (:func:`omrouter.kernels.is_stable`).
    NumericalFailureError
        When the integrals need more than 400 panels (grading toward a
        line of about 1e-60 of the band's width alone takes that many), or
        when an integrand overflows.
    """
    kernels.require_stable(op)
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

    (mass, refl, trans, sv, st), quad_error, n_evals = _band_integrals(
        op, lo, hi)
    # leaks live on the omega/omega_m axis, same measure as the spectra
    return RoutingReport(p_reflect=refl / mass, p_transmit=trans / mass,
                         vacuum_leak=sv / op.mech_freq,
                         thermal_leak=st / op.mech_freq, band=(lo, hi),
                         quad_error=quad_error, n_evals=n_evals)


def switching_contrast(params: SystemParams, p_on: float, band=None) -> float:
    """min(p_transmit with drive off, p_reflect at drive p_on).

    The figure of merit for using the device as a switch: how well it
    passes the photon in the off state and turns it around in the on
    state, whichever is worse.  p_on = 0 is degenerate (both states
    identical) and simply returns min(p_transmit, p_reflect) there.

    The contrast is noise-free: it uses the probe channels only, so it does
    not depend on ``bath_temp``.  Temperature shows up only in
    :attr:`RoutingReport.thermal_leak`.  An unstable on state raises
    UnstableOperatingPointError (the drive-off state is always stable).
    """
    if not (p_on >= 0.0 and math.isfinite(p_on)):
        raise InvalidParameterError(f"p_on must be >= 0 and finite, got {p_on!r}")
    off = routing_probabilities(
        derive_operating_point(replace(params, drive_power=0.0)), band=band)
    on = routing_probabilities(
        derive_operating_point(replace(params, drive_power=p_on)), band=band)
    return min(off.p_transmit, on.p_reflect)
