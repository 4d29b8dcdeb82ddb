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

Most reports come from closed forms, exact to rounding; the rest from an
adaptive quadrature.  With the drive on, R, T and Sv are rational in
omega over |d|^2, and so is St on the band wherever hbar*omega/(kB*T)
stays at or below 0.01 there: the Bose factor x/(e^x - 1) is then its
Bernoulli polynomial 1 - x/2 + x^2/12 - x^4/720, within x^6/30240 (at
T = 0, St is 0 on the band).  Each of the four integrals is a sum of
residues at its upper poles, the conjugates of d's zeros (by Ferrari's
method, on d in units of omega_m) and for Scin*R and Scin*T the line's;
the line mass is an arctangent.  The closed form is taken when every
zero's backward residual is within stability._ROUND and the rounding
error, amplified by the cancellation among the terms and by the
conditioning of the zeros, is estimated below 2048 ulp of 1 (4.5e-13);
against 50-digit residues the error stays within 1.5 times that
estimate.  Otherwise the report falls
back to the quadrature: where poles cluster (next to the exceptional
point, where two zeros of d merge, or with the line's pole on one of
d's), where a zero sits so close to the real axis that its rounding
matters (a weakly driven membrane: 0.1 uW at the defaults, 1 uW with
kappa = 0.03*omega_m), and where St is not polynomial (below about 1 mK
on the default band).

The quadrature computes the five band integrals (Scin, Scin*R, Scin*T, Sv
and St) together by one adaptive 21-point Gauss-Kronrod pass with
QUADPACK's qk21 error estimate.  The first partition is graded toward the
narrow features, whose place and width are known: cuts at the line center
and at center +- Gamma*2^k, k = 0, 1, ..., out to the band edges, and
likewise around omega_m at the window half-width eit_linewidth (one set at
the narrower width where the line sits on the window).
Panels then shrink with the features they hold, so most reports need no
refinement.  Where one does, each refinement level evaluates the channels
once, on the nodes of every panel it splits, and a panel is split while
its error estimate exceeds its fair share of the tolerance for any of the
five.  The pass stops when each integral's summed error estimate is within
1e-10 of its value.  The line is evaluated at offsets from its center,
so a line as narrow as 1e-12*omega_m is integrated to that accuracy too.

With the drive off (g^2*|c_s|^2 = 0) there is never a pass: the membrane
decouples, Sv and St vanish, and R and T are the empty cavity's
Lorentzians, so the line mass, Scin*R and Scin*T are rational band
integrals with a closed form (see
:func:`omrouter.empty_cavity._lorentzian_band_integrals`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .empty_cavity import (_band_log, _lorentzian_band_integrals,
                           lorentzian_band_mass, lorentzian_input)
from .errors import InvalidParameterError, NumericalFailureError
from .operating_point import (OperatingPoint, SystemParams,
                              derive_operating_point)
# Not used here.  perfbench/tracer.py wraps these names in this module as
# its response.pointwise layer and reports the layer absent without them.
from .response import (reflection_R, thermal_noise,  # noqa: F401
                       transmission_T, vacuum_noise)
from .response import _pair, eit_linewidth
from .stability import _ROUND

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

_EPS = float(np.finfo(float).eps)
# a drive-on report comes from the residues where their rounding error,
# amplified by the cancellation among the terms and by the conditioning
# of d's zeros, is estimated below this; measured, the true error stays
# within 1.5 times the estimate
_RESIDUE_TOL = 2048.0 * _EPS
# the Bernoulli polynomial stands for x/(e^x - 1), x = hbar*omega/(kB*T),
# while x stays below this on the band: its error is below x^6/30240
_BERNOULLI_REACH = 0.01
_THIRD_TURN = 2.0 * math.pi / 3.0


@dataclass(frozen=True)
class RoutingReport:
    """Where the photon (and the added noise) goes."""

    p_reflect: float      # probe exits the driven port
    p_transmit: float     # probe exits the far port
    vacuum_leak: float    # band-integrated Sv, units of photons
    thermal_leak: float   # band-integrated St, units of photons
    band: tuple[float, float]   # analysis band [rad/s]
    # worst relative error estimate of the quadrature's band integrals;
    # 0.0 for a closed-form report (drive off, or drive on and certified)
    quad_error: float
    # frequency nodes the quadrature evaluated; 0 for a closed-form report
    n_evals: int


# an integrand that overflows is reported by the caller, as one error
@np.errstate(all="ignore")
def _gk21(a, b, op: OperatingPoint):
    """The five integrands' qk21 values and error estimates on panels [a, b].

    The panel edges are offsets from the line center in rad/s; the values
    are integrals on the omega/omega_m axis, where a St that is finite
    has a finite integral however wide the panel.  Returns two arrays of
    shape (5, len(a)), rows Scin, Scin*R, Scin*T, Sv and St.
    """
    half = 0.5 * (b - a)
    offsets = ((0.5 * (a + b))[:, None] + half[:, None] * _GK_X).ravel()
    # the panels' half-widths on the omega/omega_m axis
    scale = half / op.mech_freq
    table = np.empty((5, offsets.size))
    kernels.fill_channels(op.input_center + offsets, op, *table[1:])
    # the line is evaluated at the offsets themselves: rounded to the
    # absolute axis, the nodes of a line 1e-9*omega_m wide would move by
    # 1e-7 of its width, an error the rule cannot see
    table[0] = lorentzian_input(offsets, 0.0, op.input_bandwidth)
    table[1:3] *= table[0]
    f = table.reshape(5, -1, 21)
    resk = f @ _GK_WK
    err = np.abs(resk - f @ _GK_WG) * scale
    # the rule applied to |f - mean of f|; the weights sum to 2
    resasc = (np.abs(f - 0.5 * resk[..., None]) @ _GK_WK) * scale
    # the integrands are >= 0, so this is also the absolute integral that
    # _ROUNDOFF scales
    resk *= scale
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

    Returns the five integrals on the omega/omega_m axis as floats, the
    worst relative error estimate among them and the number of frequency
    nodes evaluated.

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


def _empty_cavity_report(op: OperatingPoint, lo: float, hi: float):
    """The drive-off report, from the empty cavity's closed form.

    Raises
    ------
    NumericalFailureError
        When a probability is not finite, or a ratio under a logarithm
        underflows to 0: the cavity or the line is too narrow or too far
        away for the float range.
    """
    try:
        mass, refl, trans = _lorentzian_band_integrals(
            lo, hi, op.input_center, op.input_bandwidth, op.eff_detuning,
            op.cavity_decay)
    except ValueError as exc:   # cmath.log(0)
        raise NumericalFailureError(
            f"empty-cavity band integrals failed: {exc}") from None
    p_reflect, p_transmit = refl / mass, trans / mass
    if not (math.isfinite(p_reflect) and math.isfinite(p_transmit)):
        raise NumericalFailureError(
            "empty-cavity band integrals are not finite")
    return RoutingReport(p_reflect=p_reflect, p_transmit=p_transmit,
                         vacuum_leak=0.0, thermal_leak=0.0, band=(lo, hi),
                         quad_error=0.0, n_evals=0)


def _hurwitz_zeros(red):
    """The zeros of D on the omega/omega_m axis and their worst backward
    residual, from the record ``red`` of :func:`omrouter.kernels.reduced`.

    D(i*s) = s^4 + a3*s^3 + a2*s^2 + a1*s + a0 is the real quartic of
    :func:`omrouter.kernels.stable_drive_window` in units of omega_m.
    Ferrari's method writes its
    depressed form y^4 + p*y^2 + q*y + r, y = s + a3/4, as
    (y^2 + t*y + m1)*(y^2 - t*y + m2), where T = t^2 is a root of the
    resolvent cubic T^3 + 2p*T^2 + (p^2 - 4r)*T - q^2.  The cubic is solved
    in its depressed form by the trigonometric (or hyperbolic) formula,
    taking the root of largest magnitude so that q/t stays small, and that
    root is polished by one Newton step.  Where T < 0 the two quadratics
    are each other's conjugates, so only the first is solved.  Each zero
    then takes one Newton step on the quartic.  The backward residual is
    that of :func:`omrouter.stability.poles`, with a0 sized without
    cancellation as c0 + |dd|.
    """
    k2, g, dl, dd, _, _ = red
    c0 = k2 * k2 + dl * dl
    a3, a2, a1 = 2.0 * k2 + g, c0 + 2.0 * k2 * g + 1.0, g * c0 + 2.0 * k2
    a0, size0 = c0 - dd, c0 + abs(dd)
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
    zeros, sizes = [], []
    backward = 0.0
    for y in ys:
        z = y - s
        z -= ((((z + a3) * z + a2) * z + a1) * z + a0) \
            / (((4.0 * z + 3.0 * a3) * z + 2.0 * a2) * z + a1)
        r = abs(z)
        size = (((r + a3) * r + a2) * r + a1) * r + size0
        backward = max(backward,
                       abs((((z + a3) * z + a2) * z + a1) * z + a0) / size)
        zeros.append(1j * z)
        sizes.append(size)
    if big < 0.0:
        # i*conj(s) = -conj(i*s)
        zeros += [-z.conjugate() for z in zeros]
        sizes += sizes
    return zeros, sizes, backward


def _residue_integrals(red, a: float, b: float, line: complex):
    """The drive-on band integrals from the residues at their upper poles.

    On u = omega/omega_m, with D of the record ``red`` of
    :func:`omrouter.kernels.reduced`, the band [a, b] and the line's pole
    ``line`` = c + i*gamma, each integrand is N/Q with Q = D*conj(D) for
    Sv and St, times (u - c)^2 + gamma^2 for Scin*R and Scin*T, and
    int N/Q = 2*Re sum N(p)/Q'(p)*Log((b-p)/(a-p)) over the upper poles p:
    c + i*gamma and the conjugates of D's zeros z_k.  N is gamma/pi times
    |(E - 1)*D|^2 or |E*D|^2, a constant for Sv, and for St |sb|^2 times
    the Bernoulli polynomial of the Bose factor.  The conjugate factor of
    N at conj(z_j) is the conjugate of its value at z_j, and Q' is formed
    from differences of the computed zeros, so that the sum is exact for
    them.

    Returns the list [int Scin*R, int Scin*T, vacuum_leak, thermal_leak],
    the zeros' worst backward residual, the worst ratio of the sum of
    |terms| to the integral, and the zeros' worst condition
    size(z)/(|D'(z)|*|Im z|): how much a backward error in z, relative to
    the size of D's terms there, moves the integrals.  May raise
    ArithmeticError or ValueError outside the float range.
    """
    zeros, sizes, backward = _hurwitz_zeros(red)
    k2, g, dl, _, h, theta = red
    ih, ig, idl = 1j * h, 1j * g, 1j * dl
    side0 = complex(k2, -dl)
    # (E - 1)*D's constant: i*k2*h plus the drive's share dd = 2*h*dl
    refl0 = complex(2.0 * h * dl, k2 * h)
    line_c = line.conjugate()

    def channels(u):
        # E*D, (E - 1)*D and the sideband sb at u, (E - 1)*D without
        # cancellation as mech*sb*i*(u - dl) + i*k2*h + dd
        iu = 1j * u
        sb = side0 - iu
        ms = (1.0 - u * (u + ig)) * sb
        return k2 * (ms + ih), ms * (iu - idl) + refl0, sb

    sv_num = 2.0 * (k2 * h) * (k2 * h)
    st_num = 2.0 * k2 * g * h / theta if theta else 0.0
    weight = line.imag / math.pi
    refl = trans = sv = st = 0.0
    refl_abs = trans_abs = sv_abs = st_abs = 0.0
    condition = 0.0
    for j, z in enumerate(zeros):
        zc = z.conjugate()
        o1, o2, o3 = zeros[:j] + zeros[j + 1:]
        slope = (z - o1) * (z - o2) * (z - o3)
        at_conj = (zc - z) * (zc - o1) * (zc - o2) * (zc - o3)
        common = _band_log(a, b, zc) / (at_conj * slope.conjugate())
        condition = max(condition, sizes[j] / (abs(slope) * -z.imag))
        en_c, rn_c, sb_c = channels(zc)
        en, rn, sb = channels(z)
        line_part = weight * common / ((zc - line) * (zc - line_c))
        t = rn_c * rn.conjugate() * line_part
        refl += t.real
        refl_abs += abs(t)
        t = en_c * en.conjugate() * line_part
        trans += t.real
        trans_abs += abs(t)
        t = sv_num * common
        sv += t.real
        sv_abs += abs(t)
        if theta:
            xz = theta * zc
            x2 = xz * xz
            bern = 1.0 - 0.5 * xz + x2 * (1.0 / 12.0 - x2 / 720.0)
            t = st_num * sb_c * sb.conjugate() * bern * common
            st += t.real
            st_abs += abs(t)
    d_line = d_line_c = 1.0
    for z in zeros:
        d_line *= line - z
        d_line_c *= line_c - z
    en, rn, _ = channels(line)
    en_c, rn_c, _ = channels(line_c)
    common = _band_log(a, b, line) \
        / (2j * math.pi * d_line * d_line_c.conjugate())
    t = rn * rn_c.conjugate() * common
    refl += t.real
    refl_abs += abs(t)
    t = en * en_c.conjugate() * common
    trans += t.real
    trans_abs += abs(t)
    cancel = max(refl_abs / abs(refl), trans_abs / abs(trans),
                 sv_abs / abs(sv), st_abs / abs(st) if theta else 1.0)
    return ([2.0 * refl, 2.0 * trans, 2.0 * sv, 2.0 * st], backward, cancel,
            condition)


def _residue_report(op: OperatingPoint, lo: float, hi: float):
    """The drive-on report from :func:`_residue_integrals`, or None.

    The record of :func:`omrouter.kernels.reduced` is formed once, and the
    band and the line are passed in units of omega_m.  None where the
    closed form is not certified: St is not polynomial on the band, a zero
    of d is not converged (backward residual above stability._ROUND), the
    error estimate exceeds _RESIDUE_TOL, or the point is outside the float
    range.
    """
    if not 0.0 <= op.bath_temp < math.inf:
        return None
    wm = op.mech_freq
    red = kernels.reduced(op)
    # theta*hi/omega_m, the Bose factor's largest argument on the band
    if not red[5] * hi / wm <= _BERNOULLI_REACH:
        return None
    try:
        (refl, trans, sv, st), backward, cancel, condition = \
            _residue_integrals(red, lo / wm, hi / wm,
                               complex(op.input_center / wm,
                                       op.input_bandwidth / wm))
        mass = lorentzian_band_mass(lo, hi, op.input_center,
                                    op.input_bandwidth)
        p_reflect, p_transmit = refl / mass, trans / mass
    except (ArithmeticError, ValueError):
        return None
    # each term's rounding, amplified by the cancellation among the terms,
    # and the zeros' backward error, amplified by their condition
    estimate = _EPS * cancel + max(backward, _EPS) * condition
    if not (backward <= _ROUND and estimate <= _RESIDUE_TOL
            and math.isfinite(p_reflect + p_transmit + sv + st)):
        return None
    return RoutingReport(p_reflect=p_reflect, p_transmit=p_transmit,
                         vacuum_leak=sv, thermal_leak=st, band=(lo, hi),
                         quad_error=0.0, n_evals=0)


def routing_probabilities(op: OperatingPoint, band=None) -> RoutingReport:
    """Integrate the channels against the probe line over the band.

    p_reflect = int_band Scin*R / int_band Scin, likewise for transmission;
    the normalization by the in-band line mass makes the two sum to 1
    within rounding when the drive is off.  Values may exceed 1 by the
    small margin R itself does; they are reported as computed, never
    clamped.

    Two kinds of report (see the module docstring):

    * Closed form, with quad_error 0.0 and n_evals 0.  With the drive off
      (kernels.coupling(op) == 0) always: the empty cavity's closed form,
      exact to rounding, with both leaks 0.0.  With the drive on wherever
      the residues at d's poles are certified: estimated within 4.5e-13,
      and within 1e-12 of 50-digit residues as tested.  That is every
      report of the benchmark's pool.
    * Quadrature, with the drive on elsewhere: next to the exceptional
      point or another cluster of poles, with a zero of d too close to the
      real axis, or below about 1 mK on the default band.  One adaptive
      21-point Gauss-Kronrod pass computes all five band integrals,
      starting from panels graded geometrically toward the line center and
      toward omega_m, and stops once each integral's error estimate is
      within 1e-10 of its value, with the band in at most 400 panels, the
      first partition included.  quad_error is the worst relative
      estimate and n_evals the number of frequency nodes evaluated.

    Parameters
    ----------
    op : OperatingPoint
        The working point; it must be dynamically stable.
    band : (float, float), optional
        Analysis band [rad/s], default [0.5, 1.5]*omega_m: two finite
        numbers 0 < lo < hi.  Must cover the line core, center +- Gamma.

    Raises
    ------
    UnstableOperatingPointError
        When a pole of the response lies on or above the real axis
        (:func:`omrouter.kernels.is_stable`).
    NumericalFailureError
        When the quadrature needs more than 400 panels (grading toward a
        line of about 1e-60 of the band's width alone takes that many),
        when an integrand overflows, or when the drive-off closed form is
        not finite.  A drive-on closed form that is not finite is not
        reported; the quadrature runs instead.
    """
    kernels.require_stable(op)
    if band is None:
        band = (0.5 * op.mech_freq, 1.5 * op.mech_freq)
    lo, hi = _pair(band)
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise InvalidParameterError(
            f"band must be two finite numbers 0 < lo < hi, got {band!r}")
    center = op.input_center
    gamma = op.input_bandwidth
    if lo > center - _BAND_COVER * gamma or hi < center + _BAND_COVER * gamma:
        raise InvalidParameterError(
            f"band {band!r} excludes the input line core "
            f"{center!r} +- {_BAND_COVER * gamma!r}")

    if kernels.coupling(op) == 0.0:
        return _empty_cavity_report(op, lo, hi)
    report = _residue_report(op, lo, hi)
    if report is not None:
        return report
    # the leaks are integrals on the omega/omega_m axis, the measure of the
    # spectra
    (mass, refl, trans, sv, st), quad_error, n_evals = _band_integrals(
        op, lo, hi)
    return RoutingReport(p_reflect=refl / mass, p_transmit=trans / mass,
                         vacuum_leak=sv, thermal_leak=st, band=(lo, hi),
                         quad_error=quad_error, n_evals=n_evals)


def switching_contrast(params: SystemParams, p_on: float, band=None) -> float:
    """min(p_transmit with drive off, p_reflect at drive p_on).

    The figure of merit for using the device as a switch: how well it
    passes the photon in the off state and turns it around in the on
    state, whichever is worse.  p_on = 0 is degenerate (both states
    identical) and simply returns min(p_transmit, p_reflect) there.

    The contrast is noise-free: it uses the probe channels only, so it does
    not depend on ``bath_temp``, except that a bath below about 1 mK sends
    the on state to the quadrature, which moves it by less than 1e-10.
    Temperature shows up only in :attr:`RoutingReport.thermal_leak`.  An
    unstable on state raises UnstableOperatingPointError (the drive-off
    state is always stable).  The drive-off report comes from the empty
    cavity's closed form, and the on state from the residues at d's poles
    wherever they are certified (see :func:`routing_probabilities`); only
    an on state that falls back takes a quadrature pass.
    """
    if not (p_on >= 0.0 and math.isfinite(p_on)):
        raise InvalidParameterError(f"p_on must be >= 0 and finite, got {p_on!r}")
    off = routing_probabilities(
        derive_operating_point(replace(params, drive_power=0.0)), band=band)
    on = routing_probabilities(
        derive_operating_point(replace(params, drive_power=p_on)), band=band)
    return min(off.p_transmit, on.p_reflect)
