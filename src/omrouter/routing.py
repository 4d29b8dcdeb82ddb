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

Every report comes from a closed form and evaluates no channel on a grid.
With the drive off (g^2*|c_s|^2 = 0) the membrane decouples, Sv and St
vanish, and R and T are the empty cavity's Lorentzians (see
:func:`omrouter.empty_cavity._lorentzian_band_integrals`).

With the drive on, on u = omega/omega_m and the band [a, b], each
integrand is a rational f times the Bose factor B(theta*u), B(x) =
x/(e^x - 1) for St and 1 for the others, and

    int_a^b f*B du = 2*Re sum_p Res_p(f) * J(p),
    J(z) = int_a^b B(theta*u)/(u - z) du,

over f's upper poles p: the conjugates of D's zeros, which
:func:`omrouter.kernels.zeros` finds (Ferrari's method, then one Newton
step on D's factored form), and, for Scin*R and Scin*T,
the line's c + i*Gamma.  Next to the mechanical resonance the terms
turn on digits that no float pole holds: 1 - u at a pole is then most
of mech, and the line's pole may sit a few of its heights from one of
D's, where their residues cancel.  So 1 - u at each pole and the
distance between the line's pole and D's take what rounding leaves out
of each pole: a zero's next Newton step, and the rounding of c =
center/omega_m.  Next to the red static bound D's constant term a0 =
c0 - dd cancels and a zero approaches u = 0, whose term may carry most of
the sums: there D is formed from a0, which the record then holds exactly
(:func:`omrouter.kernels.factored`).  Where B is 1, J is
Log((b-z)/(a-z)).  For St, J(z) is B(theta*z)*Log((b-z)/(a-z)) plus the
integral of the smooth (B(theta*u) - B(theta*z))/(u - z) by a
Gauss-Legendre rule, or, where B(theta*z) is more than twice B on the
band and that would cancel, the rule's integral of B(theta*u)/(u - z).
There is no rule where theta*u <= 0.01 at the band and at the poles: B is
then its quartic P to 1e-17, so each remainder int_a^b (P(theta*u) -
P(theta*p))/(u - p) du is a cubic in p, and St's f = n/|D|^2 falls as
u^-6, so sum_p Res_p(f)*p^k = 0 over all poles for k <= 4 and the
remainders cancel exactly; J(p) is B(theta*p)*Log((b-p)/(a-p)) alone.
Elsewhere the rule has 16 up to 1,024 nodes as theta*(b - a) grows.
Upper poles closer together than an eighth of their heights above the
real axis (next to the exceptional point, or the line's pole on one of
D's) would cancel;
such a cluster is summed as one contour integral of f*J, by the
trapezoid rule on a circle about it, with f formed from D's factors.

D's algebra, how it rounds and where its zeros lie, is written in
:mod:`omrouter.kernels`; this module holds the band integrals and their
certificate.  A report is certified when every zero's backward
residual is within kernels._ROUND and its rounding error is estimated
below 1e-10, the contract of the adaptive quadrature these sums
replaced.  The estimate is each term's
rounding, amplified by the cancellation among the terms and counting
the rounding of the record, of the line's pole and of the rule's nodes,
plus the zeros' backward error times each point's conditioning (of an
isolated zero, or of D at a contour's node), weighted by its terms'
share of the sums.  Against 50-digit residues
(tests/oracles.py's drive_on_report), on random points inside the
hierarchy (tests/oracles.py's hierarchy_draw), the error stayed below
3.9e-14 and within 4.7 times the estimate on 600 points of
random.Random(11), and below 2.0e-13 and within 6.8 times on 3,000 of
random.Random(1).  Next to the red static bound, on 150 points of
tests/oracles.py's static_bound_draw with random.Random(5), whose a0 is
3e-4 to 0.1 of c0, all were certified, within 2.9e-12 (median over the
points of each one's largest error 5.8e-15) and 0.22 times the
estimate.  Across the exceptional point, with the line on one of D's
poles and next to the mechanical resonance, tests/test_routing.py holds
named points within 1e-12.  A report that is not certified raises
NumericalFailureError; there is no other method to fall back to.  A
switch (:func:`switching_contrast`) forms the sum of Scin*R alone, the
p_reflect it returns, and certifies that sum alone by the same rule: it
is refused only where that sum is, never for the transmission or noise
sums it would drop, and it reads no bath.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, replace

from . import kernels
from .empty_cavity import (_band_log, _lorentzian_band_integrals,
                           lorentzian_band_mass)
from .errors import InvalidParameterError, NumericalFailureError
from .kernels import _ROUND, RECORD
from .operating_point import (OperatingPoint, SystemParams, _interval,
                              _real, _system_params, derive_operating_point)
# Not used here.  perfbench/tracer.py wraps these names in this module as
# its response.pointwise layer and reports the layer absent without them.
from .response import (reflection_R, thermal_noise,  # noqa: F401
                       transmission_T, vacuum_noise)

# the band must cover the line core, center +- one half-width; wider lines
# legitimately spill outside the band (that spillage is the physics of a
# too-broad photon) and only the normalization accounts for it
_BAND_COVER = 1.0

_EPS = sys.float_info.epsilon
# a drive-on report is certified where the rounding error of its residue
# sums, amplified by the cancellation among the terms and by the
# conditioning of d's zeros, weighted by their terms' share of the sums,
# is estimated below this (see the module docstring for how far the true
# error stays from the estimate)
_RESIDUE_TOL = 1e-10

# upper poles closer together than this fraction of their heights above
# the real axis form one cluster
_CLUSTER = 0.125
# a cluster's contour rule stops once its aliasing falls below 2^-56
_ALIAS_BITS = 56.0

# where theta*u is at most this at the band and at the poles, B is its
# quartic to 1e-17 and St's integral takes no rule (see the module
# docstring)
_QUARTIC = 0.01
# the largest Gauss-Legendre rule St's integral may take: 1,024 nodes
# reach theta*(b - a) = 2,048, beyond which B underflows on the whole
# default band
_MAX_NODES = 1024


@dataclass(frozen=True)
class RoutingReport:
    """Where the photon (and the added noise) goes."""

    p_reflect: float      # probe exits the driven port
    p_transmit: float     # probe exits the far port
    vacuum_leak: float    # band-integrated Sv, units of photons
    thermal_leak: float   # band-integrated St, units of photons
    band: tuple[float, float]   # analysis band [rad/s]


def _empty_cavity_report(op: OperatingPoint, lo: float, hi: float):
    """The drive-off report, from the empty cavity's closed form.

    Raises
    ------
    NumericalFailureError
        When a probability is not finite, a pole factor divides by zero
        or a ratio under a logarithm underflows to 0: the cavity or the
        line is too narrow or too far away for the float range.
    """
    try:
        mass, refl, trans = _lorentzian_band_integrals(
            lo, hi, op.input_center, op.input_bandwidth, op.eff_detuning,
            op.cavity_decay)
    except (ArithmeticError, ValueError) as exc:   # x/0 or cmath.log(0)
        raise NumericalFailureError(
            f"empty-cavity band integrals failed: {exc}") from None
    p_reflect, p_transmit = refl / mass, trans / mass
    if not (math.isfinite(p_reflect) and math.isfinite(p_transmit)):
        raise NumericalFailureError(
            "empty-cavity band integrals are not finite")
    return RoutingReport(p_reflect=p_reflect, p_transmit=p_transmit,
                         vacuum_leak=0.0, thermal_leak=0.0, band=(lo, hi))


def _clusters(poles):
    """The upper poles as groups of indices, each either one pole or a
    cluster: poles linked, pair by pair, where they lie closer together
    than _CLUSTER times the height of each above the real axis, the least
    distance to the band and to the lower poles.  There the sum of the
    residues would cancel."""
    links = []
    for i in range(1, len(poles)):
        p = poles[i]
        x, y = p.real, p.imag
        reach = _CLUSTER * y
        for j in range(i):
            # |p - q| is at least each of its real and imaginary gaps, so
            # a pair that either gap keeps apart takes no abs
            q = poles[j]
            if -reach < x - q.real < reach and -reach < y - q.imag < reach \
                    and (gap := abs(p - q)) < reach \
                    and gap < _CLUSTER * q.imag:
                links.append((i, j))
    groups = [[i] for i in range(len(poles))]
    if not links:
        return groups
    for i, j in links:
        gi, gj = (next(grp for grp in groups if k in grp) for k in (i, j))
        if gi is not gj:
            groups.remove(gj)
            gi += gj
    return groups


def _contour(poles, group, a, b):
    """Center, radius and node count of the trapezoid rule on a circle
    about a cluster of upper poles.

    The radius keeps the cluster within ``rate`` of it and every other
    singularity of the integrands beyond 1/``rate`` of it, so the rule's
    aliasing falls as rate^n.  NumericalFailureError where no circle
    separates the cluster by a factor of 2.
    """
    center = sum(poles[j] for j in group) / len(group)
    inner = max(abs(poles[j] - center) for j in group)
    # the band, the lower poles and the other upper poles
    outer = min([abs(center - min(max(center.real, a), b))]
                + [abs(center - p.conjugate()) for p in poles]
                + [abs(center - p) for j, p in enumerate(poles)
                   if j not in group])
    radius = max(0.25 * outer, math.sqrt(inner * outer))
    rate = max(inner / radius, radius / outer)
    if not rate <= 0.5:
        raise NumericalFailureError(
            f"drive-on band integrals failed: a cluster of poles at "
            f"{center:.6g} omega_m is not separated from the rest")
    return center, radius, math.ceil(_ALIAS_BITS * math.log(2.0)
                                     / -math.log(rate))


def _bose(x):
    """B(x) = x/(e^x - 1) at a complex x != 0, as (x/2)*e^(-x/2)/sinh(x/2):
    no e^x - 1 is formed, so none cancels."""
    if x.real > 700.0:
        # e^x - 1 is e^x to the last bit, and sinh(x/2) may overflow
        return x * cmath.exp(-x)
    if x.real < -700.0:
        return -x
    half = 0.5 * x
    return half * cmath.exp(-half) / cmath.sinh(half)


def _bose_real(x):
    """B(x) = x/(e^x - 1) at a real x >= 0, 1 at 0."""
    if x > 700.0:
        return x * math.exp(-x)
    return x / math.expm1(x) if x else 1.0


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [-1, 1] as (node, weight) pairs.

    numpy.polynomial costs milliseconds to import: only a bath cold enough
    that B is not its quartic on the band loads it."""
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(n)
    return tuple(zip(nodes.tolist(), weights.tolist()))


def _bose_rule(theta, a, b):
    """The Gauss-Legendre rule for St's integral J on [a, b], as (u,
    weight, B(theta*u)) triples.

    16 nodes, or the power of two at or above theta*(b - a)/2;
    NumericalFailureError where that takes more than _MAX_NODES.  theta*u
    is formed as theta*a + theta*(u - a): where B falls fast, at the band's
    lower edge, a node's argument is then rounded as little as it is small,
    and the rounding of theta*a scales every B(theta*u) alike.
    """
    n = 16
    while n < 0.5 * theta * (b - a):
        n *= 2
    if n > _MAX_NODES:
        raise NumericalFailureError(
            f"thermal band integral needs more than {_MAX_NODES} nodes "
            f"at hbar*omega_m/(kB*T) = {theta:.3e}")
    half = 0.5 * (b - a)
    edge = theta * a
    rule = []
    for x, w in _gauss_legendre(n):
        step = half * (1.0 + x)
        rule.append((a + step, half * w, _bose_real(edge + theta * step)))
    return rule


def _residue_integrals(red, a: float, b: float, line: complex, tail: float,
                       full=True):
    """The drive-on band integrals from the residues at their upper poles.

    On u = omega/omega_m, with D of the record ``red`` of
    :func:`omrouter.kernels.reduced`, the band [a, b] and the line's pole
    ``line`` = c + i*gamma, whose center is c + ``tail`` (the rounding of
    c), f is N/(D*conj(D)), times 1/|u - line|^2 for
    Scin*R and Scin*T, with N gamma/pi times |(E - 1)*D|^2 or |E*D|^2, a
    constant for Sv and |sb|^2 for St (see the module docstring).  A
    cluster of poles (:func:`_clusters`) gives (1/n)*sum f(z)*J(z)*(z - c)
    over the n nodes z of its circle about c (:func:`_contour`).

    Returns the list [int Scin*R, int Scin*T, vacuum_leak, thermal_leak]
    ([int Scin*R] alone, with no theta read, where ``full`` is false), the
    zeros' worst backward residual, and over the integrals returned the
    worst ratio of the sum of |terms| to the integral and the worst
    condition: the sum over the points of each one's cond (see below)
    times its |terms|, over the integral, how much a backward error in D,
    relative to the size of its terms, moves the integrals.  May raise
    ArithmeticError or ValueError outside the float range, and
    NumericalFailureError as :func:`omrouter.kernels.zeros`,
    :func:`_contour` and :func:`_bose_rule` raise it.
    """
    zeros, slopes, sizes, backward, tails = kernels.zeros(red)
    k2, g, dl, dd, h, theta, _ = red
    ih, ig, idl = 1j * h, 1j * g, 1j * dl
    side0 = complex(k2, -dl)
    # (E - 1)*D's constant: i*k2*h plus the drive's share dd = 2*h*dl
    refl0 = complex(2.0 * h * dl, k2 * h)
    refl0_size = RECORD * abs(refl0)
    # z - conj(line) = (z - line) + gap, exactly
    gap = complex(0.0, 2.0 * line.imag)
    poles = [z.conjugate() for z in zeros] + [line]

    sv_num = 2.0 * (k2 * h) * (k2 * h)
    st_num = 0.0
    # B(theta*a), B's largest value on the band; where it underflows, St
    # is 0 on the whole band in floats too
    top = _bose_real(theta * a) if full and theta else 0.0
    if top:
        # no rule where B is its quartic at the band and at D's poles: J(z)
        # is then B(theta*z)*Log((b-z)/(a-z)) (see the module docstring)
        rule = (() if theta * max(b, max(map(abs, poles[:4]))) <= _QUARTIC
                else _bose_rule(theta, a, b))
        st_num = 2.0 * k2 * g * h / theta
        # B(theta*u) changes by theta*du per du, so the rounding of the
        # rule's nodes moves J by up to theta*(b - a) ulp of it
        spread = 1.0 + theta * (b - a)

    # the points at which f*J is summed, as (z, tail, dbar, pair, scale,
    # cond):
    # the residue at one of D's poles, where conj(D(conj z)) is replaced
    # by its slope dbar, at the line's, where pair is 2i*gamma, the slope
    # of (u - line)*(u - conj(line)), or a node of a contour, where dbar
    # is None; elsewhere pair is (z - line)*(z - conj(line)), and scale
    # weights the point.  A pole is at z + tail, far below the ulp of z:
    # next to the mechanical resonance mech and the distance between the
    # line's pole and one of D's, whose terms then cancel, take it.  cond
    # is how much a backward error in D, relative to the size of its terms,
    # moves the point's terms: size/(|D'(z)|*min(|Im z|, |z - line|)) at an
    # isolated zero, size/|D| at a node and 0 at the line's pole
    points = []
    for group in _clusters(poles):
        if len(group) > 1:
            center, radius, n = _contour(poles, group, a, b)
            for m in range(n):
                step = radius * cmath.exp(2j * math.pi * m / n)
                z = center + step
                cond = 0.0
                for u in (z, z.conjugate()):
                    value, _, size = kernels.factored(red, u)
                    cond = max(cond, size / abs(value))
                lin = z - line - tail
                points.append((z, 0.0, None, lin * (lin + gap), step / n,
                               cond))
        elif group[0] == 4:
            points.append((line, tail, None, gap, 1.0, 0.0))
        else:
            j = group[0]
            off = tails[j].conjugate()
            lin = poles[j] - line + off - tail
            points.append((poles[j], off, slopes[j].conjugate(),
                           lin * (lin + gap), 1.0, sizes[j] / (
                               abs(slopes[j]) * min(-zeros[j].imag,
                                                    abs(lin)))))

    weight = line.imag / math.pi
    side0_c = side0.conjugate()
    refl0_c = refl0.conjugate()
    # the sums leave out the constant factors k2^2 of E*D*conj(E*D),
    # sv_num and st_num, and the ratio spread of St's term sizes; the _abs
    # sums add the terms' moduli, the _cond sums them times their cond
    refl = trans = sv = st = 0j
    refl_abs = trans_abs = sv_abs = st_abs = 0.0
    refl_cond = trans_cond = sv_cond = st_cond = 0.0
    for z, off, dbar, pair, scale, cond in points:
        # at z: mech = 1 - z^2 - i*g*z, as in kernels.factored, the
        # sideband sb, E*D/k2 = mech*sb + i*h, (E - 1)*D = mech*sb*i*(z -
        # dl) + i*k2*h + dd without cancellation and D = mech*sb*(k2 - i*(z
        # - dl)) - dd, or kernels.factored's form next to the static bound.
        # A name ending in _c holds the conjugate of its value at conj(z),
        # formed from z's terms: conjugation commutes with every rounded
        # operation, so it is conj() of that value bit for bit.  1 - z
        # takes the pole's tail: next to the resonance it is most of mech
        iu = 1j * z
        shifted = iu - idl
        bare = (1.0 - z - off) * (1.0 + z)
        gz = ig * z
        mech, mech_c = bare - gz, bare + gz
        sb, sb_c = side0 - iu, side0_c + iu
        ms, ms_c = mech * sb, mech_c * sb_c
        rn, rn_c = ms * shifted + refl0, refl0_c - ms_c * shifted
        if abs(z) < 0.5:
            # next to the red static bound these D cancel to a0
            dz = kernels.factored(red, z, sized=False)[0]
            if dbar is None:
                dbar = kernels.factored(
                    red, z.conjugate(), sized=False)[0].conjugate()
        else:
            dz = ms * (k2 - shifted) - dd
            if dbar is None:
                dbar = ms_c * (k2 + shifted) - dd
        log = _band_log(a, b, z)
        common = scale / (dz * dbar)
        probe = weight * log * common / pair
        term = rn * rn_c * probe
        refl += term
        mag_r = abs(term)
        refl_abs += mag_r
        refl_cond += cond * mag_r
        if z is line:
            # the line's pole is no pole of Sv and St.  Its terms count the
            # rounding of their inputs as well: for an input rounded to the
            # nearest float, how far the rounding of E*D and (E - 1)*D, at
            # the line and at its conjugate, may exceed an ulp of them, the
            # sizes of their terms and their slopes times |z|/2, over their
            # magnitudes
            moved = 0.5 * abs(z)
            base = abs(bare) + g * abs(z)
            size = base * abs(sb) + moved * abs((2.0 * z + ig) * sb
                                                + 1j * mech)
            size_c = base * abs(sb_c) + moved * abs((2.0 * z - ig) * sb_c
                                                    - 1j * mech_c)
            refl_abs += mag_r * (
                (size * abs(shifted) + moved * abs(ms) + refl0_size)
                / abs(rn)
                + (size_c * abs(shifted) + moved * abs(ms_c) + refl0_size)
                / abs(rn_c))
        if not full:
            continue
        en, en_c = ms + ih, ms_c - ih
        t = en * en_c * probe
        trans += t
        mag_t = abs(t)
        trans_abs += mag_t
        trans_cond += cond * mag_t
        if z is line:
            trans_abs += mag_t * ((size + RECORD * h) / abs(en)
                                   + (size_c + RECORD * h) / abs(en_c))
            continue
        t = log * common
        sv += t
        mag_t = abs(t)
        sv_abs += mag_t
        sv_cond += cond * mag_t
        if st_num:
            # J(z) = int_a^b B(theta*u)/(u - z) du
            bz = _bose(theta * z)
            if not rule or abs(bz) <= 2.0 * top:
                bose = bz * log
                for u, w, bu in rule:
                    bose += w * (bu - bz) / (u - z)
            else:
                bose = 0j
                for u, w, bu in rule:
                    bose += w * bu / (u - z)
            t = sb * sb_c * common * bose
            st += t
            mag_t = abs(t)
            st_abs += mag_t
            st_cond += cond * mag_t
    # each integral is the real part of its sum
    cancel = refl_abs / abs(refl.real)
    condition = refl_cond / abs(refl.real)
    if not full:
        return [2.0 * refl.real], backward, cancel, condition
    cancel = max(cancel, trans_abs / abs(trans.real), sv_abs / abs(sv.real),
                 st_abs * spread / abs(st.real) if st_num else 1.0)
    condition = max(condition, trans_cond / abs(trans.real),
                    sv_cond / abs(sv.real),
                    st_cond / abs(st.real) if st_num else 0.0)
    return ([2.0 * refl.real, 2.0 * k2 * k2 * trans.real,
             2.0 * sv_num * sv.real, 2.0 * st_num * st.real],
            backward, cancel, condition)


def _residue_values(op: OperatingPoint, lo: float, hi: float, full=True):
    """The drive-on values from :func:`_residue_integrals`, on the band and
    the line in units of omega_m: [p_reflect, p_transmit, vacuum_leak,
    thermal_leak], or where ``full`` is false [p_reflect] alone, from int
    Scin*R alone, which reads no bath and is certified alone.

    Raises, where ``full``, InvalidParameterError for a bath_temp that is
    negative, infinite or NaN (dataclasses.replace skips validation) and
    NumericalFailureError where hbar*omega_m/(kB*T) is NaN (a bath so hot
    that it underflows); and NumericalFailureError for values that are not
    certified (see the module docstring) or not finite.
    """
    if full:
        temp = _real("bath_temp", op.bath_temp, at_least=0.0)
    wm = op.mech_freq
    c = op.input_center / wm
    # c's rounding, where c is within a factor 2 of 1: center - omega_m and
    # c - 1 are then exact, and so is the tail, to the rounding of the
    # line's offset from the mechanical resonance
    tail = ((op.input_center - wm) / wm - (c - 1.0) if 0.5 <= c <= 2.0
            else 0.0)
    red = kernels.reduced(op)
    if full and math.isnan(red[5]):
        raise NumericalFailureError(
            f"hbar*omega_m/(kB*T) is not a number at bath_temp {temp!r}")
    try:
        values, backward, cancel, condition = _residue_integrals(
            red, lo / wm, hi / wm, complex(c, op.input_bandwidth / wm), tail,
            full)
        mass = lorentzian_band_mass(lo, hi, op.input_center,
                                    op.input_bandwidth)
        values[0] /= mass
        if full:
            values[1] /= mass
    except (ArithmeticError, ValueError) as exc:
        raise NumericalFailureError(
            f"drive-on band integrals failed: {exc}") from None
    # each term's rounding, amplified by the cancellation among the terms,
    # and the zeros' backward error, amplified by their condition
    estimate = _EPS * cancel + max(backward, _EPS) * condition
    if not math.isfinite(sum(values)):
        raise NumericalFailureError("drive-on band integrals are not finite")
    if not (backward <= _ROUND and estimate <= _RESIDUE_TOL):
        raise NumericalFailureError(
            f"drive-on band integrals not certified: backward residual "
            f"{backward:.3e} of d's zeros, estimated error {estimate:.3e}")
    return values


def _residue_report(op: OperatingPoint, lo: float, hi: float):
    """The drive-on report of :func:`_residue_values`."""
    return RoutingReport(*_residue_values(op, lo, hi), band=(lo, hi))


def routing_probabilities(op: OperatingPoint, band=None) -> RoutingReport:
    """Integrate the channels against the probe line over the band.

    p_reflect = int_band Scin*R / int_band Scin, likewise for transmission;
    the normalization by the in-band line mass makes the two sum to 1
    within rounding when the drive is off.  Values may exceed 1 by the
    small margin R itself does; they are reported as computed, never
    clamped.

    One closed form per drive state (see the module docstring): with the
    drive off, the empty cavity's, with both leaks 0.0; with the drive on,
    the residues at d's poles, certified to an estimated 1e-10 and, as
    tested, within 1e-12 of 50-digit residues from 1 uK up.

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
    InvalidParameterError
        For a band that is not two finite numbers 0 < lo < hi or that
        misses the line core, and with the drive on for a bath_temp that
        is negative, infinite or NaN.
    NumericalFailureError
        When a closed form is not finite or not certified.
    """
    kernels.require_stable(op)
    lo, hi = _checked_band(op, band)
    if kernels.coupling(op) == 0.0:
        return _empty_cavity_report(op, lo, hi)
    return _residue_report(op, lo, hi)


def _checked_band(op: OperatingPoint, band):
    """The band [rad/s] as two floats lo, hi, default [0.5, 1.5]*omega_m.

    Raises InvalidParameterError for a band that is not two finite numbers
    0 < lo < hi or that misses the line core.
    """
    if band is None:
        band = (0.5 * op.mech_freq, 1.5 * op.mech_freq)
    lo, hi = _interval("band", band)
    center = op.input_center
    gamma = op.input_bandwidth
    if lo > center - _BAND_COVER * gamma or hi < center + _BAND_COVER * gamma:
        raise InvalidParameterError(
            f"band ({lo!r}, {hi!r}) excludes the input line core "
            f"{center!r} +- {_BAND_COVER * gamma!r}")
    return lo, hi


def switching_contrast(params: SystemParams, p_on: float, band=None) -> float:
    """min(p_transmit with drive off, p_reflect at drive p_on).

    The figure of merit for using the device as a switch: how well it
    passes the photon in the off state and turns it around in the on
    state, whichever is worse.  p_on = 0 is degenerate (both states
    identical) and simply returns min(p_transmit, p_reflect) there.

    The contrast is noise-free: its on state forms the sum of Scin*R
    alone, p_reflect, and certifies it alone as a report's sums are
    certified (see the module docstring), so it does not depend on
    ``bath_temp``, bit for bit, and its refusals come only from that
    sum's certificate, never from the transmission or noise sums of a
    report.  Temperature shows up only in
    :attr:`RoutingReport.thermal_leak`.  An unstable on state raises
    UnstableOperatingPointError (the drive-off state is always stable),
    after the band is checked.

    One operating point is derived, at p_on: the drive-off report reads
    only the cavity and the line, which the drive power does not change.
    """
    p_on = _real("p_on", p_on, at_least=0.0)
    op = derive_operating_point(replace(_system_params(params),
                                        drive_power=p_on))
    lo, hi = _checked_band(op, band)
    off = _empty_cavity_report(op, lo, hi)
    kernels.require_stable(op)
    on = (off.p_reflect if kernels.coupling(op) == 0.0
          else _residue_values(op, lo, hi, full=False)[0])
    return min(off.p_transmit, on)
