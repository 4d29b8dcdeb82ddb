"""Pole analysis of the linearized membrane-field dynamics.

The channel denominator d(omega) is a degree-4 polynomial; with the
exp(-i*omega*t) convention every zero must lie strictly below the real
axis for fluctuations to decay.  Whether they do is decided once, by the
Routh-Hurwitz conditions in :func:`omrouter.kernels.is_stable`; this
module adds the roots themselves, their ``margin`` (the distance of the
closest zero to the axis, positive when stable) and the drive-power
threshold.  d's zeros are found by :func:`omrouter.kernels.zeros`; only
the roots printed here still come from np.roots, until their pinned
bytes are re-recorded.  Red detuning damps the membrane and is stable at
the powers of interest; blue detuning anti-damps it and goes unstable at
nanowatt-scale drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import NumericalFailureError
from .operating_point import (OperatingPoint, SystemParams,
                              _operating_point, _real, _system_params,
                              derive_operating_point)

_RESIDUAL_TOL = 1e-6
# ulp steps each walk of max_stable_power may take from the closed form to
# the verdict's edge: it takes a few where the verdict's rounding is
# relative, and never ends where the window or drive_term underflows
_WALK = 64


def d_polynomial_coeffs(op: OperatingPoint) -> np.ndarray:
    """Coefficients of d(omega), highest degree first.

    Expanding m*(omega_m^2 - omega^2 - i*gamma_m*omega)*((2*kappa -
    i*omega)^2 + Delta^2) - 2*hbar*g^2*|c_s|^2*Delta:

        c4 = m
        c3 = i*m*(4*kappa + gamma_m)
        c2 = -m*(4*kappa^2 + Delta^2 + 4*kappa*gamma_m + omega_m^2)
        c1 = -i*m*(gamma_m*(4*kappa^2 + Delta^2) + 4*kappa*omega_m^2)
        c0 = m*omega_m^2*(4*kappa^2 + Delta^2) - 2*hbar*g^2*|c_s|^2*Delta

    Only c0 depends on the drive, through kernels.drive_term.  The terms
    are those of :func:`omrouter.kernels._hurwitz_coeffs`, with c0's
    drive-free part formed as (m*omega_m^2)*(4*kappa^2 + Delta^2).
    """
    m = _operating_point(op).eff_mass
    a3, a2, a1, wm2, cav0 = kernels._hurwitz_coeffs(op)
    return np.array([m, 1j * m * a3, -m * a2, -1j * m * a1,
                     m * wm2 * cav0 - kernels.drive_term(op)], dtype=complex)


def poles(op: OperatingPoint):
    """d's poles in units of omega_m, and each one's backward residual.

    The poles are the roots of the monic d(z*omega_m)/(m*omega_m^4).  A
    root's backward residual is |D(z)|/(scale + |z|*|D'(z)|), D and D' from
    :func:`omrouter.kernels.factored`, sized by :func:`omrouter.kernels.scale`
    (np.roots is backward stable only in its companion matrix's norm).
    Raises NumericalFailureError when a coefficient is not finite.
    """
    with np.errstate(all="ignore"):
        scaled = d_polynomial_coeffs(op) \
            * op.mech_freq ** np.array([4, 3, 2, 1, 0.0])
        monic = scaled / scaled[0]
        if not np.isfinite(monic).all():
            raise NumericalFailureError(
                "rescaled d polynomial coefficients are not finite")
        roots = np.roots(monic)
    red = kernels.reduced(op)
    residuals = []
    for z in roots.tolist():   # scalars: a fifth of the time of arrays
        try:
            value, slope, _ = kernels.factored(red, z, sized=False)
            residuals.append(abs(value) / (kernels.scale(red, abs(z))
                                           + abs(z) * abs(slope)))
        except ArithmeticError:   # 0/0 or past the float range: refused
            residuals.append(math.inf)
    return roots, np.array(residuals)


@dataclass(frozen=True)
class StabilityReport:
    """Root locations, their margin and the stability verdict."""

    roots: np.ndarray   # the four poles [rad/s], sorted by real part
    margin: float       # min over roots of -Im(root); > 0 means stable
    stable: bool        # kernels.is_stable, the Routh-Hurwitz verdict


def assess_stability(op: OperatingPoint) -> StabilityReport:
    """Locate the poles, measure their margin and give the verdict.

    The roots are those of :func:`poles`.  A root whose backward residual
    is not below 1e-6 raises NumericalFailureError; next to the red static
    bound a root near omega = 0 is smaller than c0's rounding, which
    kernels.scale counts.  The roots are sorted by
    real part, then imaginary part, with a real part within _ROUND times the
    largest root's modulus read as 0: a pair on the imaginary axis, whose
    real parts are rounding noise, keeps one order under a 1-ulp change of
    the inputs.  The printed values are the roots as found.

    ``stable`` is not read off the roots: it is the exact Routh-Hurwitz
    verdict of :func:`omrouter.kernels.is_stable`, the one every checked
    entry point uses.  ``stable`` and ``margin > 0`` can disagree only
    where the margin is within the roots' rounding noise of zero, next to
    the threshold of :func:`max_stable_power`.
    """
    roots, residuals = poles(_operating_point(op))
    failed = residuals[~(residuals < _RESIDUAL_TOL)]
    if failed.size:
        raise NumericalFailureError(
            f"root residual {failed[0]:.3e} exceeds {_RESIDUAL_TOL:.0e}")
    roots = roots * op.mech_freq
    re = roots.real
    re = np.where(np.abs(re) <= kernels._ROUND * np.abs(roots).max(), 0.0, re)
    roots = roots[np.lexsort((roots.imag, re))]
    margin = float(np.min(-roots.imag))
    return StabilityReport(roots=roots, margin=margin,
                           stable=kernels.is_stable(op))


def max_stable_power(params: SystemParams, p_max: float,
                     rel_tol: float = 0.01) -> float:
    """Largest stable drive power in [0, p_max].

    At fixed detuning drive_term/m is proportional to the drive power, and
    the point is stable exactly while it stays inside
    :func:`omrouter.kernels.stable_drive_window`.  So the threshold P* has
    a closed form: red detuning crosses the static bound a0 = 0, blue
    detuning the Hurwitz bound, and zero detuning crosses neither.  Returns
    ``p_max`` itself when it is stable, else the largest float at which
    :func:`omrouter.kernels.is_stable` holds next to P*, a few ulp away.
    The next float up is unstable, so the result meets the contract of
    every ``rel_tol`` (stable there, unstable at any larger power), and it
    lies within the verdict's rounding, about 1e-15, of the exact P*.
    ``rel_tol`` is validated but no longer sets the accuracy.

    Raises
    ------
    InvalidParameterError
        For p_max < 0 or not finite, rel_tol outside (0, 1), or params
        that is not a SystemParams.
    NumericalFailureError
        When the verdict's edge is not within _WALK ulp of P*: where the
        Hurwitz window underflows to (-0.0, 0.0), no power is stable, and
        where drive_term underflows to 0 the verdict holds far past P*.
    """
    p_max = _real("p_max", p_max, at_least=0.0)
    _real("rel_tol", rel_tol, above=0.0, below=1.0)
    op = derive_operating_point(replace(_system_params(params),
                                        drive_power=p_max))
    if kernels.is_stable(op):
        return p_max

    def stable_at(power):
        return kernels.is_stable(
            derive_operating_point(replace(params, drive_power=power)))

    lo, hi = kernels.stable_drive_window(op)
    x = kernels.drive_term(op) / op.eff_mass
    # the verdict is monotone in the power: walk the few ulp to its edge
    p = edge = p_max * ((hi if x > 0.0 else lo) / x)
    for _ in range(_WALK):
        if stable_at(p):
            break
        p = math.nextafter(p, 0.0)
    else:
        raise NumericalFailureError(
            f"no drive power within {_WALK} ulp below {edge:.6e} W is "
            f"stable: the window ({lo:.3e}, {hi:.3e}) of drive_term/m "
            "underflows")
    for _ in range(_WALK):
        up = math.nextafter(p, p_max)
        if not stable_at(up):
            return p
        p = up
    raise NumericalFailureError(
        f"the drive power is still stable {_WALK} ulp above {edge:.6e} W, "
        "its closed-form threshold: drive_term underflows there")
