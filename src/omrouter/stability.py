"""Pole analysis of the linearized membrane-field dynamics.

The channel denominator d(omega) is a degree-4 polynomial; with the
exp(-i*omega*t) convention every zero must lie strictly below the real
axis for fluctuations to decay.  Whether they do is decided once, by the
Routh-Hurwitz conditions in :func:`omrouter.kernels.is_stable`; this
module adds the roots themselves, their ``margin`` (the distance of the
closest zero to the axis, positive when stable) and the drive-power
threshold.  Red detuning damps the membrane and is stable at the powers
of interest; blue detuning anti-damps it and goes unstable at
nanowatt-scale drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import InvalidParameterError, NumericalFailureError
from .operating_point import (OperatingPoint, SystemParams, _real,
                              derive_operating_point)

_RESIDUAL_TOL = 1e-6


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
    m = op.eff_mass
    a3, a2, a1, wm2, cav0 = kernels._hurwitz_coeffs(op)
    return np.array([m, 1j * m * a3, -m * a2, -1j * m * a1,
                     m * wm2 * cav0 - kernels.drive_term(op)], dtype=complex)


# Relative allowance for rounding, 64 unit roundoffs.  The kernel's d and
# E*d, a polynomial coefficient below and each Taylor coefficient of a cell
# bound of the dip scan take at most 16 roundings (a complex product counts
# as sqrt(5)): each is exact within _ROUND times its cancellation-free size.
_ROUND = 32.0 * np.finfo(float).eps


def poles(op: OperatingPoint):
    """d's poles in units of omega_m, and each one's backward residual.

    The poles are the roots of the monic d(z*omega_m)/(m*omega_m^4).  A
    root's backward residual is |p(z)| / sum_k sizes_k*|z|^k by Horner's
    rule, with each coefficient's size its modulus, except c0's, which is
    sized without cancellation as m*omega_m^2*(4*kappa^2 + Delta^2) +
    |drive term|.  Raises NumericalFailureError when a coefficient is not
    finite.
    """
    _, _, _, wm2, cav0 = kernels._hurwitz_coeffs(op)
    with np.errstate(all="ignore"):
        scaled = d_polynomial_coeffs(op) \
            * op.mech_freq ** np.array([4, 3, 2, 1, 0.0])
        sizes = np.abs(scaled)
        sizes[-1] = op.eff_mass * wm2 * cav0 + abs(kernels.drive_term(op))
        monic, sizes = scaled / scaled[0], sizes / sizes[0]
        if not np.isfinite(monic).all():
            raise NumericalFailureError(
                "rescaled d polynomial coefficients are not finite")
        roots = np.roots(monic)
        reach = np.abs(roots)
        value = size = 0.0
        for c, s in zip(monic, sizes):
            value = value * roots + c
            size = size * reach + s
        return roots, np.abs(value) / size


@dataclass(frozen=True)
class StabilityReport:
    """Root locations, their margin and the stability verdict."""

    roots: np.ndarray   # the four poles [rad/s], sorted by real part
    margin: float       # min over roots of -Im(root); > 0 means stable
    stable: bool        # kernels.is_stable, the Routh-Hurwitz verdict


def assess_stability(op: OperatingPoint) -> StabilityReport:
    """Locate the poles, measure their margin and give the verdict.

    The roots are those of :func:`poles`.  A root whose backward residual
    is not below 1e-6 raises NumericalFailureError; c0 is sized without
    cancellation, since next to the red static bound c0 -> 0 and a root
    near omega = 0 is smaller than c0's rounding.  The roots are sorted by
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
    roots, residuals = poles(op)
    failed = residuals[~(residuals < _RESIDUAL_TOL)]
    if failed.size:
        raise NumericalFailureError(
            f"root residual {failed[0]:.3e} exceeds {_RESIDUAL_TOL:.0e}")
    roots = roots * op.mech_freq
    re = roots.real
    re = np.where(np.abs(re) <= _ROUND * np.abs(roots).max(), 0.0, re)
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
        For p_max < 0 or not finite, or rel_tol outside (0, 1).
    """
    p_max = _real("p_max", p_max)
    if not p_max >= 0.0:
        raise InvalidParameterError(f"p_max must be >= 0, got {p_max!r}")
    if not 0.0 < _real("rel_tol", rel_tol) < 1.0:
        raise InvalidParameterError(f"rel_tol must be in (0, 1), got {rel_tol!r}")
    op = derive_operating_point(replace(params, drive_power=p_max))
    if kernels.is_stable(op):
        return p_max

    def stable_at(power):
        return kernels.is_stable(
            derive_operating_point(replace(params, drive_power=power)))

    lo, hi = kernels.stable_drive_window(op)
    x = kernels.drive_term(op) / op.eff_mass
    # the verdict is monotone in the power: walk the few ulp to its edge
    p = p_max * ((hi if x > 0.0 else lo) / x)
    while not stable_at(p):
        p = math.nextafter(p, 0.0)
    while stable_at(math.nextafter(p, p_max)):
        p = math.nextafter(p, p_max)
    return p
