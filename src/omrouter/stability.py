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
from .operating_point import OperatingPoint, SystemParams, derive_operating_point
from .response import denominator_d

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

    Only c0 depends on the drive, through kernels.drive_term.
    """
    m = op.eff_mass
    wm2 = op.mech_freq ** 2
    gm = op.gamma_m
    k = op.cavity_decay
    delta = op.eff_detuning
    cav0 = 4.0 * k * k + delta * delta
    return np.array([
        m,
        1j * m * (4.0 * k + gm),
        -m * (cav0 + 4.0 * k * gm + wm2),
        -1j * m * (gm * cav0 + 4.0 * k * wm2),
        m * wm2 * cav0 - kernels.drive_term(op),
    ], dtype=complex)


@dataclass(frozen=True)
class StabilityReport:
    """Root locations, their margin and the stability verdict."""

    roots: np.ndarray   # the four poles [rad/s], sorted by real part
    margin: float       # min over roots of -Im(root); > 0 means stable
    stable: bool        # kernels.is_stable, the Routh-Hurwitz verdict


def assess_stability(op: OperatingPoint) -> StabilityReport:
    """Locate the poles, measure their margin and give the verdict.

    Roots come from the companion matrix of the polynomial rescaled by
    z = omega/omega_m for conditioning.  Each root is checked against the
    residual metric |d(root)| / sum_k |c_k| |root|^k < 1e-6, where |c_0| is
    taken by its cancellation-free size m*omega_m^2*(4*kappa^2 + Delta^2)
    + |drive term|: next to the red static bound c_0 -> 0, and a root near
    omega = 0 is then smaller than the rounding of c_0 itself.  Failure
    raises NumericalFailureError rather than returning wrong roots, as does
    a rescaled coefficient or term sum past the float range (omega_m^4).

    ``stable`` is not read off the roots: it is the exact Routh-Hurwitz
    verdict of :func:`omrouter.kernels.is_stable`, the one every checked
    entry point uses.  ``stable`` and ``margin > 0`` can disagree only
    where the margin is within the roots' rounding noise of zero, next to
    the threshold of :func:`max_stable_power`.
    """
    coeffs = d_polynomial_coeffs(op)
    s = op.mech_freq
    powers = np.array([4, 3, 2, 1, 0], dtype=float)
    with np.errstate(all="ignore"):
        # z = omega/s conditions the companion matrix
        scaled = coeffs * s ** powers
        if not np.isfinite(scaled).all():
            raise NumericalFailureError(
                "rescaled d polynomial coefficients are not finite")
        roots = np.roots(scaled / scaled[0]) * s
        # residual guard on both forms, measured against the summed term sizes
        sizes = np.abs(coeffs)
        k, delta = op.cavity_decay, op.eff_detuning
        sizes[-1] = (op.eff_mass * (s * s) * (4.0 * k * k + delta * delta)
                     + abs(kernels.drive_term(op)))
        terms = (np.abs(roots)[:, None] ** powers) @ sizes
        resid = np.abs(np.polyval(coeffs, roots)) / terms
        direct = np.abs(denominator_d(roots, op)) / terms
    if not np.isfinite(terms).all():
        raise NumericalFailureError("root residual terms are not finite")
    bad = ~((resid < _RESIDUAL_TOL) & (direct < _RESIDUAL_TOL))
    if bad.any():
        k = int(np.argmax(bad))
        failed = direct[k] if resid[k] < _RESIDUAL_TOL else resid[k]
        raise NumericalFailureError(
            f"root residual {failed:.3e} exceeds {_RESIDUAL_TOL:.0e}")

    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]
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
    if not (p_max >= 0.0 and np.isfinite(p_max)):
        raise InvalidParameterError(f"p_max must be >= 0 and finite, got {p_max!r}")
    if not (0.0 < rel_tol < 1.0):
        raise InvalidParameterError(f"rel_tol must be in (0, 1), got {rel_tol!r}")
    op = derive_operating_point(replace(params, drive_power=p_max))
    if kernels.is_stable(op):
        return float(p_max)

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
