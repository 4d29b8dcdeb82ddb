"""Pole analysis of the linearized membrane-field dynamics.

The channel denominator d(omega) is a degree-4 polynomial; with the
exp(-i*omega*t) convention every zero must lie strictly below the real
axis for fluctuations to decay.  ``margin`` is the distance of the closest
zero to the axis (positive means stable).  Red detuning damps the membrane
and is stable at the powers of interest; blue detuning anti-damps it and
goes unstable at nanowatt-scale drive.
"""

from __future__ import annotations

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
    """Root locations and the verdict they imply."""

    roots: np.ndarray   # the four poles [rad/s], sorted by real part
    margin: float       # min over roots of -Im(root); > 0 means stable
    stable: bool


def assess_stability(op: OperatingPoint) -> StabilityReport:
    """Locate the poles and judge them.

    Roots come from the companion matrix of the polynomial rescaled by
    z = omega/omega_m for conditioning.  Each root is checked against the
    residual metric |d(root)| / sum_k |c_k root^k| < 1e-6; failure raises
    NumericalFailureError rather than returning a wrong verdict, as does a
    rescaled coefficient or term sum past the float range (omega_m^4).
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
        terms = (np.abs(roots)[:, None] ** powers) @ np.abs(coeffs)
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
    return StabilityReport(roots=roots, margin=margin, stable=margin > 0.0)


def _stable_at(params: SystemParams, power: float) -> bool:
    op = derive_operating_point(replace(params, drive_power=power))
    return assess_stability(op).stable


def max_stable_power(params: SystemParams, p_max: float,
                     rel_tol: float = 0.01) -> float:
    """Largest verified-stable drive power in [0, p_max].

    Bisection to ``rel_tol`` relative on the bracket; returns ``p_max``
    itself when the whole range is stable.  Along the power axis the stable
    set is an interval starting at 0, so bisection is sound.

    Raises
    ------
    InvalidParameterError
        If the point is unstable already at zero drive (the passive cavity
        must be stable for the question to make sense), or for p_max < 0.
    """
    if not (p_max >= 0.0 and np.isfinite(p_max)):
        raise InvalidParameterError(f"p_max must be >= 0 and finite, got {p_max!r}")
    if not (0.0 < rel_tol < 1.0):
        raise InvalidParameterError(f"rel_tol must be in (0, 1), got {rel_tol!r}")
    if not _stable_at(params, 0.0):
        raise InvalidParameterError(
            "unstable at zero drive: passive damping contract violated")
    if p_max == 0.0:
        return 0.0
    if _stable_at(params, p_max):
        return float(p_max)

    lo, hi = 0.0, float(p_max)
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if _stable_at(params, mid):
            lo = mid
        else:
            hi = mid
    return lo
