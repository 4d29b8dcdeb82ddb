"""The response-channel formulas of the driven cavity, each written once.

Frequencies are sideband offsets omega from the drive [rad/s]; every
function accepts a scalar or an array there.  All four channels share the
degree-4 denominator

    d(omega) = mech(omega) * cav(omega) - 2*hbar*g^2*|c_s|^2*Delta

and are ratios over it (E) or over |d|^2 (Sv and St):

    E  = 2*kappa*[mech*(2*kappa - i*(Delta+omega)) + i*hbar*g^2*|c_s|^2] / d
    Sv = 8*(kappa*hbar*g^2*|c_s|^2)^2 / |d|^2
    St = |V|^2 * thermal_weight,  |V|^2 = 2*kappa*g^2*|c_s|^2*|2*kappa - i*(Delta+omega)|^2 / |d|^2

d is built from its two factors and the numerator of E from the mechanical
one; the factors are passed in, so a grid evaluates each of them once.

Keep the arithmetic order as written (x*x rather than x**2, the drive term
grouped as 2*hbar*(g^2*|c_s|^2)*Delta): the command line spectra are
pinned byte for byte.
"""

import numpy as np

# past hbar*omega/(kB*T) = 30 the Bose factor is evaluated as exp(-x);
# expm1 and exp agree to ~1e-13 there, well under the overflow regime
COTH_GUARD = 30.0


def coupling(op):
    """g^2*|c_s|^2: the only combination through which the drive enters the
    fluctuation dynamics."""
    return op.g ** 2 * op.n_cav


def drive_term(op):
    """2*hbar*g^2*|c_s|^2*Delta, the drive's share of d(omega)."""
    return 2.0 * op.hbar * coupling(op) * op.eff_detuning


def mech_factor(omega, op):
    """Inverse membrane susceptibility m*(omega_m^2 - omega^2 - i*gamma_m*omega)."""
    return op.eff_mass * (op.mech_freq * op.mech_freq - omega * omega
                          - 1j * op.gamma_m * omega)


def cav_factor(omega, op):
    """Cavity factor (2*kappa - i*omega)^2 + Delta^2."""
    return (2.0 * op.cavity_decay - 1j * omega) ** 2 \
        + op.eff_detuning * op.eff_detuning


def _sideband(omega, op):
    # 2*kappa - i*(Delta + omega), one linear factor of cav_factor
    return 2.0 * op.cavity_decay - 1j * (op.eff_detuning + omega)


def denominator(mech, cav, op):
    """d(omega) = mech * cav - drive_term(op).

    mech and cav are mech_factor(omega, op) and cav_factor(omega, op).
    """
    return mech * cav - drive_term(op)


def e_numerator(omega, op, mech):
    """E(omega) * d(omega), given mech = mech_factor(omega, op)."""
    return 2.0 * op.cavity_decay * (mech * _sideband(omega, op)
                                    + 1j * op.hbar * coupling(op))


def sv_numerator(op):
    """Sv(omega) * |d(omega)|^2, the same at every frequency."""
    return 8.0 * (op.cavity_decay * op.hbar * coupling(op)) ** 2


def v2_numerator(omega, op):
    """|V(omega)|^2 * |d(omega)|^2, V being the membrane-force-to-field gain."""
    return 2.0 * op.cavity_decay * coupling(op) \
        * np.abs(_sideband(omega, op)) ** 2


def thermal_weight(omega, op, kbt):
    """Thermal force weight hbar*gamma_m*m*(-omega)*(1 + coth(-hbar*omega/(2*kbt))).

    Evaluated branch by branch so it is finite and positive everywhere:
    for omega > 0 it is 2*hbar*gamma_m*m*omega*nbar(omega) (zero when
    kbt = 0), for omega < 0 the spontaneous term survives, and omega = 0
    carries the classical limit 2*gamma_m*m*kbt.

    Parameters
    ----------
    omega : array_like
        Frequencies [rad/s].
    op : OperatingPoint
        Supplies gamma_m, eff_mass and hbar.
    kbt : float
        kB * T_bath in joules; 0 selects the vacuum bath.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.zeros_like(w)
    amp = 2.0 * op.hbar * op.gamma_m * op.eff_mass

    if kbt == 0.0:
        neg = w < 0.0
        out[neg] = amp * (-w[neg])
        return out

    x = op.hbar * w / kbt
    ax = np.abs(x)
    small = ax <= COTH_GUARD
    occ = np.zeros_like(w)
    nz = small & (ax > 0.0)
    occ[nz] = 1.0 / np.expm1(ax[nz])
    occ[~small] = np.exp(-ax[~small])

    pos = w > 0.0
    neg = w < 0.0
    out[pos] = amp * w[pos] * occ[pos]
    out[neg] = amp * (-w[neg]) * (occ[neg] + 1.0)
    out[w == 0.0] = 2.0 * op.gamma_m * op.eff_mass * kbt
    return out


def channel_arrays(omega, op, kbt):
    """Evaluate the four response channels on a frequency grid.

    d is evaluated once and shared; there is no near-singular guard here
    (see :func:`omrouter.response.response_E` for the guarded amplitude).

    Parameters
    ----------
    omega : array_like
        Sideband frequencies [rad/s], measured from the drive.
    op : OperatingPoint
        The working point.
    kbt : float
        kB * T_bath [J] of the thermal channel.

    Returns
    -------
    (R, T, Sv, St) : tuple of ndarray
        Probe reflection and transmission probabilities, the vacuum noise
        density on the reflected port, and the thermal noise density, the
        latter two per unit omega/omega_m.
    """
    # Keep mech, cav and v2 as named arrays until the return: the order in
    # which numpy frees the 200,001-point temporaries decides how often
    # glibc hands the top of the heap back to the system and faults it in
    # again.  Folding them into expressions nearly doubled the page faults
    # of a design_scan request and made it about 13% slower.
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    mech = mech_factor(w, op)
    cav = cav_factor(w, op)
    d = denominator(mech, cav, op)
    e = e_numerator(w, op, mech) / d
    refl = np.abs(e - 1.0) ** 2
    trans = np.abs(e) ** 2
    absd2 = np.abs(d) ** 2
    sv = sv_numerator(op) / absd2
    v2 = v2_numerator(w, op) / absd2
    st = v2 * thermal_weight(w, op, kbt)
    return refl, trans, sv, st
