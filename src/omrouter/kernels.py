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
grouped as 2*hbar*(g^2*|c_s|^2)*Delta, complex array operands bound to
names before they are multiplied): the command line spectra are pinned
byte for byte.
"""

import numpy as np

from .operating_point import HBAR, KB

# past hbar*omega/(kB*T) = 30 the Bose factor is evaluated as exp(-x);
# expm1 and exp agree to ~1e-13 there, well under the overflow regime
COTH_GUARD = 30.0

# Grid kernels run in blocks of this many points, writing into preallocated
# outputs.  A block's temporaries then stay in cache, and below 16,384
# complex points (256 KiB) numpy never elides a temporary into an
# in-place operation.  Elision can swap the operands of a complex
# multiply, whose SIMD loop is not bitwise commutative, so without blocks
# a value's last bits would depend on the size of the array it sits in.
BLOCK = 8192


def coupling(op):
    """g^2*|c_s|^2: the only combination through which the drive enters the
    fluctuation dynamics."""
    return op.g ** 2 * op.n_cav


def drive_term(op):
    """2*hbar*g^2*|c_s|^2*Delta, the drive's share of d(omega)."""
    return 2.0 * HBAR * coupling(op) * op.eff_detuning


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
    # named, so that numpy cannot elide it into the product (see BLOCK):
    # on arrays of 256 KiB or more that would run sb * mech, not mech * sb
    sb = _sideband(omega, op)
    return 2.0 * op.cavity_decay * (mech * sb + 1j * HBAR * coupling(op))


def sv_numerator(op):
    """Sv(omega) * |d(omega)|^2, the same at every frequency."""
    return 8.0 * (op.cavity_decay * HBAR * coupling(op)) ** 2


def v2_numerator(omega, op):
    """|V(omega)|^2 * |d(omega)|^2, V being the membrane-force-to-field gain."""
    return 2.0 * op.cavity_decay * coupling(op) \
        * np.abs(_sideband(omega, op)) ** 2


def thermal_weight(omega, op):
    """Thermal force weight hbar*gamma_m*m*(-omega)*(1 + coth(-hbar*omega/(2*kB*T))).

    Evaluated branch by branch so it is finite and positive everywhere:
    for omega > 0 it is 2*hbar*gamma_m*m*omega*nbar(omega) (zero when
    T = 0), for omega < 0 the spontaneous term survives, and omega = 0
    carries the classical limit 2*gamma_m*m*kB*T.

    Parameters
    ----------
    omega : array_like
        Frequencies [rad/s].
    op : OperatingPoint
        Supplies gamma_m, eff_mass and the bath temperature T (bath_temp).
    """
    kbt = KB * op.bath_temp
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    amp = 2.0 * HBAR * op.gamma_m * op.eff_mass

    if kbt == 0.0:
        out = np.zeros_like(w)
        neg = w < 0.0
        out[neg] = amp * (-w[neg])
        return out

    x = HBAR * w / kbt
    if w.size and w.min() > 0.0 and x.min() > 0.0 and x.max() <= COTH_GUARD:
        # the usual grid, all absorption below the guard: the general
        # path's operations on every point, without its masks
        return amp * w * (1.0 / np.expm1(x))

    out = np.zeros_like(w)
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


def _amplitude(w, op):
    """E(omega) and d(omega) on one block of frequencies."""
    mech = mech_factor(w, op)
    cav = cav_factor(w, op)
    d = denominator(mech, cav, op)
    return e_numerator(w, op, mech) / d, d


def _blocks(omega):
    """The grid flattened, and the slices that cut it into BLOCK points."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    flat = w.reshape(-1)
    return w.shape, flat, [slice(lo, lo + BLOCK)
                           for lo in range(0, flat.size, BLOCK)]


def channel_arrays(omega, op):
    """Evaluate the four response channels on a frequency grid.

    d is evaluated once and shared; there is no near-singular guard here
    (see :func:`omrouter.response.response_E` for the guarded amplitude).
    The grid is evaluated BLOCK points at a time, so a value does not
    depend on the size or shape of the grid around it.

    Parameters
    ----------
    omega : array_like
        Sideband frequencies [rad/s], measured from the drive.
    op : OperatingPoint
        The working point; its bath_temp sets the thermal channel.

    Returns
    -------
    (R, T, Sv, St) : tuple of ndarray
        Probe reflection and transmission probabilities, the vacuum noise
        density on the reflected port, and the thermal noise density, the
        latter two per unit omega/omega_m.
    """
    shape, flat, blocks = _blocks(omega)
    refl, trans, sv, st = (np.empty(flat.size) for _ in range(4))
    sv_num = sv_numerator(op)
    for b in blocks:
        w = flat[b]
        e, d = _amplitude(w, op)
        refl[b] = np.abs(e - 1.0) ** 2
        trans[b] = np.abs(e) ** 2
        absd2 = np.abs(d) ** 2
        sv[b] = sv_num / absd2
        st[b] = v2_numerator(w, op) / absd2 * thermal_weight(w, op)
    return tuple(a.reshape(shape) for a in (refl, trans, sv, st))


def transmission(omega, op):
    """Probe transmission |E(omega)|^2 alone: channel_arrays' T, bit for bit."""
    shape, flat, blocks = _blocks(omega)
    trans = np.empty(flat.size)
    for b in blocks:
        e, _ = _amplitude(flat[b], op)
        trans[b] = np.abs(e) ** 2
    return trans.reshape(shape)
