"""Steady state of a laser-driven cavity with a movable internal membrane.

A single cavity mode of length ``L`` is driven through one of two identical
end mirrors; a thin dielectric membrane inside the cavity couples
dispersively to the field and oscillates at ``mech_freq`` with effective
mass ``eff_mass``.  :func:`derive_operating_point` converts the laboratory
inputs into the quantities the linearized response needs: the coupling
constant, the steady intracavity amplitude, and the static membrane
displacement.

Conventions
-----------
* ``cavity_decay`` is the half-rate kappa: each mirror leaks photons at
  2*kappa, the field amplitude decays at 2*kappa total, and each port
  couples with sqrt(2*kappa).
* ``eff_detuning`` is the detuning Delta between cavity and drive *after*
  the static radiation-pressure shift.  It is the control knob: the bare
  detuning that realizes it is reported as a diagnostic, never solved for.
* All frequencies are angular (rad/s).  Delta > 0 means the drive is red
  of the cavity.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings
from dataclasses import dataclass, fields

from .errors import InvalidParameterError, RegimeWarning

TWO_PI = 2.0 * math.pi

# physical constants, SI
HBAR = 1.0545718e-34      # [J s]
KB = 1.380649e-23         # [J/K]
C = 2.99792458e8          # [m/s]

# imported once the constants exist: kernels reads HBAR and KB from here
from . import kernels  # noqa: E402

# hierarchy factor for gamma_m << kappa << omega_m, with slack so an exact
# ratio of 10 (the default geometry) does not warn
_HIERARCHY_FACTOR = 10.0
_HIERARCHY_SLACK = 1.0 - 1e-9

# the fields validate requires > 0 (input_bandwidth where it is not None)
_POSITIVE = ("wavelength", "cavity_length", "eff_mass", "mech_freq",
             "quality", "cavity_decay", "input_bandwidth")
# the numbers validate accepts, float first: a check against the abstract
# numbers.Real alone is several times slower for a float
_REAL = (float, numbers.Real)


@dataclass(frozen=True)
class SystemParams:
    """Laboratory inputs describing the driven cavity and the probe line.

    ``input_center`` and ``input_bandwidth`` describe the Lorentzian line of
    the single-photon probe the device routes.  Both live in the rotating
    frame of the drive; ``None`` resolves to the design point (center at
    ``eff_detuning``, bandwidth 0.01*``mech_freq``).
    """

    wavelength: float = 1054e-9                    # drive wavelength [m]
    cavity_length: float = 6.7e-2                  # [m]
    eff_mass: float = 40e-12                       # membrane effective mass [kg]
    mech_freq: float = TWO_PI * 134e3              # omega_m [rad/s]
    quality: float = 1.1e6                         # mechanical quality factor
    cavity_decay: float = TWO_PI * 134e3 / 10.0    # kappa [rad/s]
    eff_detuning: float = TWO_PI * 134e3           # Delta [rad/s]
    drive_power: float = 5e-6                      # [W]
    bath_temp: float = 20e-3                       # [K]
    input_center: float | None = None              # probe center [rad/s]
    input_bandwidth: float | None = None           # probe HWHM [rad/s]


# validate's checks, as (field, may be None, must be > 0, must be >= 0)
_CHECKS = tuple((f.name, f.default is None, f.name in _POSITIVE,
                 f.name in ("drive_power", "bath_temp"))
                for f in fields(SystemParams))


def default_params() -> SystemParams:
    """Defaults: 1054 nm drive, 6.7 cm cavity, 40 ng membrane at 2*pi*134 kHz."""
    return SystemParams()


def _real(name, value) -> float:
    """``value`` as a finite float, or InvalidParameterError naming ``name``.

    A finite numbers.Real other than a bool; an int past the float range is
    refused, not rounded.  A float, what callers pass, is tested first.
    """
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, _REAL):
            raise InvalidParameterError(
                f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:   # an int past the float range
            raise InvalidParameterError(
                f"{name} is past the float range") from None
    if value - value != 0.0:   # inf or NaN
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


def validate(params: SystemParams) -> None:
    """Reject unphysical inputs; warn when the sideband hierarchy fails.

    Raises
    ------
    InvalidParameterError
        Naming the offending field.  Every field must be a finite
        numbers.Real other than a bool, or None for input_center and
        input_bandwidth.  Strictly positive: wavelength, cavity_length,
        eff_mass, mech_freq, quality, cavity_decay and the resolved
        input_bandwidth.  Non-negative: drive_power, bath_temp.

    Warns
    -----
    RegimeWarning
        When gamma_m << kappa << omega_m fails (factor 10 hierarchy).  The
        model still evaluates outside it, but the transparency-window
        picture degrades, so this is advisory rather than fatal.
    """
    for name, optional, positive, non_negative in _CHECKS:
        value = getattr(params, name)
        if value is None and optional:
            continue
        _real(name, value)
        if positive and value <= 0.0:
            raise InvalidParameterError(f"{name} must be > 0, got {value!r}")
        if non_negative and value < 0.0:
            raise InvalidParameterError(f"{name} must be >= 0, got {value!r}")

    gamma_m = params.mech_freq / params.quality
    kappa = params.cavity_decay
    ok = (kappa >= _HIERARCHY_FACTOR * gamma_m * _HIERARCHY_SLACK
          and params.mech_freq >= _HIERARCHY_FACTOR * kappa * _HIERARCHY_SLACK)
    if not ok:
        warnings.warn(
            "outside the resolved-sideband hierarchy gamma_m << kappa << "
            f"omega_m (gamma_m={gamma_m:.3e}, kappa={kappa:.3e}, "
            f"omega_m={params.mech_freq:.3e})",
            RegimeWarning, stacklevel=2)


@dataclass(frozen=True)
class OperatingPoint:
    """Inputs plus everything derived from them, in one immutable record."""

    # inputs (input line resolved to concrete numbers)
    wavelength: float
    cavity_length: float
    eff_mass: float
    mech_freq: float
    quality: float
    cavity_decay: float
    eff_detuning: float
    drive_power: float
    bath_temp: float
    input_center: float
    input_bandwidth: float
    # derived
    omega_c: float       # drive-wavelength cavity frequency [rad/s]
    g: float             # coupling -omega_c/L [rad/(s m)], sign kept
    gamma_m: float       # mechanical damping omega_m/Q [rad/s]
    eps_c: float         # drive amplitude sqrt(2 kappa P / hbar omega_c)
    c_s: complex         # steady intracavity amplitude
    n_cav: float         # |c_s|^2, mean photon number
    q_s: float           # static membrane displacement [m]

    @property
    def bare_detuning(self) -> float:
        """Cavity-drive detuning before the static shift: Delta - g*q_s."""
        return self.eff_detuning - self.g * self.q_s

    def as_params(self) -> SystemParams:
        """Repackage the inputs, e.g. for a modified re-derivation."""
        return SystemParams(
            wavelength=self.wavelength, cavity_length=self.cavity_length,
            eff_mass=self.eff_mass, mech_freq=self.mech_freq,
            quality=self.quality, cavity_decay=self.cavity_decay,
            eff_detuning=self.eff_detuning, drive_power=self.drive_power,
            bath_temp=self.bath_temp, input_center=self.input_center,
            input_bandwidth=self.input_bandwidth)


def derive_operating_point(params: SystemParams) -> OperatingPoint:
    """Validate inputs and compute the steady state.

    The intracavity amplitude follows from the drive via
    c_s = eps_c / (2*kappa + i*Delta) with eps_c = sqrt(2*kappa*P/(hbar*omega_c)),
    and the membrane sits at q_s = -hbar*g*|c_s|^2/(m*omega_m^2).  Because
    ``eff_detuning`` already includes the static shift, no self-consistency
    equation is solved; the amplitude is exact, not iterated.

    Returns
    -------
    OperatingPoint

    Raises
    ------
    InvalidParameterError
        From :func:`validate`, or when a derived quantity overflows (a
        drive power of 1e300 W makes eps_c infinite, one of 1e270 W the
        drive term 2*hbar*g^2*|c_s|^2*Delta, and at the default geometry
        one of about 1e137 W the vacuum noise numerator
        8*(kappa*hbar*g^2*|c_s|^2)^2, at any detuning), or when eps_c or
        q_s divides by 0 or overflows (omega_m = 1e-160 or 1e160 rad/s).
    """
    validate(params)
    omega_c = TWO_PI * C / params.wavelength
    g = -omega_c / params.cavity_length
    gamma_m = params.mech_freq / params.quality
    kappa = params.cavity_decay
    delta = params.eff_detuning
    try:
        eps_c = math.sqrt(2.0 * kappa * params.drive_power / (HBAR * omega_c))
        c_s = eps_c / (2.0 * kappa + 1j * delta)
        n_cav = abs(c_s) ** 2
        q_s = -HBAR * g * n_cav / (params.eff_mass * params.mech_freq ** 2)
    except (ZeroDivisionError, OverflowError):
        # hbar*omega_c or m*omega_m^2 underflows to 0, or a float ** overflows
        raise InvalidParameterError(
            "derived eps_c or q_s divides by 0 or overflows: the inputs are "
            "beyond the range of floating point") from None

    center = params.input_center if params.input_center is not None else delta
    bandwidth = (params.input_bandwidth if params.input_bandwidth is not None
                 else 0.01 * params.mech_freq)

    op = OperatingPoint(
        wavelength=params.wavelength, cavity_length=params.cavity_length,
        eff_mass=params.eff_mass, mech_freq=params.mech_freq,
        quality=params.quality, cavity_decay=kappa, eff_detuning=delta,
        drive_power=params.drive_power, bath_temp=params.bath_temp,
        input_center=center, input_bandwidth=bandwidth,
        omega_c=omega_c, g=g, gamma_m=gamma_m, eps_c=eps_c, c_s=c_s,
        n_cav=n_cav, q_s=q_s)

    derived = [omega_c, g, gamma_m, eps_c, c_s, n_cav, q_s]
    # the vacuum noise numerator is quadratic in g^2*|c_s|^2, so it
    # overflows first, and alone at zero detuning, where the drive term is 0
    for term in (kernels.drive_term, kernels.sv_numerator):
        try:
            derived.append(term(op))
        except OverflowError:   # a Python float ** past the float range
            derived.append(math.inf)
    # the sum is finite where every value is; only where it is not are they
    # looked at one by one, to name one that is not
    if not cmath.isfinite(sum(derived)):
        for name, value in zip(("omega_c", "g", "gamma_m", "eps_c", "c_s",
                                "n_cav", "q_s", "drive term",
                                "vacuum noise numerator"), derived):
            if not cmath.isfinite(value):
                raise InvalidParameterError(
                    f"derived {name} is not finite ({value!r}): the inputs "
                    "are beyond the range of floating point")
    return op
