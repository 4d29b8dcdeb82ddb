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

import numpy as np

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

# the numbers _real accepts, float first: a check against the abstract
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


# SystemParams' fields, an OperatingPoint's inputs
_INPUTS = tuple(f.name for f in fields(SystemParams))
# validate's checks, as (field, may be None, at_least, above): each field
# is >= 0, > 0 or unbounded
_CHECKS = tuple(
    (f.name, f.default is None) + (
        (0.0, None) if f.name in ("drive_power", "bath_temp")
        else (None, None) if f.name in ("eff_detuning", "input_center")
        else (None, 0.0))
    for f in fields(SystemParams))


def default_params() -> SystemParams:
    """Defaults: 1054 nm drive, 6.7 cm cavity, 40 ng membrane at 2*pi*134 kHz."""
    return SystemParams()


# The three checks of every argument a caller passes.  A refusal names the
# argument and shows a parsed float or a type, never the argument: the
# repr of an int of more than 4,300 digits raises ValueError.
def _real(name, value, *, at_least=None, above=None, below=None) -> float:
    """``value`` as a finite float, or InvalidParameterError naming ``name``.

    A finite numbers.Real other than a bool; an int past the float range is
    refused, not rounded.  Where given, the float must be >= ``at_least``,
    > ``above`` and < ``below``.  A float, what callers pass, is tested
    first.
    """
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, _REAL):
            raise InvalidParameterError(
                f"{name} must be a real number, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:   # an int past the float range
            raise InvalidParameterError(
                f"{name} is past the float range") from None
    if value - value != 0.0:   # inf or NaN
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    if at_least is not None and not value >= at_least:
        raise InvalidParameterError(
            f"{name} must be >= {at_least:g}, got {value!r}")
    if above is not None and not value > above:
        raise InvalidParameterError(
            f"{name} must be > {above:g}, got {value!r}")
    if below is not None and not value < below:
        raise InvalidParameterError(
            f"{name} must be < {below:g}, got {value!r}")
    return value


def _numbers(name, value, kinds="iuf", finite=False):
    """``value`` as an array whose dtype kind is in ``kinds``: integers and
    floats, and complex numbers where ``kinds`` has "c"; every value
    finite where ``finite``.

    Anything else raises InvalidParameterError naming ``name``.  That covers
    strings, which are never parsed, and None, bools and ragged lists.  It
    also covers ints past the int64 range, which numpy stores as objects.
    """
    what = ("integers in the int64 range, floats or complex numbers"
            if "c" in kinds else "integers in the int64 range or floats")
    try:
        array = np.asarray(value)
    except ValueError:   # a ragged nested list
        raise InvalidParameterError(
            f"{name} must be {what}, got a ragged list") from None
    if array.dtype.kind not in kinds:
        got = f"an array of {array.dtype}" if array.ndim \
            else type(value).__name__
        raise InvalidParameterError(f"{name} must be {what}, got {got}")
    if finite and not np.all(np.isfinite(array)):
        raise InvalidParameterError(f"{name} must be finite")
    return array


def _interval(name, value):
    """``value`` as two floats 0 < lo < hi, else InvalidParameterError
    naming ``name``.

    Each is a finite real number other than a bool (:func:`_real`: no
    string is parsed, no int past the float range rounded).
    """
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"bad {name}: not two numbers, got {type(value).__name__}") \
            from None
    try:
        lo, hi = _real("lo", lo), _real("hi", hi)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"bad {name}: {exc}") from None
    if not 0.0 < lo < hi:
        raise InvalidParameterError(
            f"bad {name} ({lo!r}, {hi!r}): not 0 < lo < hi")
    return lo, hi


def _system_params(params) -> SystemParams:
    """``params``, or InvalidParameterError naming its type unless it is a
    SystemParams."""
    if not isinstance(params, SystemParams):
        raise InvalidParameterError(
            f"params must be a SystemParams, got {type(params).__name__}")
    return params


def _operating_point(op) -> OperatingPoint:
    """``op``, or InvalidParameterError naming its type unless it is an
    OperatingPoint."""
    if not isinstance(op, OperatingPoint):
        raise InvalidParameterError(
            f"op must be an OperatingPoint, got {type(op).__name__}")
    return op


def validate(params: SystemParams) -> None:
    """Reject unphysical inputs; warn when the sideband hierarchy fails.

    Raises
    ------
    InvalidParameterError
        Naming the type of ``params`` unless it is a SystemParams, else
        naming the offending field.  Every field must be a finite
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
    _system_params(params)
    for name, optional, at_least, above in _CHECKS:
        value = getattr(params, name)
        if value is not None or not optional:
            _real(name, value, at_least=at_least, above=above)

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
        return SystemParams(**{name: getattr(self, name) for name in _INPUTS})


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

    inputs = {name: getattr(params, name) for name in _INPUTS}
    if params.input_center is None:
        inputs["input_center"] = delta
    if params.input_bandwidth is None:
        inputs["input_bandwidth"] = 0.01 * params.mech_freq

    op = OperatingPoint(
        **inputs, omega_c=omega_c, g=g, gamma_m=gamma_m, eps_c=eps_c,
        c_s=c_s, n_cav=n_cav, q_s=q_s)

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
