"""Single-photon router built on a driven optomechanical cavity.

A membrane-in-the-middle cavity, red-detuned and weakly driven, reflects a
resonant single-photon probe inside a radiation-pressure-induced
transparency window and transmits it when the drive is off.  This package
computes the probe reflection/transmission spectra, the vacuum and thermal
noise backgrounds, the stability limits of the working point, and
band-integrated routing figures of merit.
"""

from .empty_cavity import (empty_reflectance, empty_transmittance,
                           lorentzian_band_mass, lorentzian_input)
from .errors import (InvalidParameterError, NumericalFailureError,
                     RegimeWarning, UnstableOperatingPointError)
from .operating_point import (OperatingPoint, SystemParams, default_params,
                              derive_operating_point, validate)
from .response import (ChannelSpectra, DipScan, default_grid, denominator_d,
                       eit_linewidth, eit_linewidth_scan, output_spectra,
                       reflection_R, response_E, thermal_noise,
                       transmission_T, vacuum_noise)
from .routing import RoutingReport, routing_probabilities, switching_contrast
from .stability import (StabilityReport, assess_stability,
                        d_polynomial_coeffs, max_stable_power)

__version__ = "0.1.0"

__all__ = [
    "ChannelSpectra", "DipScan", "InvalidParameterError",
    "NumericalFailureError", "OperatingPoint", "RegimeWarning",
    "RoutingReport", "StabilityReport", "SystemParams",
    "UnstableOperatingPointError", "assess_stability", "d_polynomial_coeffs",
    "default_grid", "default_params", "denominator_d", "derive_operating_point",
    "eit_linewidth", "eit_linewidth_scan", "empty_reflectance",
    "empty_transmittance", "lorentzian_band_mass", "lorentzian_input",
    "max_stable_power", "output_spectra", "reflection_R", "response_E",
    "routing_probabilities", "switching_contrast", "thermal_noise",
    "transmission_T", "vacuum_noise", "validate",
]
