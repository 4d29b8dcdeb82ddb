"""Hostile arguments at the library's public functions.

Each call either returns or raises one of the package's three error
classes; a RegimeWarning is the one warning it may give.  Every number it
returns is finite: no public function promises inf or NaN.
"""

import math
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omrouter import (InvalidParameterError, NumericalFailureError,
                      OperatingPoint, RegimeWarning, SystemParams,
                      UnstableOperatingPointError, assess_stability,
                      d_polynomial_coeffs, default_grid, default_params,
                      denominator_d, derive_operating_point, eit_linewidth,
                      eit_linewidth_scan, empty_reflectance,
                      empty_transmittance, lorentzian_band_mass,
                      lorentzian_input, max_stable_power, output_spectra,
                      reflection_R, response_E, routing_probabilities,
                      switching_contrast, thermal_noise, transmission_T,
                      vacuum_noise, validate)
from oracles import COLD_BATHS, WM

OP = derive_operating_point(default_params())
# a drive-on point at 1 nK whose report St's terms cancel past
# certification; its switch reads no bath and returns
COLD = COLD_BATHS["wm1e5-1nK"]
with warnings.catch_warnings():
    warnings.simplefilter("ignore", RegimeWarning)
    # a3 = 4*kappa + gamma_m squares to 0 at the first, and the classical
    # thermal weight 2*gamma_m*m*kB*T is past the float range at the second
    A3_UNDERFLOWS = derive_operating_point(
        replace(default_params(), quality=2e197, cavity_decay=2.8e-202))
    HOT = derive_operating_point(
        replace(default_params(), quality=2e-89, bath_temp=1.8e291))

# 10 ** 5000 has more digits than Python converts to str: its repr raises,
# as a scalar and inside a list; +-0, -1 and the smallest subnormal sit on
# or past the bounds > 0 and >= 0
_HOSTILE = st.sampled_from([
    "1e6", "", None, True, False, 1j, WM * (1 + 0.1j), math.inf, -math.inf,
    math.nan, 10 ** 400, 10 ** 5000, -(10 ** 5000), [10 ** 5000],
    -(2 ** 1100), 0.0, -0.0, -1.0, 5e-324, [], [[]], [None, 1.0],
    ["a", "b"], [[0.9 * WM, 1.1 * WM]], [[WM], [WM, WM]], [WM, math.inf],
    [WM, 10 ** 400], np.array([0.9, 1.1]) * WM * (1 + 0.1j), (1.0, "a"),
])


def _or_hostile(*valid):
    return st.one_of(st.sampled_from(valid), _HOSTILE)


def _pair(lo, hi):
    return st.one_of(_HOSTILE, st.tuples(_or_hostile(lo), _or_hostile(hi)))


_OP = _or_hostile(OP)
_OMEGA = _or_hostile(WM, [0.9 * WM, 1.1 * WM])
_BAND = st.one_of(st.none(), _pair(0.5 * WM, 1.5 * WM))
_POWER = _or_hostile(1e-6)
_PARAMS = st.one_of(
    st.just(default_params()), _HOSTILE,
    st.builds(lambda name, value: replace(default_params(), **{name: value}),
              st.sampled_from([f.name for f in fields(SystemParams)]),
              _HOSTILE))
# a point with one field replaced, as dataclasses.replace allows
_POINT = st.one_of(
    st.just(OP),
    st.builds(lambda name, value: replace(OP, **{name: value}),
              st.sampled_from([f.name for f in fields(OperatingPoint)]),
              _HOSTILE))

# each public function with one strategy per argument
_ENTRIES = [
    (response_E, _OMEGA, _OP),
    (reflection_R, _OMEGA, _OP),
    (transmission_T, _OMEGA, _OP),
    (vacuum_noise, _OMEGA, _OP),
    (thermal_noise, _OMEGA, _OP),
    (output_spectra, _or_hostile(np.linspace(0.9, 1.1, 5) * WM), _OP),
    (default_grid, _OP, _or_hostile(5)),
    (eit_linewidth, _OP),
    (denominator_d, _or_hostile(WM, [0.9 * WM, 1.1 * WM], WM * (1 + 0.1j)),
     _OP),
    (assess_stability, _OP),
    (d_polynomial_coeffs, _OP),
    (eit_linewidth_scan, _OP, _pair(0.5, 1.5)),
    (empty_reflectance, _OMEGA, _or_hostile(WM), _or_hostile(OP.cavity_decay)),
    (empty_transmittance, _OMEGA, _or_hostile(WM),
     _or_hostile(OP.cavity_decay)),
    (lorentzian_input, _OMEGA, _or_hostile(WM), _or_hostile(0.01 * WM)),
    (lorentzian_band_mass, _or_hostile(0.5 * WM), _or_hostile(1.5 * WM),
     _or_hostile(WM), _or_hostile(0.01 * WM)),
    (default_params,),
    (validate, _PARAMS),
    (derive_operating_point, _PARAMS),
    (OperatingPoint.as_params, _POINT),
    (routing_probabilities, _OP, _BAND),
    (switching_contrast, _PARAMS, _POWER, _BAND),
    (max_stable_power, _PARAMS, _POWER, _or_hostile(0.01)),
]


@st.composite
def _calls(draw):
    function, *arguments = draw(st.sampled_from(_ENTRIES))
    return function, tuple(draw(a) for a in arguments)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(call=_calls())
@example(call=(reflection_R, ("1e6", OP)))
@example(call=(reflection_R, (None, OP)))
@example(call=(reflection_R, (WM * (1 + 0.1j), OP)))
@example(call=(output_spectra, ("ab", OP)))
@example(call=(output_spectra, (np.array([0.9, 1.1]) * WM * (1 + 0.1j), OP)))
@example(call=(lorentzian_band_mass, (0.5 * WM, 1.5 * WM, WM, "a")))
@example(call=(empty_reflectance, ("a", 0, 1)))
@example(call=(derive_operating_point, (None,)))
@example(call=(routing_probabilities, (OP, (10 ** 5000, 1.0))))
@example(call=(eit_linewidth_scan, (OP, (10 ** 5000, 1.0))))
@example(call=(default_grid, ("x", 5)))
@example(call=(denominator_d, (10 ** 400, OP)))
@example(call=(denominator_d, (math.inf, OP)))
@example(call=(denominator_d, (np.float32(5e12), OP)))
@example(call=(denominator_d, (np.array([WM, complex(math.inf, 0.0)]), OP)))
@example(call=(denominator_d, ([], OP)))
@example(call=(denominator_d, ([[0.9 * WM, 1.1 * WM]], OP)))
@example(call=(validate, (SystemParams(mech_freq=[10 ** 5000]),)))
@example(call=(default_grid, (OP, -(10 ** 5000))))
@example(call=(lorentzian_input, (1.0, [10 ** 5000], 1.0)))
@example(call=(max_stable_power, (SystemParams(), [10 ** 5000])))
@example(call=(switching_contrast, (SystemParams(), [10 ** 5000])))
@example(call=(switching_contrast, (COLD, COLD.drive_power)))
@example(call=(empty_reflectance, (1.0, 1.0, [10 ** 5000])))
@example(call=(assess_stability, (A3_UNDERFLOWS,)))
@example(call=(routing_probabilities, (A3_UNDERFLOWS, None)))
@example(call=(reflection_R, (WM, A3_UNDERFLOWS)))
@example(call=(max_stable_power, (A3_UNDERFLOWS.as_params(), 1e-3, 0.01)))
@example(call=(thermal_noise, (WM, HOT)))
@example(call=(empty_reflectance, (1e200, 0, 1)))
@example(call=(empty_reflectance, (WM, WM, 5e-324)))
@example(call=(empty_transmittance, (1e-200, 0, 1e-170)))
@example(call=(empty_transmittance, (0, 0, 3.8e166)))
@example(call=(empty_reflectance, (1e308, -1e308, 1.0)))
@example(call=(empty_transmittance, (0.0, 0.0, 1e308)))
@example(call=(lorentzian_input, (WM, WM, 5e-324)))
@example(call=(lorentzian_input, (math.nan, WM, 0.01 * WM)))
def test_public_functions_return_or_raise_a_package_error(call):
    function, arguments = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", category=RegimeWarning)
        # numpy before 1.24 warns as it stores a ragged list as objects
        warnings.filterwarnings("ignore", message="Creating an ndarray from ragged")
        try:
            result = function(*arguments)
        except (InvalidParameterError, NumericalFailureError,
                UnstableOperatingPointError):
            return
    assert _finite(result), (function.__name__, result)


def _finite(value):
    """Whether every number in ``value`` is finite: a float, a numpy array
    or scalar, or the fields of a dataclass, a tuple, list or dict."""
    if is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (float, complex, np.ndarray, np.number)):
        return bool(np.isfinite(value).all())
    return True
