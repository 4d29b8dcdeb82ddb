"""Command line front end.

Subcommands
-----------
spectrum   channel spectra on a frequency grid
sweep      one spectrum block per value of a swept parameter
stability  pole locations and stability margin of the working point
route      band-integrated routing report, on state vs drive off

Exit codes: 0 success, 2 invalid input or config, 3 unstable operating
point, 4 numerical failure.

Config files are flat JSON objects; command line flags override file
values.  Frequency-like entries (cavity_decay, eff_detuning, input_center,
input_bandwidth, grid_lo/grid_hi, and detuning or bandwidth sweep values)
are in units of mech_freq unless "units" is "rad_s"; mech_freq itself is
always rad/s since it defines the unit.  The --grid flag is always in
units of mech_freq.  Output is deterministic: identical inputs give byte
identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .errors import (InvalidParameterError, NumericalFailureError,
                     UnstableOperatingPointError)
from .operating_point import SystemParams, derive_operating_point
from .response import output_spectra
from .routing import routing_probabilities
from .stability import assess_stability

_SI_KEYS = ("wavelength", "cavity_length", "eff_mass", "mech_freq",
            "quality", "drive_power", "bath_temp")
_FREQ_KEYS = ("cavity_decay", "eff_detuning", "input_center",
              "input_bandwidth")
_GRID_KEYS = ("grid_lo", "grid_hi", "grid_n")
_SWEEP_KEYS = ("sweep_param", "sweep_values")
_ALL_KEYS = set(_SI_KEYS) | set(_FREQ_KEYS) | set(_GRID_KEYS) \
    | set(_SWEEP_KEYS) | {"units"}

_SWEEP_PARAMS = ("power", "temperature", "detuning", "bandwidth")

_COLUMNS = ("omega_over_omega_m", "R", "T", "Sv", "St", "Scout", "Sdout")


def _num(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(f"config key {key!r} must be a number")
    return float(value)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InvalidParameterError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"malformed config json: {exc}")
    if not isinstance(cfg, dict):
        raise InvalidParameterError("config must be a flat json object")
    unknown = set(cfg) - _ALL_KEYS
    if unknown:
        raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _resolve(args):
    """Config + flags -> (SystemParams, grid array, config dict)."""
    cfg = _load_config(args.config)
    units = cfg.get("units", "omega_m")
    if units not in ("omega_m", "rad_s"):
        raise InvalidParameterError(
            f"units must be 'omega_m' or 'rad_s', got {units!r}")
    defaults = SystemParams()
    mech_freq = _num(cfg["mech_freq"], "mech_freq") if "mech_freq" in cfg \
        else defaults.mech_freq
    scale = mech_freq if units == "omega_m" else 1.0

    kwargs = {"mech_freq": mech_freq}
    for key in _SI_KEYS:
        if key != "mech_freq" and key in cfg:
            kwargs[key] = _num(cfg[key], key)
    for key in _FREQ_KEYS:
        if key in cfg:
            kwargs[key] = _num(cfg[key], key) * scale
    if args.power is not None:
        kwargs["drive_power"] = args.power
    if args.temp is not None:
        kwargs["bath_temp"] = args.temp
    params = replace(defaults, **kwargs)

    if args.grid is not None:
        lo, hi, n = _parse_grid_flag(args.grid)
        lo, hi = lo * mech_freq, hi * mech_freq
    else:
        lo = _num(cfg.get("grid_lo", 0.5 if units == "omega_m"
                          else 0.5 * mech_freq), "grid_lo") * scale
        hi = _num(cfg.get("grid_hi", 1.5 if units == "omega_m"
                          else 1.5 * mech_freq), "grid_hi") * scale
        n = cfg.get("grid_n", 4001)
        if isinstance(n, bool) or not isinstance(n, int):
            raise InvalidParameterError("grid_n must be an integer")
    if n < 2:
        raise InvalidParameterError(f"grid needs at least 2 points, got {n}")
    if not (0.0 < lo < hi):
        raise InvalidParameterError(f"grid bounds must satisfy 0 < lo < hi, "
                                    f"got ({lo!r}, {hi!r})")
    return params, np.linspace(lo, hi, n), cfg


def _parse_grid_flag(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameterError(f"--grid expects lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidParameterError(f"--grid expects numbers lo:hi:n, got {text!r}")
    return lo, hi, n


def _fmt(value):
    return f"{value:.12e}"


def _csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _write(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _spectrum_columns(spectra, mech_freq):
    return (spectra.grid / mech_freq, spectra.R, spectra.Tx, spectra.Sv,
            spectra.St, spectra.Scout, spectra.Sdout)


def _require_stable(op):
    report = assess_stability(op)
    if not report.stable:
        raise UnstableOperatingPointError(
            f"operating point unstable (margin {report.margin:.6e} rad/s)")
    return report


def cmd_spectrum(args) -> int:
    params, grid, _ = _resolve(args)
    op = derive_operating_point(params)
    _require_stable(op)
    spectra = output_spectra(grid, op)
    cols = _spectrum_columns(spectra, op.mech_freq)
    if args.format == "csv":
        rows = ([_fmt(c[i]) for c in cols] for i in range(len(grid)))
        text = _csv(_COLUMNS, rows)
    else:
        text = json.dumps(
            {name: [float(v) for v in col]
             for name, col in zip(_COLUMNS, cols)}, indent=2) + "\n"
    _write(text, args.out)
    return 0


def _sweep_params_list(cfg, base: SystemParams):
    param = cfg.get("sweep_param")
    values = cfg.get("sweep_values")
    if param not in _SWEEP_PARAMS:
        raise InvalidParameterError(
            f"sweep_param must be one of {_SWEEP_PARAMS}, got {param!r}")
    if not isinstance(values, list) or not values:
        raise InvalidParameterError("sweep_values must be a non-empty list")
    values = [_num(v, "sweep_values") for v in values]
    units = cfg.get("units", "omega_m")
    scale = base.mech_freq if units == "omega_m" else 1.0
    field = {"power": "drive_power", "temperature": "bath_temp",
             "detuning": "eff_detuning", "bandwidth": "input_bandwidth"}[param]
    out = []
    for v in values:
        actual = v * scale if param in ("detuning", "bandwidth") else v
        out.append((v, replace(base, **{field: actual})))
    return param, out


def cmd_sweep(args) -> int:
    base, grid, cfg = _resolve(args)
    param, value_params = _sweep_params_list(cfg, base)
    # derive (and therefore validate) every point before computing anything
    ops = [(v, derive_operating_point(p)) for v, p in value_params]

    results = []
    for value, op in ops:
        stable = assess_stability(op).stable
        results.append((value, op, output_spectra(grid, op) if stable else None))

    if args.format == "csv":
        rows = []
        for value, op, spectra in results:
            if spectra is None:
                rows.append([param, _fmt(value), "0"]
                            + [_fmt(math.nan)] * len(_COLUMNS))
                continue
            cols = _spectrum_columns(spectra, op.mech_freq)
            for i in range(len(grid)):
                rows.append([param, _fmt(value), "1"]
                            + [_fmt(c[i]) for c in cols])
        text = _csv(("param", "value", "stable") + _COLUMNS, rows)
    else:
        blocks = []
        for value, op, spectra in results:
            if spectra is None:
                blocks.append({"value": value, "stable": False})
                continue
            cols = _spectrum_columns(spectra, op.mech_freq)
            blocks.append({"value": value, "stable": True,
                           "spectrum": {name: [float(v) for v in col]
                                        for name, col in zip(_COLUMNS, cols)}})
        text = json.dumps({"param": param, "blocks": blocks}, indent=2) + "\n"
    _write(text, args.out)
    return 0


def cmd_stability(args) -> int:
    params, _, _ = _resolve(args)
    op = derive_operating_point(params)
    report = assess_stability(op)
    wm = op.mech_freq
    if args.format == "csv":
        rows = [[str(i), _fmt(r.real / wm), _fmt(r.imag / wm),
                 _fmt(report.margin / wm), "1" if report.stable else "0"]
                for i, r in enumerate(report.roots)]
        text = _csv(("root", "re_over_omega_m", "im_over_omega_m",
                     "margin_over_omega_m", "stable"), rows)
    else:
        text = json.dumps({
            "stable": report.stable,
            "margin_rad_s": report.margin,
            "margin_over_omega_m": report.margin / wm,
            "roots_re_over_omega_m": [r.real / wm for r in report.roots],
            "roots_im_over_omega_m": [r.imag / wm for r in report.roots],
        }, indent=2) + "\n"
    _write(text, args.out)
    return 0 if report.stable else 3


def cmd_route(args) -> int:
    params, _, _ = _resolve(args)
    op = derive_operating_point(params)
    _require_stable(op)
    on = routing_probabilities(op)
    off = routing_probabilities(
        derive_operating_point(replace(params, drive_power=0.0)))
    contrast = min(off.p_transmit, on.p_reflect)
    wm = op.mech_freq
    fields = {
        "p_reflect": on.p_reflect,
        "p_transmit": on.p_transmit,
        "vacuum_leak": on.vacuum_leak,
        "thermal_leak": on.thermal_leak,
        "p_reflect_off": off.p_reflect,
        "p_transmit_off": off.p_transmit,
        "contrast": contrast,
    }
    if args.format == "csv":
        header = tuple(fields) + ("band_lo_over_omega_m", "band_hi_over_omega_m")
        row = [_fmt(v) for v in fields.values()] \
            + [_fmt(on.band[0] / wm), _fmt(on.band[1] / wm)]
        text = _csv(header, [row])
    else:
        fields["band_over_omega_m"] = [on.band[0] / wm, on.band[1] / wm]
        text = json.dumps(fields, indent=2) + "\n"
    _write(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omrouter",
        description="Single-photon routing spectra of a driven "
                    "optomechanical cavity")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, blurb in (
            ("spectrum", cmd_spectrum, "channel spectra on a frequency grid"),
            ("sweep", cmd_sweep, "spectrum blocks over a swept parameter"),
            ("stability", cmd_stability, "pole locations and margin"),
            ("route", cmd_route, "band-integrated routing report")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="flat json config file")
        p.add_argument("--power", type=float, help="drive power [W]")
        p.add_argument("--temp", type=float, help="bath temperature [K]")
        p.add_argument("--grid", help="lo:hi:n in units of mech_freq")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output file (default stdout)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnstableOperatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
