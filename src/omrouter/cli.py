"""Command line front end.

Subcommands
-----------
spectrum   channel spectra on a frequency grid
sweep      one spectrum block per value of a swept parameter
stability  pole locations and stability margin of the working point
route      band-integrated routing report, on state vs drive off

Each takes the same six flags: --config, --power, --temp, --grid, --format
and --out.  They follow argparse's rules and messages, and its help at 80
columns whatever COLUMNS says (see README).  A plain argv, a command and
then whole flags each followed by a value that it takes and that does not
start with "-", is read without building the parser.  --flag=--, which
argparse stores as an empty list, is refused.

Exit codes: 0 success, 2 invalid input or config or an output that cannot
be written, 3 unstable operating point, 4 numerical failure.  Past the
parser, a nonzero exit prints one "error:" line on stderr and no
traceback: an --out that names a directory or a path whose directory does
not exist, and a reader of stdout that goes away (omrouter spectrum |
head), exit 2 as well, and an existing --out file is then left as it was.
The library decides stability: spectrum and route exit 3 on the
UnstableOperatingPointError it raises, stability prints its report and
exits 3, and sweep marks an unstable value inline (stable column 0) by the
same verdict, kernels.is_stable.

Config files are flat JSON objects; command line flags override file
values.  Frequency-like entries (cavity_decay, eff_detuning, input_center,
input_bandwidth, grid_lo/grid_hi, and detuning or bandwidth sweep values)
are in units of mech_freq unless "units" is "rad_s"; mech_freq itself is
always rad/s since it defines the unit.  The --grid flag is always in
units of mech_freq.  Output is deterministic: identical inputs give byte
identical files.  A grid, or a sweep's grid times its number of values, has
at most MAX_ROWS points.  A regular file at --out is written whole or not
at all: the text goes to a temporary file beside it, which replaces it only
when complete and keeps the mode of the file it replaces.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import stat
import sys
import types
from dataclasses import replace

import numpy as np

from .errors import (InvalidParameterError, NumericalFailureError,
                     UnstableOperatingPointError)
from .kernels import is_stable
from .operating_point import (SystemParams, _interval, _real,
                              derive_operating_point)
from .response import output_spectra
from .routing import _empty_cavity_report, routing_probabilities
from .stability import assess_stability
from .textout import csv_rows, fmt as _fmt, json_text

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

# grid points of a spectrum, or of all blocks of a sweep, checked before
# anything is allocated: 1e7 rows of csv are about 1.3 GB of text
MAX_ROWS = 10_000_000


def _shown(value):
    """A config value in a message: a string's repr, else the type."""
    return repr(value) if isinstance(value, str) else type(value).__name__


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
    except ValueError as exc:   # not UTF-8, or an int past str's digit limit
        raise InvalidParameterError(f"unreadable config json: {exc}")
    if not isinstance(cfg, dict):
        raise InvalidParameterError("config must be a flat json object")
    unknown = set(cfg) - _ALL_KEYS
    if unknown:
        raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _resolve(args):
    """Config + flags -> (SystemParams, (lo, hi, n) grid, config, scale)."""
    cfg = _load_config(args.config)
    units = cfg.get("units", "omega_m")
    if units not in ("omega_m", "rad_s"):
        raise InvalidParameterError(
            f"units must be 'omega_m' or 'rad_s', got {_shown(units)}")
    defaults = SystemParams()
    mech_freq = _real("mech_freq", cfg["mech_freq"]) if "mech_freq" in cfg \
        else defaults.mech_freq
    scale = mech_freq if units == "omega_m" else 1.0

    kwargs = {"mech_freq": mech_freq}
    for key in _SI_KEYS:
        if key != "mech_freq" and key in cfg:
            kwargs[key] = _real(key, cfg[key])
    for key in _FREQ_KEYS:
        if key in cfg:
            kwargs[key] = _real(key, cfg[key]) * scale
    if args.power is not None:
        kwargs["drive_power"] = args.power
    if args.temp is not None:
        kwargs["bath_temp"] = args.temp
    params = replace(defaults, **kwargs)

    # the config's grid keys are checked where --grid overrides them too
    lo = _real("grid_lo", cfg["grid_lo"]) * scale if "grid_lo" in cfg \
        else 0.5 * mech_freq
    hi = _real("grid_hi", cfg["grid_hi"]) * scale if "grid_hi" in cfg \
        else 1.5 * mech_freq
    n = cfg.get("grid_n", 4001)
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidParameterError("grid_n must be an integer")
    _check_points(n)
    if args.grid is not None:
        lo, hi, n = _parse_grid_flag(args.grid)
        lo, hi = lo * mech_freq, hi * mech_freq
        _check_points(n)
    # finite in rad/s: np.linspace would form inf - inf
    lo, hi = _interval("grid bounds in rad/s", (lo, hi))
    return params, (lo, hi, n), cfg, scale


def _check_points(n):
    if n < 2:
        raise InvalidParameterError(f"grid needs at least 2 points, got {n}")
    _check_rows(n)


def _check_rows(rows, what="grid"):
    if rows > MAX_ROWS:
        raise InvalidParameterError(
            f"{what} has {rows} points, more than the {MAX_ROWS} allowed")


def _parse_grid_flag(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameterError(f"--grid expects lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidParameterError(f"--grid expects numbers lo:hi:n, got {text!r}")
    return lo, hi, n


def _csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _write(pieces, out):
    """Write the strings of the iterable ``pieces`` in order to stdout or
    ``out``, each as it comes.

    A regular file, new or not, is replaced whole: the text goes to a
    temporary file beside the file ``out`` resolves to (through symlinks),
    which is moved over it once complete and removed if ``pieces`` raises.
    It takes the mode of the file it replaces, or of a new file from
    open(out, "w").  Anything else (a device, a FIFO), or a file whose
    directory takes no new file, is written in place as open(out, "w")
    writes it.
    """
    if out is None:
        sys.stdout.writelines(pieces)
        return
    target = os.path.realpath(out)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is None or stat.S_ISREG(mode):
        head, tail = os.path.split(target)
        tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
        try:
            # O_EXCL on a fresh random name; 0o666 lets the umask set the
            # mode of a new file, as open(out, "w") would
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            pass
        else:
            try:
                with open(fd, "w", encoding="utf-8", newline="") as fh:
                    if mode is not None:
                        os.fchmod(fh.fileno(), stat.S_IMODE(mode))
                    fh.writelines(pieces)
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
            return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(pieces)


def _spectrum_columns(spectra, mech_freq):
    return (spectra.grid / mech_freq, spectra.R, spectra.Tx, spectra.Sv,
            spectra.St, spectra.Scout, spectra.Sdout)


def cmd_spectrum(args) -> int:
    params, (lo, hi, n), _, _ = _resolve(args)
    op = derive_operating_point(params)
    spectra = output_spectra(np.linspace(lo, hi, n), op)
    cols = _spectrum_columns(spectra, op.mech_freq)
    if args.format == "csv":
        pieces = itertools.chain([",".join(_COLUMNS) + "\n"],
                                 csv_rows(cols))
    else:
        pieces = json_text(dict(zip(_COLUMNS, cols)))
    _write(pieces, args.out)
    return 0


def _sweep_params_list(cfg, base: SystemParams, scale: float):
    param = cfg.get("sweep_param")
    values = cfg.get("sweep_values")
    if param not in _SWEEP_PARAMS:
        raise InvalidParameterError(
            f"sweep_param must be one of {_SWEEP_PARAMS}, got "
            f"{_shown(param)}")
    if not isinstance(values, list) or not values:
        raise InvalidParameterError("sweep_values must be a non-empty list")
    values = [_real("sweep_values", v) for v in values]
    field = {"power": "drive_power", "temperature": "bath_temp",
             "detuning": "eff_detuning", "bandwidth": "input_bandwidth"}[param]
    unit = scale if param in ("detuning", "bandwidth") else 1.0
    return param, [(v, replace(base, **{field: v * unit})) for v in values]


def _sweep_csv(param, results):
    """The csv text of a sweep's (value, op, spectra or None) results, in
    pieces of whole lines."""
    yield ",".join(("param", "value", "stable") + _COLUMNS) + "\n"
    for value, op, spectra in results:
        lead = f"{param},{_fmt(value)},"
        if spectra is None:
            yield lead + ",".join(["0"] + [_fmt(math.nan)]
                                  * len(_COLUMNS)) + "\n"
            continue
        yield from csv_rows(_spectrum_columns(spectra, op.mech_freq),
                            prefix=lead + "1,")


def cmd_sweep(args) -> int:
    base, (lo, hi, n), cfg, scale = _resolve(args)
    param, value_params = _sweep_params_list(cfg, base, scale)
    _check_rows(n * len(value_params), f"sweep of {len(value_params)} values")
    # derive (and therefore validate) every point before computing anything
    ops = [(v, derive_operating_point(p)) for v, p in value_params]
    grid = np.linspace(lo, hi, n)

    results = [(value, op, output_spectra(grid, op) if is_stable(op) else None)
               for value, op in ops]

    if args.format == "csv":
        pieces = _sweep_csv(param, results)
    else:
        blocks = []
        for value, op, spectra in results:
            if spectra is None:
                blocks.append({"value": value, "stable": False})
                continue
            cols = _spectrum_columns(spectra, op.mech_freq)
            blocks.append({"value": value, "stable": True,
                           "spectrum": dict(zip(_COLUMNS, cols))})
        pieces = json_text({"param": param, "blocks": blocks})
    _write(pieces, args.out)
    return 0


def cmd_stability(args) -> int:
    params = _resolve(args)[0]
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
    _write([text], args.out)
    return 0 if report.stable else 3


def cmd_route(args) -> int:
    params = _resolve(args)[0]
    op = derive_operating_point(params)
    on = routing_probabilities(op)
    # the drive-off report reads only the cavity and the line, which the
    # drive power does not change, on the band just checked
    off = _empty_cavity_report(op, *on.band)
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
    _write([text], args.out)
    return 0


_COMMANDS = {"spectrum": cmd_spectrum, "sweep": cmd_sweep,
             "stability": cmd_stability, "route": cmd_route}
# the flags every subcommand takes, each with the converter of its text
_FLAGS = {"--config": str, "--power": float, "--temp": float, "--grid": str,
          "--format": str, "--out": str}


@functools.cache
def _parsers():
    """argparse's parser of the command line, under None, and its subparser
    of each command, built on the first call that needs them."""
    import argparse
    # the help at 80 columns whatever COLUMNS says
    wide = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="omrouter", formatter_class=wide,
        description="Single-photon routing spectra of a driven "
                    "optomechanical cavity")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {None: parser}
    for name, blurb in (
            ("spectrum", "channel spectra on a frequency grid"),
            ("sweep", "spectrum blocks over a swept parameter"),
            ("stability", "pole locations and margin"),
            ("route", "band-integrated routing report")):
        p = parsers[name] = sub.add_parser(name, help=blurb,
                                           formatter_class=wide)
        p.add_argument("--config", help="flat json config file")
        p.add_argument("--power", type=float, help="drive power [W]")
        p.add_argument("--temp", type=float, help="bath temperature [K]")
        p.add_argument("--grid", help="lo:hi:n in units of mech_freq")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output file (default stdout)")
    return parsers


def _plain(argv):
    """The values of a plain ``argv`` (see the module docstring) as
    argparse reads them, else None."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    args = {"command": argv[0], "config": None, "power": None, "temp": None,
            "grid": None, "format": "csv", "out": None}
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in _FLAGS or text.startswith("-"):
            return None
        try:
            value = _FLAGS[flag](text)
        except ValueError:
            return None
        if flag == "--format" and value not in ("csv", "json"):
            return None
        args[flag[2:]] = value
    return types.SimpleNamespace(**args)


def _parse_args(argv):
    """The command and flag values of ``argv``: a plain argv's from
    :func:`_plain`, every other's from argparse, refusals and help
    included."""
    args = _plain(argv)
    if args is None:
        parsers = _parsers()
        args = parsers[None].parse_args(argv)
        for flag in _FLAGS:
            if getattr(args, flag[2:]) == []:   # argparse's --flag=--
                parsers[args.command].error(
                    f"argument {flag}: expected one argument")
    return args


def _drop_stdout():
    """Point stdout's file descriptor at os.devnull, so that the flush at
    exit does not raise BrokenPipeError again; a stdout without one (a
    capture in memory) is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command](args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # only writing the output raises it
        if isinstance(exc, BrokenPipeError) and args.out is None:
            _drop_stdout()
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    except UnstableOperatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
