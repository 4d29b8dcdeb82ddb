import argparse
import contextlib
import errno
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omrouter
from omrouter import cli, default_params, routing
from omrouter.cli import main
from oracles import EXCEPTIONAL_POWER, WM

_FIELD = re.compile(r"-?\d\.\d{12}e[+-]\d{2,}|nan")


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ----------------------------------------------------------------- spectrum

def test_spectrum_csv_shape(capsys):
    code, out, err = _run(capsys, "spectrum", "--grid", "0.5:1.5:11")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "omega_over_omega_m,R,T,Sv,St,Scout,Sdout"
    assert len(lines) == 12
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        assert all(_FIELD.fullmatch(f) for f in fields)


def test_spectrum_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    code, out, _ = _run(capsys, "spectrum", "--grid", "0.9:1.1:21")
    code2, out2, _ = _run(capsys, "spectrum", "--grid", "0.9:1.1:21",
                          "--out", str(path))
    assert code == code2 == 0
    assert out2 == ""
    assert path.read_text() == out


def test_spectrum_repeated_runs_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(capsys, "spectrum", "--out", str(a))[0] == 0
    assert _run(capsys, "spectrum", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.dispatch_bytes
def test_spectrum_default_bytes_frozen(capsys):
    # sha256 of `omrouter spectrum` with every default (4001-point csv); the
    # benchmark gate pins the same digest as spectrum_csv|5e-6|20e-3
    code, out, _ = _run(capsys, "spectrum")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "87cfd356f7fa3295155ad499f6db182c3089fc91a807aac7a0a482ccf30f94ef"


# sha256 of whole outputs, recorded before the bulk writers replaced the
# per-field ones; the sweep has a stable (+omega_m) and an unstable
# (-omega_m, 5 uW) point, so it covers the nan row and the "stable": false
# block
_SWEEP_DETUNING = {"sweep_param": "detuning", "sweep_values": [1.0, -1.0]}


@pytest.mark.dispatch_bytes
@pytest.mark.parametrize("command, fmt, digest", [
    ("spectrum", "json",
     "68b4bdff71a0bcbe1a9446d4e4cb4f3c9783250d07a83861e359b9cc2e1d781f"),
    ("sweep", "csv",
     "979bd8e370019d726c37b4afe638a79f73133242197cbda7db0a31f49153a423"),
    ("sweep", "json",
     "159b3269afe00a78d1d37b55d19000418ca1e3322ad78bb927b47146d94e2ece"),
])
def test_bulk_output_bytes_frozen(command, fmt, digest, write_config, capsys):
    argv = [command, "--format", fmt]
    if command == "sweep":
        argv += ["--config", write_config("sweep.json", **_SWEEP_DETUNING)]
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_frequency_units_are_equivalent(tmp_path, write_config, capsys):
    a = write_config("a.json", cavity_decay=0.1, eff_detuning=1.0,
                     input_bandwidth=0.01)
    b = write_config("b.json", units="rad_s", cavity_decay=0.1 * WM,
                     eff_detuning=1.0 * WM, input_bandwidth=0.01 * WM)
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(capsys, "spectrum", "--config", a, "--out", str(fa))[0] == 0
    assert _run(capsys, "spectrum", "--config", b, "--out", str(fb))[0] == 0
    assert fa.read_bytes() == fb.read_bytes()


def test_power_flag_overrides_config(tmp_path, write_config, capsys):
    cfg = write_config("low.json", drive_power=1e-6)
    ref = write_config("high.json", drive_power=20e-6)
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(capsys, "spectrum", "--config", cfg, "--power", "20e-6",
                "--out", str(fa))[0] == 0
    assert _run(capsys, "spectrum", "--config", ref, "--out", str(fb))[0] == 0
    assert fa.read_bytes() == fb.read_bytes()


def test_explicit_defaults_change_nothing(tmp_path, write_config, capsys):
    cfg = write_config("defaults.json", drive_power=5e-6, bath_temp=0.02,
                       eff_detuning=1.0, cavity_decay=0.1, quality=1.1e6)
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(capsys, "spectrum", "--grid", "0.8:1.2:9",
                "--out", str(fa))[0] == 0
    assert _run(capsys, "spectrum", "--config", cfg, "--grid", "0.8:1.2:9",
                "--out", str(fb))[0] == 0
    assert fa.read_bytes() == fb.read_bytes()


def test_two_point_grid_is_accepted(capsys):
    code, out, _ = _run(capsys, "spectrum", "--grid", "0.5:1.5:2")
    assert code == 0
    assert len(out.splitlines()) == 3


# hi*omega_m = inf in the last two: np.linspace warned of inf - inf, a
# traceback under -W error::RuntimeWarning, before the bounds were refused
@pytest.mark.parametrize("grid", ["1.5:0.5:11", "0.5:1.5", "a:b:c",
                                  "0.5:1.5:1", "-0.5:1.5:11", "0:1.5:11",
                                  "0.5:inf:10", "0.5:1e308:10"])
def test_bad_grid_flag_rejected(grid, capsys):
    code, out, err = _run(capsys, "spectrum", f"--grid={grid}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_unstable_point_reports_and_writes_nothing(tmp_path, write_config,
                                                   capsys):
    cfg = write_config("blue.json", eff_detuning=-1.0, drive_power=1e-6)
    path = tmp_path / "never.csv"
    for command in ("spectrum", "route"):
        code, out, err = _run(capsys, command, "--config", cfg,
                              "--out", str(path))
        assert code == 3
        assert not path.exists()
        assert "unstable" in err
        code, out, err = _run(capsys, command, "--config", cfg)
        assert (code, out) == (3, "")


@pytest.mark.parametrize("text", ["{", "[1, 2]", "{\"bogus\": 1}",
                                  "{\"mech_freq\": \"fast\"}",
                                  "{\"units\": \"hz\"}",
                                  "{\"grid_n\": 4001.5}",
                                  "{\"grid_n\": true}",
                                  "{\"grid_hi\": 1e308}",
                                  "{\"grid_hi\": Infinity}",
                                  pytest.param(
                                      "{\"quality\": 1" + "0" * 400 + "}",
                                      id="int-past-float-range")])
def test_bad_config_rejected_without_output(tmp_path, text, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    path = tmp_path / "never.csv"
    code, out, err = _run(capsys, "spectrum", "--config", str(cfg),
                          "--out", str(path))
    assert code == 2
    assert not path.exists()
    assert err.startswith("error:")


@pytest.mark.parametrize("entries", [{"grid_lo": "x", "grid_n": [1]},
                                     {"grid_hi": None}, {"grid_n": 1},
                                     {"grid_n": 10 ** 30}])
def test_config_grid_keys_checked_under_the_grid_flag(entries, write_config,
                                                      capsys):
    # --grid overrides the config's grid, but a key that would be refused
    # without it is refused with it: these ran with exit 0
    cfg = write_config("grid.json", **entries)
    for flags in ([], ["--grid", "0.9:1.1:3"]):
        code, out, err = _run(capsys, "spectrum", "--config", cfg, *flags)
        assert (code, out) == (2, "") and err.startswith("error:")
    valid = write_config("valid.json", grid_lo=0.6, grid_hi=0.7, grid_n=3)
    code, out, _ = _run(capsys, "spectrum", "--config", valid,
                        "--grid", "0.9:1.1:3")
    assert code == 0 and out.splitlines()[1].startswith("9.000000000000e-01,")


@pytest.mark.parametrize("where", ["config", "flag"])
@pytest.mark.parametrize("n", [10 ** 12, 10 ** 30])
def test_huge_grid_rejected_before_allocating(where, n, write_config,
                                              capsys):
    if where == "config":
        argv = ["--config", write_config("huge.json", grid_n=n)]
    else:
        argv = [f"--grid=0.5:1.5:{n}"]
    code, out, err = _run(capsys, "spectrum", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(cli.MAX_ROWS) in err


@pytest.mark.parametrize("command", ["spectrum", "route", "stability"])
def test_overflowing_power_exits_two(command, capsys):
    # eps_c = sqrt(2*kappa*P/(hbar*omega_c)) overflows to inf past 2e284 W,
    # the drive term 2*hbar*g^2*|c_s|^2*Delta past about 3e263 W
    for power, derived in (("1e270", "drive term"), ("1e284", "drive term"),
                           ("1e300", "eps_c")):
        code, out, err = _run(capsys, command, "--power", power)
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"derived {derived} " in err


def test_zero_detuning_overflow_exits_two(write_config, capsys):
    # the drive term is 0 at zero detuning; the vacuum noise numerator
    # 8*(kappa*hbar*g^2*|c_s|^2)^2 overflows from about 1e137 W
    cfg = write_config("resonant.json", eff_detuning=0.0)
    for power in ("1e140", "1e250"):
        code, out, err = _run(capsys, "spectrum", "--config", cfg,
                              "--power", power)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: derived vacuum noise numerator is not finite (inf): the "
            "inputs are beyond the range of floating point"]
    code, out, _ = _run(capsys, "spectrum", "--config", cfg, "--power",
                        "1e130", "--grid", "0.5:1.5:5")
    assert code == 0 and len(out.splitlines()) == 6


def test_stability_coefficients_past_float_range_exit_four(write_config,
                                                            capsys):
    # omega_m^4 = 1e312 overflows the rescaled d polynomial; m*omega_m^4 =
    # 4e-331 underflows its leading coefficient to 0, where np.roots would
    # raise numpy's LinAlgError
    for mech_freq in (1e78, 1e-80):
        cfg = write_config("fast.json", mech_freq=mech_freq)
        with pytest.warns(omrouter.RegimeWarning):
            code, out, err = _run(capsys, "stability", "--config", cfg)
        assert code == 4 and out == ""
        assert err.splitlines() == ["error: rescaled d polynomial "
                                    "coefficients are not finite"]


@pytest.mark.parametrize("command", ["spectrum", "route", "stability"])
@pytest.mark.parametrize("field, value", [
    ("wavelength", 1e300), ("mech_freq", 1e-160), ("mech_freq", 1e-300),
    ("mech_freq", 1e160), ("mech_freq", 1e300)])
def test_divisor_past_float_range_exits_two(write_config, capsys, command,
                                            field, value):
    # hbar*omega_c or m*omega_m^2 underflows to 0, or omega_m^2 overflows:
    # these ended in a bare ZeroDivisionError or OverflowError, exit 1
    cfg = write_config("far.json", **{field: value})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", omrouter.RegimeWarning)
        code, out, err = _run(capsys, command, "--config", cfg)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: derived eps_c or q_s divides by 0 or overflows: the inputs "
        "are beyond the range of floating point"]


def test_stability_next_to_the_red_static_bound_exits_zero_or_three(capsys):
    # within 8 ulp of the bound the root residual guard no longer fails
    p = omrouter.max_stable_power(default_params(), 1.0)
    for k in range(-8, 9):
        power = p
        for _ in range(abs(k)):
            power = math.nextafter(power, 1.0 if k > 0 else 0.0)
        code, out, err = _run(capsys, "stability", "--power", repr(power))
        assert code == (0 if k <= 0 else 3), (k, err)
        assert err == ""


def test_spectrum_whose_d_squared_overflows_exits_four(write_config, capsys):
    # omega_m = 1e42 is stable, but |d|^2 on its grid is past the float range
    cfg = write_config("fast.json", mech_freq=1e42)
    with pytest.warns(omrouter.RegimeWarning):
        code, out, err = _run(capsys, "spectrum", "--config", cfg)
    assert code == 4 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: |d|^2 overflows")


@pytest.mark.parametrize("entries, flags, message", [
    ({"mech_freq": 1e55, "cavity_decay": 0.1, "eff_detuning": 1.0}, [],
     "Hurwitz stability bounds are not finite"),
    ({"eff_mass": 6.9e67, "quality": 1.7e-77}, [],
     "drive-on band integrals failed"),
    ({"units": "rad_s", "input_bandwidth": 1e-240, "cavity_decay": 1e-170,
      "eff_detuning": -1e-28, "input_center": 865880.0}, ["--power", "0"],
     "empty-cavity band integrals are not finite"),
    ({"units": "rad_s", "input_bandwidth": 1e-283, "cavity_decay": 1e57},
     [], "drive-on band integrals failed"),
    ({"units": "rad_s", "input_bandwidth": 1e-283, "cavity_decay": 1e57},
     ["--power", "0"], "empty-cavity band integrals failed")],
    ids=["hurwitz-overflow", "resolvent-overflow", "far-line",
         "flat-line-on", "flat-line-off"])
def test_route_numerical_refusals_exit_four(write_config, capsys, entries,
                                            flags, message):
    # a verdict or a resolvent past the float range, and closed forms that
    # are not finite or divide by zero: each is a NumericalFailureError,
    # exit 4; the resolvent and the drive-off division by zero ended in a
    # traceback
    cfg = write_config("far.json", **entries)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", omrouter.RegimeWarning)
        code, out, err = _run(capsys, "route", "--config", cfg, *flags)
    assert (code, out) == (4, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")


@pytest.mark.parametrize("command", ["route", "stability", "spectrum"])
def test_underflowing_a3_squared_exits_four(write_config, capsys, command):
    # a3 = 4*kappa + gamma_m squares to 0: -H/a3^2 ended in a traceback
    cfg = write_config("tiny.json", units="rad_s", quality=2e197,
                       cavity_decay=2.8e-202)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", omrouter.RegimeWarning)
        code, out, err = _run(capsys, command, "--config", cfg)
    assert (code, out) == (4, "")
    assert err == "error: Hurwitz stability bounds are not finite\n"


def test_overflowing_classical_thermal_limit_exits_four(write_config,
                                                       capsys):
    # 2*gamma_m*m*kB*T overflows to inf: St and Sdout were written as inf
    # at exit 0
    cfg = write_config("hot.json", quality=2e-89, bath_temp=1.8e291)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", omrouter.RegimeWarning)
        code, out, err = _run(capsys, "spectrum", "--config", cfg)
    assert (code, out) == (4, "")
    assert err.startswith("error: thermal weight is not finite")


def test_sweep_rows_bounded_by_grid_times_values(write_config, capsys):
    n = cli.MAX_ROWS // 2 + 1
    cfg = write_config("sweep.json", sweep_param="power", grid_n=n,
                       sweep_values=[1e-6, 2e-6])
    code, out, err = _run(capsys, "sweep", "--config", cfg)
    assert code == 2 and out == ""
    assert f"{2 * n} points" in err


def _interrupt(*args):
    raise KeyboardInterrupt


def test_interrupted_write_leaves_target_and_no_temp(tmp_path, monkeypatch,
                                                     capsys):
    path = tmp_path / "spec.csv"
    path.write_text("old\n")
    monkeypatch.setattr(os, "replace", _interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["spectrum", "--grid", "0.9:1.1:5", "--out", str(path)])
    assert os.listdir(tmp_path) == ["spec.csv"]
    assert path.read_text() == "old\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--grid", "0.9:1.1:5"], ["sweep", "--grid", "0.9:1.1:5"]],
    ids=["spectrum", "sweep"])
def test_out_file_survives_a_failed_stream(tmp_path, monkeypatch,
                                           write_config, capsys, argv):
    # csv pieces go to the temporary file as they are formed: one written
    # before the failure must reach neither the target nor the directory
    (tmp_path / "out").mkdir()
    path = tmp_path / "out" / "spec.csv"
    path.write_bytes(b"old,bytes\r\n")

    def one_then_fail(cols, prefix=""):
        yield prefix + "1.000000000000e+00\n"
        raise omrouter.NumericalFailureError("stream failed")

    monkeypatch.setattr(cli, "csv_rows", one_then_fail)
    if argv[0] == "sweep":
        argv = argv + ["--config", write_config(sweep_param="power",
                                                sweep_values=[5e-6])]
    code, out, err = _run(capsys, *argv, "--out", str(path))
    assert code == 4 and out == ""
    assert err == "error: stream failed\n"
    assert path.read_bytes() == b"old,bytes\r\n"
    assert os.listdir(tmp_path / "out") == ["spec.csv"]


@pytest.mark.parametrize("where", ["directory", "missing_directory"])
def test_unwritable_out_exits_two(tmp_path, capsys, where):
    # --out naming a directory raised IsADirectoryError, and one in a
    # directory that does not exist FileNotFoundError, as tracebacks
    (tmp_path / "keep.csv").write_bytes(b"old,bytes\r\n")
    target = tmp_path if where == "directory" \
        else tmp_path / "missing" / "spec.csv"
    code, out, err = _run(capsys, "spectrum", "--grid", "0.9:1.1:5",
                          "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write the output:")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["keep.csv"]
    assert (tmp_path / "keep.csv").read_bytes() == b"old,bytes\r\n"


def test_failed_write_leaves_an_existing_out_file(tmp_path, monkeypatch,
                                                  capsys):
    path = tmp_path / "spec.csv"
    path.write_bytes(b"old,bytes\r\n")

    def full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", full)
    code, out, err = _run(capsys, "spectrum", "--grid", "0.9:1.1:5",
                          "--out", str(path))
    assert (code, out) == (2, "")
    assert err == "error: cannot write the output: [Errno 28] No space " \
        "left on device\n"
    assert path.read_bytes() == b"old,bytes\r\n"
    assert os.listdir(tmp_path) == ["spec.csv"]


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away, as for omrouter ... | head."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_stdout_exits_two(monkeypatch, capsys, fmt):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["spectrum", "--grid", "0.9:1.1:5", "--format", fmt])
    assert code == 2
    assert capsys.readouterr().err \
        == "error: cannot write the output: [Errno 32] Broken pipe\n"


def test_new_out_file_gets_the_mode_open_gives(tmp_path, capsys):
    ref, path = tmp_path / "ref.csv", tmp_path / "spec.csv"
    old = os.umask(0o027)
    try:
        with open(ref, "w"):
            pass
        assert _run(capsys, "spectrum", "--grid", "0.9:1.1:5",
                    "--out", str(path))[0] == 0
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == ref.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["ref.csv", "spec.csv"]


def test_existing_out_file_keeps_its_mode(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    path.write_text("old\n")
    path.chmod(0o600)
    old = os.umask(0o022)
    try:
        assert _run(capsys, "spectrum", "--grid", "0.9:1.1:5",
                    "--out", str(path))[0] == 0
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o600
    assert path.read_text().startswith("omega_over_omega_m,")
    assert os.listdir(tmp_path) == ["spec.csv"]


def test_out_symlink_is_written_through(tmp_path, capsys):
    real, link = tmp_path / "data" / "spec.csv", tmp_path / "spec.csv"
    real.parent.mkdir()
    real.write_text("old\n")
    link.symlink_to(real)
    assert _run(capsys, "spectrum", "--grid", "0.9:1.1:5",
                "--out", str(link))[0] == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text().startswith("omega_over_omega_m,")
    assert os.listdir(real.parent) == ["spec.csv"]
    assert os.listdir(tmp_path) == ["data", "spec.csv"]


def test_out_device_is_written_in_place(capsys):
    code, out, _ = _run(capsys, "spectrum", "--grid", "0.9:1.1:5",
                        "--out", os.devnull)
    assert code == 0 and out == ""


def test_out_dir_without_room_for_temp_is_written_in_place(
        tmp_path, monkeypatch, capsys):
    # a writable file in a directory that takes no new file: the temporary
    # file cannot be made, so the file is written as open(out, "w") does
    path = tmp_path / "spec.csv"
    path.write_text("old\n")
    want = _run(capsys, "spectrum", "--grid", "0.9:1.1:5")[1]

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")
    monkeypatch.setattr(os, "open", refuse)
    assert _run(capsys, "spectrum", "--grid", "0.9:1.1:5",
                "--out", str(path))[0] == 0
    assert path.read_text() == want
    assert os.listdir(tmp_path) == ["spec.csv"]


def test_missing_config_file(tmp_path, capsys):
    code, _, err = _run(capsys, "spectrum", "--config",
                        str(tmp_path / "nope.json"))
    assert code == 2 and "config" in err


@pytest.mark.parametrize("raw", [
    pytest.param(b'{"drive_power": 1' + b"0" * 5000 + b"}",
                 id="int-of-5001-digits"),
    pytest.param(b"\xff\xfe{}", id="not-utf-8")])
def test_unreadable_config_exits_two(tmp_path, raw, capsys):
    # json.load raised a bare ValueError and the run ended in a traceback:
    # CPython converts no int of more than 4,300 digits, and the codec
    # refuses bytes that are not UTF-8.  A Python without the digit limit
    # reads the int, which is then refused as past the float range
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(raw)
    code, out, err = _run(capsys, "route", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "unreadable config json" in err or "past the float range" in err


def test_unknown_format_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--format", "xml"])
    assert exc.value.code == 2


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the command line, written apart from cli's
    own, as the oracle of the parser's differential test."""
    parser = argparse.ArgumentParser(
        prog="omrouter",
        description="Single-photon routing spectra of a driven "
                    "optomechanical cavity")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, blurb in (
            ("spectrum", cli.cmd_spectrum,
             "channel spectra on a frequency grid"),
            ("sweep", cli.cmd_sweep, "spectrum blocks over a swept parameter"),
            ("stability", cli.cmd_stability, "pole locations and margin"),
            ("route", cli.cmd_route, "band-integrated routing report")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="flat json config file")
        p.add_argument("--power", type=float, help="drive power [W]")
        p.add_argument("--temp", type=float, help="bath temperature [K]")
        p.add_argument("--grid", help="lo:hi:n in units of mech_freq")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output file (default stdout)")
        p.set_defaults(func=func)
    return parser


_ORACLE = build_parser()
_ARGV_FIELDS = ("command", "config", "power", "temp", "grid", "format", "out")


def _parsed(parse, argv):
    """(exit code or None, field values, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()
    # repr, so that nan equals nan and -0.0 differs from 0.0
    return (None, tuple(repr(getattr(args, f)) for f in _ARGV_FIELDS),
            out.getvalue(), err.getvalue())


# full and prefix flags with values that they take after a space
_POWER_FLAGS = st.sampled_from(("--power", "--pow", "--p", "--temp", "--te"))
_TEXT_FLAGS = st.sampled_from(("--config", "--con", "--grid", "--g", "--out",
                               "--o"))
_FLAG_VALUES = st.one_of(
    st.tuples(_POWER_FLAGS,
              st.sampled_from(("5e-6", "0", "-0", "-1", "-.5", "nan",
                               "1e400"))),
    st.tuples(st.sampled_from(("--format", "--fo", "--f")),
              st.sampled_from(("json", "csv"))),
    st.tuples(_TEXT_FLAGS,
              st.sampled_from(("cfg.json", "0.9:1.1:5", "", "-", "-1",
                               "-1 2"))))
# after "=" any value is taken
_EQ_FLAG_VALUES = st.one_of(
    _FLAG_VALUES,
    st.tuples(st.one_of(_POWER_FLAGS, _TEXT_FLAGS),
              st.sampled_from(("-1e-6", "-x", "-h"))))
_COMMAND_NAMES = st.sampled_from(
    ("spectrum", "sweep", "stability", "route"))
# a command, then flags with values after a space or an "=", repeated
_GOOD_ARGV = st.builds(
    lambda command, tail: [command] + sum(tail, []), _COMMAND_NAMES,
    st.lists(st.one_of(_FLAG_VALUES.map(list),
                       _EQ_FLAG_VALUES.map(lambda fv: ["=".join(fv)])),
             max_size=4))
_TOKENS = st.sampled_from(
    ("spectrum", "route", "bogus", "extra", "--", "-h", "--help", "--he",
     "-hh", "-hx", "--x", "-p", "--=json", "--power", "--fo", "-1", "-1e-6",
     "-x", "xml", "1e400", "nan", "--power=--", "--out=--", "--fo=xml",
     "--temp=x"))
# a value that a flag refuses, then the flag again with one it takes
_REFUSED_THEN_TAKEN = st.sampled_from((
    ["--format", "xml", "--format", "json"], ["--power", "x", "--power", "1"],
    ["--temp", "-", "--temp", "0.02"], ["--format", "-1", "--format", "csv"],
    ["--fo=xml", "--format", "json"], ["--power", "x", "--pow=1"]))
# the same, with tokens before the command or in place of it, flags
# without a value, values a flag refuses, extra positionals, "--" and -h
_ARGV = st.one_of(_GOOD_ARGV, st.builds(
    lambda head, argv, tail, token: head + argv[:tail] + token + argv[tail:],
    st.lists(_TOKENS, max_size=1), _GOOD_ARGV, st.integers(0, 9),
    st.lists(_TOKENS, min_size=1, max_size=2)), st.builds(
    lambda argv, tail, repeat: argv[:tail] + repeat + argv[tail:],
    _GOOD_ARGV, st.integers(1, 9), _REFUSED_THEN_TAKEN))


def _oracle(argv):
    # the parser prints its help and usage at 80 columns
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return _parsed(_ORACLE.parse_args, argv)


@settings(max_examples=600, deadline=None)
@given(argv=_ARGV)
@example(argv=["route", "--format", "xml", "--format", "json"])
@example(argv=["route", "--power", "x", "--power", "1"])
def test_parser_reads_argv_as_argparse_did(argv):
    want, got = _oracle(argv), _parsed(cli._parse_args, argv)
    if want[0] is None and "[]" in want[1]:
        # argparse stored [] for --flag=--, a value of no type, and
        # accepted it; the parser refuses it as argparse refuses the first
        # such flag given without a value
        command = want[1][0].strip("'")
        flag = "--" + _ARGV_FIELDS[want[1].index("[]")]
        want = _oracle([command, flag])
    assert got == want, argv


def test_help_is_argparse_s_at_80_columns(capsys):
    # the help, and the usage of a refusal, whatever COLUMNS says
    argvs = ((["-h"], 0), (["--help"], 0), (["route", "-h"], 0),
             (["stability", "--he"], 0), (["--power", "-h", "route"], 0),
             (["sweep", "-hh"], 0), (["bogus"], 2),
             (["route", "--format", "xml"], 2), (["spectrum", "--power"], 2))
    for columns, (argv, code) in itertools.product(("40", "80", "200"),
                                                   argvs):
        with mock.patch.dict(os.environ, {"COLUMNS": columns}), \
                pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        cap = capsys.readouterr()
        assert (cap.out, cap.err) == _oracle(argv)[2:], (columns, argv)


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    want = _run(capsys, "route", "--format", "json")
    monkeypatch.setattr(sys, "argv", ["omrouter", "route", "--fo=json"])
    code = main()
    assert (code, capsys.readouterr().out) == want[:2]


def test_cli_import_loads_no_argparse():
    # nor does a plain argv, which main reads without building the parser;
    # an "=" form is read by argparse
    script = "\n".join((
        "import sys", "import omrouter.cli",
        "loaded = ['argparse' in sys.modules]",
        "for argv in (['route', '--format', 'json', '--temp', '0'],",
        "             ['route', '--fo=json']):",
        "    omrouter.cli.main(argv)",
        "    loaded.append('argparse' in sys.modules)",
        "print(loaded)"))
    out = subprocess.run(
        [sys.executable, "-c", script], env=_src_env(), capture_output=True,
        text=True, check=True, timeout=60)
    assert out.stdout.endswith("}\n[False, False, True]\n")


# configs and --out targets of the argv property test, by name
_MAIN_CONFIGS = {
    "sweep_power": {"sweep_param": "power", "sweep_values": [5e-6, 0.0]},
    # the -omega_m point is unstable: a nan row, a "stable": false block
    "sweep_detuning": {"sweep_param": "detuning", "sweep_values": [1.0, -1.0],
                       "drive_power": 1e-6},
    "blue": {"eff_detuning": -1.0, "drive_power": 1e-6},
    "resonant": {"eff_detuning": 0.0},
    "bad": {"bogus": 1},
}
_MAIN_FLAGS = st.one_of(
    st.tuples(st.just("--power"),
              st.sampled_from(("5e-6", "0", "2e-5", "1e-3", "-1", "nan",
                               "inf", "1e400", "1e270", "-1e-6"))),
    st.tuples(st.just("--temp"),
              st.sampled_from(("0.02", "0", "1e-9", "1e305", "1e308", "-1",
                               "nan", "inf"))),
    st.tuples(st.just("--grid"),
              st.sampled_from(("0.9:1.1:5", "0.5:1.5:3", "1.1:0.9:5",
                               "0.9:1.1:1", "a:b:c", "0.9:inf:5",
                               "0.5:1e308:5", "0.9:1.1", "0.9:1.1:1e12",
                               "0.9:1.1:100000000000"))),
    st.tuples(st.just("--format"), st.sampled_from(("csv", "json", "xml"))),
    st.tuples(st.just("--config"),
              st.sampled_from(tuple(_MAIN_CONFIGS) + ("missing",))),
    st.tuples(st.just("--out"), st.sampled_from(("file", "dir", "nodir"))))
# flags after the command, each a list of argv tokens
_MAIN_TAILS = st.lists(
    st.one_of(_MAIN_FLAGS.map(list),
              _MAIN_FLAGS.map(lambda fv: ["=".join(fv)]),
              st.sampled_from((["--config=--"], ["--out=--"], ["--grid=--"],
                               ["--power"], ["extra"], ["--bogus"]))),
    max_size=4)
_MAIN_ARGV = st.tuples(_COMMAND_NAMES, _MAIN_TAILS)


def _non_finite(text, command):
    """The nan and inf fields of an output, but for a sweep's rows of
    unstable points."""
    if text.startswith("{"):   # a sweep's unstable blocks have no values
        return re.findall(r"NaN|Infinity", text)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return [f for row in rows if command != "sweep" or row[2] == "1"
            for f in row if f in ("nan", "inf", "-inf")]


def _named_path(paths, previous, token):
    """``token`` with the name of a config or an --out target replaced by
    its path."""
    flag, eq, name = token.partition("=")
    if eq and flag in ("--config", "--out"):
        return f"{flag}={paths.get(name, name)}"
    if previous in ("--config", "--out"):
        return str(paths.get(token, token))
    return token


def _main_in(tmp, argv):
    """(exit code, stdout, stderr, bytes of the "file" target) of main(argv)
    in the directory ``tmp``, with the names of the configs and --out
    targets in argv replaced by paths there; the code is None where the
    parser refuses argv."""
    paths = {"file": tmp / "out.csv", "dir": tmp,
             "nodir": tmp / "no" / "out.csv", "missing": tmp / "no.json"}
    for name, entries in _MAIN_CONFIGS.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(entries))
    paths["file"].write_bytes(b"old,bytes\r\n")
    argv = [_named_path(paths, a, b) for a, b in zip([""] + argv, argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # a refusal of the parser
            assert exc.code == 2
            code = None
    return code, out.getvalue(), err.getvalue(), paths["file"].read_bytes()


@settings(max_examples=250, deadline=None)
@given(drawn=_MAIN_ARGV)
def test_argv_through_main_exits_cleanly(drawn):
    # tiny grids first, which a drawn --grid overrides
    command, tail = drawn
    argv = [command, "--grid", "0.9:1.1:5"] + sum(tail, [])
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, written = _main_in(Path(tmp), argv)
    kept = written == b"old,bytes\r\n"
    written = written.decode() if not kept else ""
    assert "Traceback" not in err
    if code is None:
        assert out == "" and kept
        return
    assert code in (0, 2, 3, 4), argv
    if code == 3 and command == "stability":
        assert err == ""
    elif code:
        assert out == "" and kept, argv
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if code == 0:
        assert not _non_finite(out or written, command), argv


@pytest.mark.parametrize("command", ["spectrum", "sweep", "stability",
                                     "route"])
@settings(max_examples=100, deadline=None)
@given(tail=_MAIN_TAILS)
# a sweep runs only from a config that names one
@example(tail=[["--config", "sweep_power"]])
@example(tail=[["--config", "sweep_detuning"], ["--format", "json"],
               ["--out", "file"]])
def test_argv_through_main_twice_gives_the_same_bytes(command, tail):
    # two runs in one process share no state that moves their output: the
    # same exit code, stdout, stderr and --out bytes
    argv = [command, "--grid", "0.9:1.1:5"] + sum(tail, [])
    with tempfile.TemporaryDirectory() as tmp:
        first, second = [_main_in(Path(tmp), argv) for _ in range(2)]
    assert first == second, argv


# config values that no key takes, as json reads them: ints past the float
# range (but within CPython's 4,300 digits), the edges of the float range,
# json's Infinity and NaN, and values of the wrong type
_CONFIG_HOSTILE = st.sampled_from([
    10 ** 400, -(10 ** 400), 10 ** 4000, 0, 0.0, -0.0, 5e-324, 1e308,
    -1e308, math.inf, -math.inf, math.nan, True, False, "1e-6", "", "hz",
    None, [], [[]], [1.0, [2.0]], [None, 1.0]])
# a value each key takes, in units of omega_m where units are not rad_s
_CONFIG_VALID = {
    "wavelength": 1054e-9, "cavity_length": 6.7e-2, "eff_mass": 40e-12,
    "mech_freq": WM, "quality": 1.1e6, "drive_power": 5e-6,
    "bath_temp": 0.02, "cavity_decay": 0.1, "eff_detuning": 1.0,
    "input_center": 1.0, "input_bandwidth": 0.01, "grid_lo": 0.5,
    "grid_hi": 1.5, "grid_n": 5, "units": "rad_s",
    "sweep_param": "power", "sweep_values": [1e-6]}
_SWEEP_VALID = st.sampled_from((0.0, 1e-6, 5e-6, 0.02, 1.0, -1.0, 0.01))
_SWEEP_VALUES = st.lists(_SWEEP_VALID, min_size=1, max_size=36)
_SWEEP_HOSTILE = st.lists(st.one_of(_SWEEP_VALID, _CONFIG_HOSTILE),
                          max_size=36)


@st.composite
def _hostile_configs(draw):
    """A flat config over the 17 keys, most values valid and the rest
    hostile, with an unknown key in some."""
    keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_VALID)),
                         unique=True, max_size=5))
    # sweep's two keys in every config, which the other commands ignore
    keys += [k for k in ("sweep_param", "sweep_values") if k not in keys]
    # an unknown key in a few configs: hypothesis draws 0 here in about a
    # third of them, 7 in a few
    if draw(st.integers(0, 9)) == 7:
        keys.append("bogus")
    cfg = {}
    for key in keys:
        valid, hostile = st.just(_CONFIG_VALID.get(key)), _CONFIG_HOSTILE
        if key == "sweep_param":
            valid = st.sampled_from(
                ("power", "temperature", "detuning", "bandwidth"))
        elif key == "sweep_values":
            valid = _SWEEP_VALUES
            hostile = st.one_of(_SWEEP_HOSTILE, _CONFIG_HOSTILE)
        # three valid values to each hostile one
        cfg[key] = draw(st.one_of(valid, valid, valid, hostile))
    return cfg


@settings(max_examples=150, deadline=None)
@given(cfg=_hostile_configs(), grid=st.booleans())
# the drive-off route of a line 1e-283 rad/s wide on a cavity 1e57 rad/s
# wide ended in a ZeroDivisionError traceback
@example(cfg={"units": "rad_s", "cavity_decay": 1e57,
              "input_bandwidth": 1e-283, "drive_power": 0.0}, grid=True)
# a3 = 4*kappa + gamma_m squaring to 0 ended in a ZeroDivisionError
# traceback, and a classical thermal weight past the float range in inf
# at exit 0
@example(cfg={"units": "rad_s", "quality": 2e197, "cavity_decay": 2.8e-202},
         grid=False)
@example(cfg={"quality": 2e-89, "bath_temp": 1.8e291}, grid=True)
def test_hostile_config_through_main_exits_cleanly(cfg, grid):
    # every subcommand either writes its output or exits 2, 3 or 4 with one
    # error line, leaving an existing --out file as it was; half the runs
    # take the config's own grid, a 5-point one where its keys are valid
    old = b"old,bytes\r\n"
    flags = ["--grid", "0.9:1.1:5"] if grid else []
    with tempfile.TemporaryDirectory() as tmp:
        path, out_path = Path(tmp) / "cfg.json", Path(tmp) / "out.txt"
        path.write_text(json.dumps(cfg))
        for command in ("spectrum", "sweep", "stability", "route"):
            out_path.write_bytes(old)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore", omrouter.RegimeWarning)
                code = main([command, "--config", str(path), *flags,
                             "--out", str(out_path)])
            out, err = out.getvalue(), err.getvalue()
            written = out_path.read_bytes()
            assert code in (0, 2, 3, 4), (command, cfg)
            assert out == "" and "Traceback" not in err, (command, cfg)
            if code == 3 and command == "stability":
                assert err == ""
            elif code:
                assert written == old, (command, cfg)
                assert len(err.splitlines()) == 1 \
                    and err.startswith("error: "), (command, cfg, err)
            else:
                assert err == "", (command, cfg)
                assert not _non_finite(written.decode(), command), \
                    (command, cfg)


def test_one_process_gives_the_bytes_of_separate_runs(capsys):
    # main keeps nothing from one call to the next: commands run in turn,
    # with parser refusals in between, must print what a fresh interpreter
    # prints for each
    runs = (["spectrum", "--grid", "0.9:1.1:21"], ["route", "--format", "json"],
            ["stability"], ["spectrum", "--grid", "0.9:1.1:21", "--format",
                            "json"])
    fresh = [subprocess.run([sys.executable, "-m", "omrouter.cli", *argv],
                            env=_src_env(), capture_output=True, text=True,
                            check=True, timeout=120).stdout for argv in runs]
    for _ in range(2):
        for argv, want in zip(runs, fresh):
            code, out, _ = _run(capsys, *argv)
            assert code == 0 and out == want
            for bad in (["spectrum", "--format", "xml"], [], ["bogus"]):
                with pytest.raises(SystemExit) as exc:
                    main(bad)
                assert exc.value.code == 2
            capsys.readouterr()


# ---------------------------------------------------------------- stability

def test_stability_json_report(capsys):
    code, out, _ = _run(capsys, "stability", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["stable"] is True
    assert report["margin_rad_s"] > 0.0
    assert len(report["roots_re_over_omega_m"]) == 4
    assert len(report["roots_im_over_omega_m"]) == 4
    assert all(v < 0.0 for v in report["roots_im_over_omega_m"])


def test_stability_exit_three_when_unstable(write_config, capsys):
    cfg = write_config("blue.json", eff_detuning=-1.0, drive_power=1e-6)
    code, out, _ = _run(capsys, "stability", "--config", cfg,
                        "--format", "json")
    assert code == 3
    report = json.loads(out)
    assert report["stable"] is False
    assert report["margin_rad_s"] < 0.0


# -------------------------------------------------------------------- route

def test_route_json_frozen_numbers(capsys):
    code, out, _ = _run(capsys, "route", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["p_reflect"] == pytest.approx(0.8364986642145136, rel=1e-3)
    assert report["p_transmit_off"] == pytest.approx(0.9640334159255036,
                                                     rel=1e-3)
    assert report["contrast"] == min(report["p_transmit_off"],
                                     report["p_reflect"])
    assert report["band_over_omega_m"] == pytest.approx([0.5, 1.5])


def test_route_csv_single_row(capsys):
    code, out, _ = _run(capsys, "route")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[:4] == ["p_reflect", "p_transmit",
                                       "vacuum_leak", "thermal_leak"]


def test_route_temp_flag_silences_thermal_leak(capsys):
    code, out, _ = _run(capsys, "route", "--format", "json", "--temp", "0")
    assert code == 0
    assert json.loads(out)["thermal_leak"] == 0.0


def test_route_unconverged_band_integral_exits_4(monkeypatch, capsys):
    # no error estimate reaches a zero tolerance, so the drive-on report is
    # not certified, and there is no other method to fall back to; at
    # 0.5 mK St's integral takes the 16-node rule
    monkeypatch.setattr(routing, "_RESIDUE_TOL", 0.0)
    code, out, err = _run(capsys, "route", "--temp", "0.5e-3")
    assert code == 4 and out == ""
    assert err.startswith("error: drive-on band integrals not certified")


@pytest.mark.parametrize("flags, width", [
    (["--temp", "1e305"], None), ([], 1e-300), ([], 1e-160), ([], 1e-12)],
    ids=["temp-1e305", "width-1e-300", "width-1e-160", "width-1e-12"])
def test_route_on_extreme_inputs_ends_cleanly(tmp_path, flags, width):
    # an overflowing St (1e305 K) once made the band integrator loop
    # forever on a NaN error estimate, and a graded start toward a line
    # whose width squared underflows would do the same; each run must end,
    # with a report or with exit 4
    argv = [sys.executable, "-m", "omrouter.cli", "route", "--format", "json",
            *flags]
    if width is not None:
        cfg = tmp_path / "line.json"
        cfg.write_text(json.dumps({"input_bandwidth": width}))
        argv += ["--config", str(cfg)]
    run = subprocess.run(argv, env=_src_env(), capture_output=True,
                         text=True, timeout=60)
    if run.returncode == 4:
        assert run.stdout == ""
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith("error: ")
    else:
        assert run.returncode == 0 and run.stderr == ""
        fields = json.loads(run.stdout)
        assert all(math.isfinite(v) for key, v in fields.items()
                   if key != "band_over_omega_m")


def test_route_quadrature_at_an_extreme_bath(capsys):
    # at the exceptional point, where two poles of d merge and are summed
    # by a contour integral, St at 1e305 K is finite and so is its band
    # integral, as at 5 uW: thermal_leak 4.5e304
    code, out, err = _run(capsys, "route", "--format", "json", "--temp",
                          "1e305", "--power", repr(EXCEPTIONAL_POWER))
    assert code == 0 and err == ""
    fields = json.loads(out)
    assert all(math.isfinite(v) for key, v in fields.items()
               if key != "band_over_omega_m")
    assert fields["thermal_leak"] == pytest.approx(4.54e304, rel=1e-2)


@pytest.mark.parametrize("temp, code", [("1e305", 0), ("1e308", 4)])
def test_spectrum_at_extreme_bath_temperatures(temp, code):
    # at 1e305 K, 1/expm1(x) overflowed and St printed inf after a raw
    # RuntimeWarning; at 1e308 K, St is past the float range, and an inf
    # printed with exit 0
    run = subprocess.run([sys.executable, "-m", "omrouter.cli", "spectrum",
                          "--temp", temp, "--grid", "0.5:1.5:3"],
                         env=_src_env(), capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == code
    if code == 0:
        assert run.stderr == ""
        rows = [line.split(",") for line in run.stdout.splitlines()[1:]]
        assert len(rows) == 3
        assert all(math.isfinite(float(v)) for row in rows for v in row)
        # St at omega_m: 2*kB*T*gamma_m*m times |V|^2
        assert float(rows[1][4]) == pytest.approx(3.0e305, rel=1e-3)
    else:
        assert run.stdout == ""
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith("error: channels are not finite")


@pytest.mark.parametrize("field, value", [
    ("mech_freq", 1e-100), ("eff_mass", 1e-300), ("quality", 1e300)])
def test_zero_over_zero_spectrum_exits_four(tmp_path, field, value):
    # with the drive off |d|^2 underflows to 0 under a zero numerator; this
    # printed nan rows after a RuntimeWarning and exited 0
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({field: value}))
    run = subprocess.run([sys.executable, "-m", "omrouter.cli", "spectrum",
                          "--power", "0", "--grid", "0.5:1.5:3",
                          "--config", str(cfg)],
                         env=_src_env(), capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 4 and run.stdout == ""
    assert "RuntimeWarning" not in run.stderr
    assert run.stderr.splitlines()[-1].startswith(
        "error: channels are not finite")


@pytest.mark.parametrize("field, value", [
    ("cavity_decay", 1e-12), ("eff_mass", 1e-300)])
def test_route_drive_off_closed_form_on_extreme_points(tmp_path, field,
                                                       value):
    # a cavity 1e-12*omega_m wide ran the quadrature out of panels, and a
    # 1e-300 kg membrane made the drive-off channels 0/0, although with
    # the drive off neither matters to the empty cavity's closed form
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({field: value}))
    run = subprocess.run([sys.executable, "-m", "omrouter.cli", "route",
                          "--power", "0", "--format", "json",
                          "--config", str(cfg)],
                         env=_src_env(), capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    fields = json.loads(run.stdout)
    assert math.isclose(fields["p_reflect_off"] + fields["p_transmit_off"],
                        1.0, rel_tol=0.0, abs_tol=1e-12)


def test_spectrum_with_underflowing_line_density_exits_four(tmp_path):
    # Gamma^2 underflows to 0, so the line density at its center was x/0:
    # this printed inf in Scout and Sdout and exited 0
    cfg = tmp_path / "line.json"
    cfg.write_text(json.dumps({"input_bandwidth": 1e-300}))
    run = subprocess.run([sys.executable, "-m", "omrouter.cli", "spectrum",
                          "--grid", "0.5:1.5:5", "--config", str(cfg)],
                         env=_src_env(), capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 4 and run.stdout == ""
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("error: ")


# -------------------------------------------------------------------- sweep

def test_sweep_csv_blocks(write_config, capsys):
    cfg = write_config("sweep.json", sweep_param="power",
                       sweep_values=[0.0, 5e-6])
    code, out, _ = _run(capsys, "sweep", "--config", cfg,
                        "--grid", "0.5:1.5:5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "param,value,stable," \
        "omega_over_omega_m,R,T,Sv,St,Scout,Sdout"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "power" and first[2] == "1"
    assert float(lines[1].split(",")[1]) == 0.0
    assert float(lines[6].split(",")[1]) == 5e-6


def test_sweep_json_structure(write_config, capsys):
    cfg = write_config("sweep.json", sweep_param="power",
                       sweep_values=[0.0, 5e-6])
    code, out, _ = _run(capsys, "sweep", "--config", cfg,
                        "--grid", "0.5:1.5:5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["param"] == "power"
    assert [b["value"] for b in doc["blocks"]] == [0.0, 5e-6]
    for block in doc["blocks"]:
        assert block["stable"] is True
        spectrum = block["spectrum"]
        assert set(spectrum) == {"omega_over_omega_m", "R", "T", "Sv", "St",
                                 "Scout", "Sdout"}
        assert all(len(col) == 5 for col in spectrum.values())


def test_sweep_marks_unstable_values_inline(write_config, capsys):
    cfg = write_config("sweep.json", sweep_param="detuning",
                       sweep_values=[1.0, -1.0], drive_power=1e-6)
    code, out, _ = _run(capsys, "sweep", "--config", cfg,
                        "--grid", "0.5:1.5:5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    bad = lines[-1].split(",")
    assert bad[:3] == ["detuning", f"{-1.0:.12e}", "0"]
    assert all(f == "nan" for f in bad[3:])


def test_sweep_matches_single_spectrum(tmp_path, write_config, capsys):
    cfg = write_config("sweep.json", sweep_param="temperature",
                       sweep_values=[0.02])
    code, sweep_out, _ = _run(capsys, "sweep", "--config", cfg,
                              "--grid", "0.9:1.1:7")
    code2, spec_out, _ = _run(capsys, "spectrum", "--grid", "0.9:1.1:7")
    assert code == code2 == 0
    sweep_rows = [line.split(",")[3:] for line in sweep_out.splitlines()[1:]]
    spec_rows = [line.split(",") for line in spec_out.splitlines()[1:]]
    assert sweep_rows == spec_rows


@pytest.mark.parametrize("entries", [
    {"sweep_param": "power"},
    {"sweep_param": "power", "sweep_values": []},
    {"sweep_param": "frequency", "sweep_values": [1.0]},
    {"sweep_values": [1.0]},
    {"sweep_param": "power", "sweep_values": [1e-6, "hot"]},
    {"sweep_param": "power", "sweep_values": [10 ** 400]},
])
def test_bad_sweep_configs_rejected(write_config, entries, capsys):
    cfg = write_config("sweep.json", **entries)
    code, out, err = _run(capsys, "sweep", "--config", cfg)
    assert code == 2
    assert err.startswith("error:")


def test_sweep_validates_every_point_before_writing(tmp_path, write_config,
                                                    capsys):
    # one good value and one nonsensical one: nothing may be written
    cfg = write_config("sweep.json", sweep_param="temperature",
                       sweep_values=[0.02, -5.0])
    path = tmp_path / "never.csv"
    code, out, err = _run(capsys, "sweep", "--config", cfg,
                          "--out", str(path))
    assert code == 2
    assert not path.exists()


def _src_env():
    """The environment of a fresh interpreter that imports this omrouter."""
    src = str(Path(omrouter.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_cli_import_loads_no_scipy():
    # nor decimal, which fractions imports: only a point next to the red
    # static bound forms its a0 exactly
    out = subprocess.run(
        [sys.executable, "-c",
         "import omrouter.cli, sys; "
         "print('scipy' in sys.modules, 'decimal' in sys.modules)"],
        env=_src_env(), capture_output=True, text=True, check=True,
        timeout=60)
    assert out.stdout == "False False\n"
