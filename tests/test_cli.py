import hashlib
import json
import math
import re

import pytest

from omrouter import default_params
from omrouter.cli import main

WM = default_params().mech_freq

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


def test_spectrum_default_bytes_frozen(capsys):
    # sha256 of `omrouter spectrum` with every default (4001-point csv); the
    # benchmark gate pins the same digest as spectrum_csv|5e-6|20e-3
    code, out, _ = _run(capsys, "spectrum")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "87cfd356f7fa3295155ad499f6db182c3089fc91a807aac7a0a482ccf30f94ef"


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


@pytest.mark.parametrize("grid", ["1.5:0.5:11", "0.5:1.5", "a:b:c",
                                  "0.5:1.5:1", "-0.5:1.5:11", "0:1.5:11"])
def test_bad_grid_flag_rejected(grid, capsys):
    code, out, err = _run(capsys, "spectrum", f"--grid={grid}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_unstable_point_reports_and_writes_nothing(tmp_path, write_config,
                                                   capsys):
    cfg = write_config("blue.json", eff_detuning=-1.0, drive_power=1e-6)
    path = tmp_path / "never.csv"
    code, out, err = _run(capsys, "spectrum", "--config", cfg,
                          "--out", str(path))
    assert code == 3
    assert not path.exists()
    assert "unstable" in err


@pytest.mark.parametrize("text", ["{", "[1, 2]", "{\"bogus\": 1}",
                                  "{\"mech_freq\": \"fast\"}"])
def test_bad_config_rejected_without_output(tmp_path, text, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    path = tmp_path / "never.csv"
    code, out, err = _run(capsys, "spectrum", "--config", str(cfg),
                          "--out", str(path))
    assert code == 2
    assert not path.exists()
    assert err.startswith("error:")


def test_missing_config_file(tmp_path, capsys):
    code, _, err = _run(capsys, "spectrum", "--config",
                        str(tmp_path / "nope.json"))
    assert code == 2 and "config" in err


def test_unknown_format_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--format", "xml"])
    assert exc.value.code == 2


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
