"""Seeded request streams, their execution, and the correctness gate.

Every request is drawn from small fixed pools of inputs, so that each one
has an expected result recorded in ``expected.json`` (see ``record.py``).
The program only ever sees the generated argv or parameters, and the
benchmark calls nothing but ``omrouter.__all__`` names and
``omrouter.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"

# input pools; strings so that they are argv text and expected-result keys
POWERS = ("1e-6", "2e-6", "3e-6", "5e-6", "7e-6", "10e-6", "12e-6", "15e-6",
          "18e-6", "20e-6")                                  # drive power [W]
TEMPS = ("0", "10e-3", "20e-3", "30e-3", "40e-3", "50e-3")   # bath [K]
BANDWIDTHS = ("0.001", "0.002", "0.005", "0.01", "0.015", "0.02")  # /omega_m
DESIGN_TEMPS = ("0", "20e-3", "50e-3")
DETUNINGS = ("0.95", "1", "1.05")                            # /omega_m
SWEEPS = {"power": [1e-6, 5e-6, 10e-6, 20e-6],
          "temperature": [0.0, 10e-3, 30e-3, 50e-3]}
DESIGN_GRID_N = 200001

# request kinds of each workload and how often each appears in a cycle;
# every cycle is one shuffled copy of this list, so the mix is exact
MIX = {
    "cli_spectrum": {"spectrum_csv": 14, "spectrum_json": 2,
                     "stability_csv": 1, "stability_json": 1,
                     "sweep_csv": 1, "spectrum_blue": 1},
    "route_scan": {"route_csv": 3, "route_json": 1,
                   "routing_probabilities": 3, "switching_contrast": 3},
    "design_scan": {"design": 1},
}
WORKLOADS = tuple(MIX)
ROUTING_KINDS = {"route_csv", "route_json", "routing_probabilities",
                 "switching_contrast"}
CLI_KINDS = {"spectrum_csv", "spectrum_json", "stability_csv",
             "stability_json", "sweep_csv", "spectrum_blue", "route_csv",
             "route_json"}
DIGEST_KINDS = {"spectrum_csv", "spectrum_json", "stability_csv",
                "stability_json", "sweep_csv"}

# tolerances: routing values as in the library tests, the drive-off sum
# rule, and the frozen dip-geometry tests
ROUTE_RTOL = 1e-6
ABS_TOL = 1e-12
DRIVE_OFF_SUM_TOL = 1e-9
DIP_RTOL = 1e-9
SPECTRA_RTOL = 1e-9
MARGIN_RTOL = 1e-6
SAMPLE_INDICES = (0, 50000, 99500, 100000, 100500, 150000, 200000)
# max_stable_power tolerances of a design request: the default and a tight
# one.  The tight one is 1e-7, not 1e-9: near the threshold the stability
# verdict flips back and forth within about 6e-9 relative, so at 1e-9 the
# bisection breaks its contract on the 1.05 omega_m twins at 7, 15 and
# 18 uW.  That defect is probed apart from the timed stream and reported on
# every design_scan run (``threshold_probe``).
THRESHOLD_REL_TOLS = (0.01, 1e-7)
PROBE_REL_TOL = 1e-9
ROUTE_FIELDS = ("p_reflect", "p_transmit", "vacuum_leak", "thermal_leak",
                "p_reflect_off", "p_transmit_off", "contrast")


def import_omrouter():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    init = SRC / "omrouter" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import omrouter
    import omrouter.cli
    if Path(omrouter.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported omrouter from "
                         f"{omrouter.__file__}, not {init}")
    return omrouter


@dataclass(frozen=True)
class Request:
    kind: str
    power: str = ""
    temp: str = ""
    extra: str = ""     # bandwidth, detuning or swept parameter

    @property
    def key(self) -> str:
        if self.kind in ROUTING_KINDS:
            return f"routing|{self.power}|{self.temp}|{self.extra}"
        return f"{self.kind}|{self.power}|{self.temp}|{self.extra}"


def _deck(kind):
    """(power, temp, extra) combinations dealt to a kind's requests.

    Each deck holds every combination of the inputs that set a request's
    cost once, so a run's mix barely depends on the seed; a temp of None is
    drawn freely from the workload's temperatures for each request.
    """
    if kind == "sweep_csv":
        return ([("", t, "power") for t in TEMPS]
                + [(p, "", "temperature") for p in POWERS])
    if kind in ROUTING_KINDS:
        return [(p, None, b) for p in POWERS for b in BANDWIDTHS]
    if kind == "design":
        return [(p, None, d) for p in POWERS for d in DETUNINGS]
    return [(p, None, "") for p in POWERS]


def _temps(kind):
    return DESIGN_TEMPS if kind == "design" else TEMPS


def requests(workload: str, seed: int):
    """Endless seeded request stream of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    cycle = [k for k, n in MIX[workload].items() for _ in range(n)]
    decks = {kind: [] for kind in cycle}
    while True:
        rng.shuffle(cycle)
        for kind in cycle:
            deck = decks[kind]
            if not deck:
                deck.extend(_deck(kind))
                rng.shuffle(deck)
            power, temp, extra = deck.pop()
            if temp is None:
                temp = rng.choice(_temps(kind))
            yield Request(kind, power, temp, extra)


def take(workload: str, seed: int, n: int) -> list[Request]:
    stream = requests(workload, seed)
    return [next(stream) for _ in range(n)]


def one_of_each_kind(workload: str, seed: int) -> list[Request]:
    """The first request of every kind in the stream, in stream order."""
    seen, out = set(), []
    for req in requests(workload, seed):
        if req.kind not in seen:
            seen.add(req.kind)
            out.append(req)
        if len(seen) == len(MIX[workload]):
            return out


def pool(workload: str) -> list[Request]:
    """Every distinct request the workload can draw (blue spectra excepted)."""
    return [Request(kind, p, temp, extra)
            for kind in MIX[workload] if kind != "spectrum_blue"
            for p, t, extra in _deck(kind)
            for temp in ([t] if t is not None else _temps(kind))]


def write_configs(workdir: Path) -> None:
    """The flat JSON configs that CLI requests name with --config."""
    configs = {"blue.json": {"eff_detuning": -1.0}}
    for swept, values in SWEEPS.items():
        configs[f"sweep_{swept}.json"] = {"sweep_param": swept,
                                          "sweep_values": values}
    for bw in BANDWIDTHS:
        configs[f"bw_{bw}.json"] = {"input_bandwidth": float(bw)}
    for name, cfg in configs.items():
        (workdir / name).write_text(json.dumps(cfg), encoding="utf-8")


def argv(req: Request, workdir: Path) -> list[str]:
    cmd, _, fmt = req.kind.partition("_")
    out = [cmd]
    if req.kind == "spectrum_blue":
        out += ["--config", str(workdir / "blue.json")]
    elif cmd == "sweep":
        out += ["--config", str(workdir / f"sweep_{req.extra}.json")]
    elif cmd == "route":
        out += ["--config", str(workdir / f"bw_{req.extra}.json")]
    if req.power:
        out += ["--power", req.power]
    if req.temp:
        out += ["--temp", req.temp]
    if fmt == "json":
        out += ["--format", "json"]
    return out


def run_cli(cli_main, args):
    """omrouter.cli.main(args) with stdout captured as bytes."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="\n",
                           write_through=True)
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(args)
    return code, buf.getvalue()


def run_checked(om, req: Request, workdir: Path, expected, span=None):
    """Execute and check one request: (seconds, outcome, error or None).

    Only the program call is timed, inside ``span``; the check runs after
    the clock stops.
    """
    start = time.perf_counter()
    try:
        with span if span is not None else contextlib.nullcontext():
            outcome = execute(om, req, workdir)
    except Exception as exc:    # a failed request, counted; the run goes on
        return time.perf_counter() - start, None, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    return elapsed, outcome, check(om, req, outcome, expected)


def execute(om, req: Request, workdir: Path):
    """Run one request against the program; returns its raw outcome."""
    if req.kind in CLI_KINDS:
        return run_cli(om.cli.main, argv(req, workdir))
    wm = om.SystemParams().mech_freq
    if req.kind == "routing_probabilities":
        params = om.SystemParams(drive_power=float(req.power),
                                 bath_temp=float(req.temp),
                                 input_bandwidth=float(req.extra) * wm)
        return om.routing_probabilities(om.derive_operating_point(params))
    if req.kind == "switching_contrast":
        params = om.SystemParams(bath_temp=float(req.temp),
                                 input_bandwidth=float(req.extra) * wm)
        return om.switching_contrast(params, float(req.power))
    if req.kind == "design":
        power, detuning = float(req.power), float(req.extra) * wm
        params = om.SystemParams(drive_power=power, bath_temp=float(req.temp),
                                 eff_detuning=detuning)
        op = om.derive_operating_point(params)
        stab = om.assess_stability(op)
        spectra = om.output_spectra(om.default_grid(op, DESIGN_GRID_N), op)
        dip = om.eit_linewidth_scan(op)
        blue = om.SystemParams(drive_power=power, bath_temp=float(req.temp),
                               eff_detuning=-detuning)
        thresholds = {rel: om.max_stable_power(blue, power, rel_tol=rel)
                      for rel in THRESHOLD_REL_TOLS}
        return {"stab": stab, "spectra": spectra, "dip": dip,
                "blue": blue, "p_max": power, "thresholds": thresholds}
    raise ValueError(f"unknown request kind {req.kind!r}")


# ------------------------------------------------------------------ records

def record(om, req: Request, workdir: Path):
    """Expected-result entry of a request, computed at the recording commit."""
    if req.kind in DIGEST_KINDS:
        code, out = execute(om, req, workdir)
        if code != 0:
            raise RuntimeError(f"{req} exited {code} while recording")
        return hashlib.sha256(out).hexdigest()
    if req.key.startswith("routing|"):
        base = om.SystemParams(bath_temp=float(req.temp),
                               input_bandwidth=float(req.extra)
                               * om.SystemParams().mech_freq)
        off, on = (om.routing_probabilities(om.derive_operating_point(
            replace(base, drive_power=power)))
            for power in (0.0, float(req.power)))
        return {"p_reflect": on.p_reflect, "p_transmit": on.p_transmit,
                "vacuum_leak": on.vacuum_leak,
                "thermal_leak": on.thermal_leak,
                "p_reflect_off": off.p_reflect,
                "p_transmit_off": off.p_transmit,
                "contrast": min(off.p_transmit, on.p_reflect)}
    if req.kind == "design":
        res = execute(om, req, workdir)
        spec, dip = res["spectra"], res["dip"]
        return {"stable": bool(res["stab"].stable),
                "margin": res["stab"].margin,
                "samples": {ch: [float(getattr(spec, ch)[i])
                                 for i in SAMPLE_INDICES]
                            for ch in ("R", "Tx", "Sv", "St", "Scout",
                                       "Sdout")},
                "dip": [dip.center, dip.full_width, dip.half_width]}
    raise ValueError(f"no record for kind {req.kind!r}")


# ---------------------------------------------------------------- the gate

def _close(got, want, rtol):
    return math.isclose(got, want, rel_tol=rtol, abs_tol=ABS_TOL)


def _route_values(kind, out):
    text = out.decode("utf-8")
    if kind == "route_json":
        return json.loads(text)
    header, row = text.splitlines()
    return dict(zip(header.split(","), map(float, row.split(","))))


def check(om, req: Request, outcome, expected) -> str | None:
    """None when the outcome is correct, else what is wrong with it."""
    try:
        return _check(om, req, outcome, expected)
    except (ValueError, KeyError, TypeError, IndexError, RuntimeError) as exc:
        return f"check could not read the outcome: {exc!r}"


def _check(om, req, outcome, expected):
    kind = req.kind
    if kind in CLI_KINDS:
        code, out = outcome
        want_code = 3 if kind == "spectrum_blue" else 0
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        if kind == "spectrum_blue":
            return None if out == b"" else f"wrote {len(out)} bytes on exit 3"
    want = expected.get(req.key)
    if want is None:
        return f"no recorded result for {req.key}"
    if kind in DIGEST_KINDS:
        got = hashlib.sha256(outcome[1]).hexdigest()
        return None if got == want else "output bytes differ from the record"
    if kind in ("route_csv", "route_json"):
        got = _route_values(kind, outcome[1])
        for name in ROUTE_FIELDS:
            if not _close(got[name], want[name], ROUTE_RTOL):
                return f"{name} {got[name]!r} != recorded {want[name]!r}"
        off_sum = got["p_reflect_off"] + got["p_transmit_off"]
        if abs(off_sum - 1.0) > DRIVE_OFF_SUM_TOL:
            return f"drive-off p_reflect + p_transmit = {off_sum!r}"
        return None
    if kind == "routing_probabilities":
        for name in ("p_reflect", "p_transmit", "vacuum_leak", "thermal_leak"):
            if not _close(getattr(outcome, name), want[name], ROUTE_RTOL):
                return f"{name} {getattr(outcome, name)!r} != {want[name]!r}"
        return None
    if kind == "switching_contrast":
        if not _close(outcome, want["contrast"], ROUTE_RTOL):
            return f"contrast {outcome!r} != recorded {want['contrast']!r}"
        return None
    if kind == "design":
        return _check_design(om, outcome, want)
    return f"unknown request kind {kind!r}"


def _check_design(om, res, want):
    stab = res["stab"]
    if bool(stab.stable) != want["stable"] or \
            not _close(stab.margin, want["margin"], MARGIN_RTOL):
        return f"stability ({stab.stable}, {stab.margin!r}) != recorded"
    spec = res["spectra"]
    for ch, values in want["samples"].items():
        arr = getattr(spec, ch)
        if len(arr) != DESIGN_GRID_N:
            return f"{ch} has {len(arr)} points"
        for i, v in zip(SAMPLE_INDICES, values):
            if not _close(float(arr[i]), v, SPECTRA_RTOL):
                return f"{ch}[{i}] {float(arr[i])!r} != recorded {v!r}"
    dip = res["dip"]
    for name, got, v in zip(("center", "full_width", "half_width"),
                            (dip.center, dip.full_width, dip.half_width),
                            want["dip"]):
        if not _close(got, v, DIP_RTOL):
            return f"dip {name} {got!r} != recorded {v!r}"
    return _check_threshold(om, res["blue"], res["p_max"], res["thresholds"])


def _stable_at(om, params, power):
    op = om.derive_operating_point(replace(params, drive_power=power))
    return om.assess_stability(op).stable


def _check_threshold(om, blue, p_max, thresholds):
    """max_stable_power's contract, not a recorded value."""
    for rel, p in thresholds.items():
        if not (0.0 <= p <= p_max) or not _stable_at(om, blue, p):
            return f"max_stable_power(rel_tol={rel}) = {p!r} is not stable"
        if p != p_max and _stable_at(om, blue, p * (1.0 + 2.0 * rel)):
            return (f"max_stable_power(rel_tol={rel}) = {p!r} is still "
                    f"stable at {p * (1.0 + 2.0 * rel)!r}")
    return None


def threshold_probe(om, rel_tol=PROBE_REL_TOL):
    """max_stable_power's contract at ``rel_tol`` on every blue twin.

    Returns the (power, detuning) inputs on which the contract is broken.
    The threshold does not depend on the bath temperature, so each twin is
    probed once, at zero temperature.
    """
    wm = om.SystemParams().mech_freq
    broken = []
    for power in POWERS:
        for detuning in DETUNINGS:
            blue = om.SystemParams(drive_power=float(power),
                                   eff_detuning=-float(detuning) * wm)
            p = om.max_stable_power(blue, float(power), rel_tol=rel_tol)
            if _check_threshold(om, blue, float(power), {rel_tol: p}):
                broken.append((power, detuning))
    return broken


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)
