"""Benchmark of omrouter: seeded closed-loop workloads from one client.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):
    cli_spectrum  omrouter.cli.main: spectrum csv/json, stability, sweep,
                  blue-detuned spectrum that must exit 3 and write nothing
    route_scan    CLI route, routing_probabilities, switching_contrast
    design_scan   operating point, stability, 200001-point spectra, dip
                  scan and the blue twin's power threshold at two tolerances;
                  after the timed part it also reports, without gating it,
                  the threshold's known contract break at rel_tol 1e-9

One client thread sends each request after the previous one completes.
Every output is checked (``workloads.check``); a request that raises, exits
with the wrong code or fails its check counts as failed.

``--trace 0`` measures the end-to-end metrics for S seconds with no tracing,
then starts seven fresh interpreters for set-up time and peak memory.
``--trace 1`` alternates untraced and traced passes over the first requests
of the stream for S seconds and reports per-layer figures per request,
taken from the traced passes (``tracer.py``).  Times are scaled to a
reference machine speed by a calibration loop run before each request
(see ``CAL_REFERENCE_S``); the raw wall times are printed as well.

The environment goes on a line starting ``env:``; the last line of stdout
is the result as one JSON object.  Exits 1 without a result when the
package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import tracer as tracing
import workloads

SETUP_RUNS = 7
CHILD_TIMEOUT_S = 60
# requests replayed in every pass of a traced run: whole cycles of the mix,
# so that per-request counts repeat exactly for a seed
TRACE_REQUESTS = {"cli_spectrum": 20, "route_scan": 20, "design_scan": 6}
# layers whose summed self times are compared to find a workload's main cost
LAYER_GROUPS = {
    "cli": ("cli",),
    "routing": ("routing.routing_probabilities", "routing.switching_contrast",
                "response.pointwise"),
    "kernels+stability": ("kernels.channel_arrays", "stability.assess",
                          "stability.max_stable_power"),
}


def cap_blas_threads() -> int:
    """Cap the BLAS thread count at the usable cores; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if current.isdigit() and 0 < int(current) < threads:
            threads = int(current)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "omrouter").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(workloads.SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    if not (workloads.ROOT / ".git").exists():
        return "not a git checkout"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return res.stdout.strip() or "unknown"


def kernel_backend() -> str:
    try:
        return importlib.import_module("omrouter.kernels").BACKEND
    except (ImportError, AttributeError):
        return "absent"


def kernel_agreement(om):
    """Compiled channel kernel against the numpy reference, to 1e-12.

    Returns (note, ok); runs only when a compiled backend exists.
    """
    try:
        from omrouter.kernels import _fast, reference
    except ImportError:
        return "not built", True
    import numpy as np
    op = om.derive_operating_point(om.default_params())
    grid = om.default_grid(op, workloads.DESIGN_GRID_N)
    args = (grid, op.eff_mass, op.mech_freq, op.gamma_m, op.cavity_decay,
            op.eff_detuning, op.g ** 2 * op.n_cav, op.hbar,
            op.kB * op.bath_temp)
    worst = 0.0
    for a, b in zip(reference.channel_arrays(*args), _fast.channel_arrays(*args)):
        scale = np.maximum(np.abs(a), 1e-300)
        worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    return (f"max relative mismatch {worst:.3e} on {grid.size} points",
            worst < 1e-12)


def environment(args, blas_threads):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "scipy": importlib.import_module("scipy").__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads, "kernel_backend": kernel_backend(),
        "client": "one closed-loop client thread",
        "note": "cmd_sweep starts its own ThreadPoolExecutor of "
                "min(8, points) threads: 4 in sweep requests",
    }


# Shared virtual CPUs can change speed by a quarter within a minute (seen
# on a 2-vCPU 2.1 GHz Xeon VM), and wall times change with them.  A fixed
# calibration loop, doing the same kinds of work as the workloads (numpy
# arithmetic on arrays and on scalars, float formatting, scalar Python), is
# timed just before every request, and each request's wall time is scaled
# by CAL_REFERENCE_S over that loop time: to the speed at which the loop
# takes CAL_REFERENCE_S, its typical time on that VM.  Raw wall times are
# printed too.
CAL_REFERENCE_S = 1.45e-3


def calibration_loop(np):
    x = np.linspace(0.5, 1.5, 20001)
    y = np.abs((x - 1j * x) ** 2 / (x + 0.1j))
    ",".join([f"{v:.12e}" for v in y[:300].tolist()])
    acc = 0.0
    for i in range(1500):
        acc += math.sqrt(i + 0.5) / (1.0 + i)
    for v in y[:150]:
        w = np.asarray(v)
        acc += float(np.abs((w - 1j) / (w + 0.1j)) ** 2)
    return acc


def calibrate() -> float:
    """Seconds one pass of the calibration loop takes, GC paused."""
    import numpy as np
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_loop(np)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Client:
    """The single closed-loop client: runs, times and checks requests."""

    def __init__(self, om, expected, workdir):
        self.om, self.expected, self.workdir = om, expected, workdir
        self.attempted = 0
        self.failures = []
        self.calibrations = []

    def run(self, req, span=None):
        self.calibrations.append(calibrate())
        elapsed, outcome, error = workloads.run_checked(
            self.om, req, self.workdir, self.expected, span)
        self.attempted += 1
        if error:
            self.failures.append(f"{req.key} ({req.kind}): {error}")
        return elapsed, outcome

    def add_external(self, attempted, failures):
        self.attempted += attempted
        self.failures.extend(failures)


def percentile(values, q):
    """Percentile q in (0, 100) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(client, workload, seed, seconds):
    """Raw and speed-scaled latencies of a closed loop of ``seconds``."""
    raw, scaled = [], []
    stream = workloads.requests(workload, seed)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        elapsed, _ = client.run(next(stream))
        raw.append(elapsed)
        scaled.append(elapsed * CAL_REFERENCE_S / client.calibrations[-1])
    return raw, scaled


def fresh_interpreters(client, workload, seed, workdir):
    """Raw set-up seconds, their slowdowns, and peak RSS in MB.

    One entry per fresh process; SETUP_RUNS of them are started.  The
    slowdown of each is its calibration time over CAL_REFERENCE_S.
    """
    setups, slowdowns, rss = [], [], []
    child = str(Path(__file__).resolve().parent / "child.py")
    for _ in range(SETUP_RUNS):
        slow = statistics.median(calibrate() for _ in range(21)) \
            / CAL_REFERENCE_S
        start = time.monotonic()
        try:
            res = subprocess.run(
                [sys.executable, child, workload, str(seed), str(workdir)],
                cwd=workloads.ROOT, env=os.environ, capture_output=True,
                text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            client.add_external(1, [f"set-up child timed out after "
                                    f"{CHILD_TIMEOUT_S} s"])
            continue
        if res.returncode != 0:
            tail = res.stderr.strip().splitlines()[-1:] or ["no stderr"]
            client.add_external(1, [f"set-up child exited {res.returncode}: "
                                    f"{tail[0]}"])
            continue
        report = json.loads(res.stdout.strip().splitlines()[-1])
        client.add_external(report["attempted"], report["failures"])
        setups.append(report["ready"] - start)
        slowdowns.append(slow)
        rss.append(report["maxrss_kb"] / 1024.0)
    if not setups:
        raise SystemExit("perfbench: no set-up child completed")
    return setups, slowdowns, rss


def end_to_end(client, args, workdir):
    warm_attempted = client.attempted
    calibrations = len(client.calibrations)
    raw, scaled = measure(client, args.workload, args.seed, args.seconds)
    slow = statistics.median(client.calibrations[calibrations:]) \
        / CAL_REFERENCE_S
    setups, setup_slowdowns, rss = fresh_interpreters(
        client, args.workload, args.seed, workdir)
    failed_ratio = len(client.failures) / client.attempted
    p90 = percentile(scaled, 90)
    print(f"requests: {len(scaled)} timed "
          f"({sum(x > p90 for x in scaled)} beyond p90), "
          f"{warm_attempted} warm-up, {client.attempted} attempted in all; "
          f"failed_ratio {failed_ratio:.6g}")
    print(f"raw wall time: p50 {statistics.median(raw) * 1e3:.4f} ms, "
          f"p90 {percentile(raw, 90) * 1e3:.4f} ms, "
          f"{len(raw) / sum(raw):.4f} requests/s; median slowdown {slow:.4f}")
    print("set-up runs (raw s / slowdown): " + ", ".join(
        f"{s:.4f}/{f:.3f}" for s, f in zip(setups, setup_slowdowns)))
    print(f"peak RSS runs (MB): {', '.join(f'{r:.2f}' for r in rss)}")
    return {
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        # completed requests per second of time spent waiting on the program
        "throughput_rps": (len(scaled) / sum(scaled), "1/s"),
        "success_ratio": (1.0 - failed_ratio, "ratio"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(s / f for s, f in
                                      zip(setups, setup_slowdowns)), "s"),
    }


def traced_passes(client, workload, seed, seconds):
    """Alternate untraced and traced passes over the same requests.

    Returns the tracer, the number of traced requests, the speed scale of
    each (request id -> factor), the CLI output bytes, the tracing overhead
    in scaled ms per request, and the number of pass pairs.
    """
    reqs = workloads.take(workload, seed, TRACE_REQUESTS[workload])
    tracer = tracing.Tracer()
    pairs, scale, cli_bytes = [], {}, 0
    end = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < end:
        untraced = 0.0
        for req in reqs:
            elapsed, _ = client.run(req)
            untraced += elapsed * CAL_REFERENCE_S / client.calibrations[-1]
        traced = 0.0
        with tracer.installed():
            for req in reqs:
                rid = len(scale)
                elapsed, outcome = client.run(req, tracer.request(rid))
                scale[rid] = CAL_REFERENCE_S / client.calibrations[-1]
                traced += elapsed * scale[rid]
                if req.kind in workloads.CLI_KINDS and outcome is not None:
                    cli_bytes += len(outcome[1])
        pairs.append((untraced, traced))
    leftover = tracing.leftover_wrappers()
    if leftover:
        raise SystemExit(f"perfbench: tracing wrappers left behind: {leftover}")
    overhead_ms = statistics.median(t - u for u, t in pairs) / len(reqs) * 1e3
    return tracer, len(scale), scale, cli_bytes, overhead_ms, len(pairs)


def group_self_ms(summary, n):
    return {group: sum(summary["self_ns"][layer] for layer in layers) / n / 1e6
            for group, layers in LAYER_GROUPS.items()}


def layer_metrics(summary, n, cli_bytes, overhead_ms):
    """Per-request figures of each layer from a traced run's summary."""
    calls, size = summary["calls"], summary["size"]
    self_ns, incl_ns = summary["self_ns"], summary["incl_ns"]

    def per_req(layer):
        return calls[layer] / n

    def self_ms(layer):
        return self_ns[layer] / n / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    rp, msp = "routing.routing_probabilities", "stability.max_stable_power"
    root = tracing.ROOT_SPAN
    return {
        "cli.self_ms": (self_ms("cli"), "ms"),
        "cli.output_bytes": (cli_bytes / n, "B"),
        "cli.self_ns_per_byte": (ratio(self_ns["cli"], cli_bytes), "ns/B"),
        f"{rp}.calls": (per_req(rp), "count"),
        f"{rp}.self_ms": (self_ms(rp), "ms"),
        "routing.switching_contrast.self_ms":
            (self_ms("routing.switching_contrast"), "ms"),
        "routing.integrand_evals_per_report":
            (ratio(calls["response.pointwise"], calls[rp]), "count"),
        "response.pointwise.calls": (per_req("response.pointwise"), "count"),
        "response.pointwise.self_ms": (self_ms("response.pointwise"), "ms"),
        "kernels.channel_arrays.calls":
            (per_req("kernels.channel_arrays"), "count"),
        "kernels.channel_arrays.points":
            (size["kernels.channel_arrays"] / n, "count"),
        "kernels.channel_arrays.self_ms":
            (self_ms("kernels.channel_arrays"), "ms"),
        "response.output_spectra.self_ms":
            (self_ms("response.output_spectra"), "ms"),
        "response.output_spectra.ns_per_point":
            (ratio(incl_ns["response.output_spectra"],
                   size["response.output_spectra"]), "ns"),
        "response.eit_scan.self_ms": (self_ms("response.eit_scan"), "ms"),
        "stability.assess.calls": (per_req("stability.assess"), "count"),
        "stability.assess.self_ms": (self_ms("stability.assess"), "ms"),
        "stability.assess_per_threshold":
            (ratio(summary["assess_in_threshold"], calls[msp]), "count"),
        f"{msp}.calls": (per_req(msp), "count"),
        f"{msp}.self_ms": (self_ms(msp), "ms"),
        "operating_point.derive.calls":
            (per_req("operating_point.derive"), "count"),
        "operating_point.derive.self_ms":
            (self_ms("operating_point.derive"), "ms"),
        "empty_cavity.lorentzian_input.calls":
            (per_req("empty_cavity.lorentzian_input"), "count"),
        "empty_cavity.lorentzian_input.self_ms":
            (self_ms("empty_cavity.lorentzian_input"), "ms"),
        "trace.request_ms": (incl_ns[root] / n / 1e6, "ms"),
        "trace.remainder_ms": (self_ms(root), "ms"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    }


def per_layer(client, args):
    tracer, n, scale, cli_bytes, overhead_ms, passes = traced_passes(
        client, args.workload, args.seed, args.seconds)
    for layer, reason in tracer.absent.items():
        print(f"layer {layer}: absent ({reason}); its figures read 0")
    summary = tracing.summarize(tracer.spans, scale)
    metrics = layer_metrics(summary, n, cli_bytes, overhead_ms)
    layers_ms = sum(summary["self_ns"][layer]
                    for layer in tracing.LAYER_NAMES) / n / 1e6
    groups = group_self_ms(summary, n)
    top = max(groups, key=groups.get)
    print(f"traced: {passes} pass pairs of {TRACE_REQUESTS[args.workload]} "
          f"requests; per request {metrics['trace.request_ms'][0]:.4f} ms = "
          f"layer self times {layers_ms:.4f} ms + remainder "
          f"{metrics['trace.remainder_ms'][0]:.4f} ms")
    print("largest self-time group: " + top + " ("
          + ", ".join(f"{g} {ms:.3f} ms" for g, ms in groups.items()) + ")")
    return metrics


def print_threshold_probe(om):
    """Report, without gating it, max_stable_power's contract at 1e-9."""
    broken = workloads.threshold_probe(om)
    rel = workloads.PROBE_REL_TOL
    twins = len(workloads.POWERS) * len(workloads.DETUNINGS)
    if broken:
        print(f"known defect, not gated: max_stable_power(rel_tol={rel}) "
              f"breaks its contract on {len(broken)} of {twins} blue twins "
              "(power W, detuning/omega_m): "
              + ", ".join(f"{p}/{d}" for p, d in broken))
    else:
        print(f"max_stable_power(rel_tol={rel}) keeps its contract on all "
              f"{twins} blue twins; the timed stream may use rel_tol={rel}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    blas_threads = cap_blas_threads()
    om = workloads.import_omrouter()
    expected = workloads.load_expected()
    print("env: " + json.dumps(environment(args, blas_threads)))
    kernel_note, kernel_ok = kernel_agreement(om)
    print(f"compiled kernel: {kernel_note}")
    with tempfile.TemporaryDirectory(prefix="_work-",
                                     dir=workloads.HERE) as tmp:
        workdir = Path(tmp)
        workloads.write_configs(workdir)
        client = Client(om, expected, workdir)
        for req in workloads.one_of_each_kind(args.workload, args.seed):
            client.run(req)     # warm-up: caches and lazy set-up, not timed
        if args.trace:
            metrics = per_layer(client, args)
        else:
            metrics = end_to_end(client, args, workdir)
    if args.workload == "design_scan":
        print_threshold_probe(om)
    for failure, count in Counter(client.failures).most_common(10):
        print(f"FAILED x{count}: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {"correct": not client.failures and kernel_ok,
              "attempted": client.attempted,
              "failed": len(client.failures),
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
