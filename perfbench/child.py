"""Fresh-interpreter part of the benchmark: set-up time and peak memory.

Usage: python3 perfbench/child.py WORKLOAD SEED WORKDIR

Imports the package, completes the workload's first request and notes
``time.monotonic()`` (a clock shared by all processes) at that moment.  It
then runs one request of every kind in the workload, checking each, and
prints one JSON line with the ready time, the checks, and the peak
resident memory of this process.
"""

import json
import resource
import sys
import time
from pathlib import Path

import workloads


def main(argv):
    workload, seed, workdir = argv[1], int(argv[2]), Path(argv[3])
    om = workloads.import_omrouter()
    first = workloads.take(workload, seed, 1)[0]
    try:
        outcome = workloads.execute(om, first, workdir)
    except Exception as exc:    # reported to the parent as a failure
        outcome, error = None, f"raised {exc!r}"
    ready = time.monotonic()

    expected = workloads.load_expected()
    if outcome is not None:
        error = workloads.check(om, first, outcome, expected)
    failures = [f"{first.key}: {error}"] if error else []
    del outcome
    kinds = workloads.one_of_each_kind(workload, seed)
    for req in kinds:
        _, _, error = workloads.run_checked(om, req, workdir, expected)
        if error:
            failures.append(f"{req.key}: {error}")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": ready, "attempted": 1 + len(kinds),
                      "failures": failures, "maxrss_kb": rss_kb}))


if __name__ == "__main__":
    main(sys.argv)
