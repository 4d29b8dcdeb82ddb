"""Record the expected result of every request the workloads can draw.

Usage: python3 perfbench/record.py

Writes perfbench/expected.json: sha256 digests of the CLI spectrum, sweep
and stability bytes, the routing values, and the design-scan values
(stability margin, spectra samples, dip geometry).  The file is the
reference the benchmark's correctness gate compares against, so it is
recorded once, at a commit whose outputs are trusted, and not re-recorded
to make a later change pass.
"""

import json
import tempfile
from pathlib import Path

import workloads


def main():
    om = workloads.import_omrouter()
    expected = {}
    with tempfile.TemporaryDirectory(prefix="_work-",
                                     dir=workloads.HERE) as tmp:
        workdir = Path(tmp)
        workloads.write_configs(workdir)
        for workload in workloads.WORKLOADS:
            for req in workloads.pool(workload):
                if req.key not in expected:
                    expected[req.key] = workloads.record(om, req, workdir)
    lines = (f"{json.dumps(key)}: {json.dumps(value)}"
             for key, value in sorted(expected.items()))
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(expected)} entries in {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
