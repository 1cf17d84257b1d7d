"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every workload once at every size (one fresh interpreter per job, as
in the benchmark) and writes reference/<size>.json.  Run it only on a
commit whose outputs are known to be right: the benchmark compares later
outputs with these byte for byte, so recording from a wrong commit turns
a defect into the reference.  The tau points carry no reference; each
must pass the library's own S-duality threshold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_CHILD = """
import json, sys, workloads
workload, size = sys.argv[1:]
job = workloads.run(workload, size, seed=0)
if job.error:
    sys.exit(job.error)
print(json.dumps(workloads.reference_of(workload, job)))
"""


def main():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]), **run.WORKER_ENV)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for size in workloads.SIZES:
        ref = {}
        for workload in workloads.MODULES:
            done = subprocess.run(
                [sys.executable, "-c", _CHILD, workload, size], cwd=ROOT,
                env=env, text=True, capture_output=True, check=True)
            ref[workload] = json.loads(done.stdout)
        path = workloads.REFERENCE_DIR / f"{size}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
