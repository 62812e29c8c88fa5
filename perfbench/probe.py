"""Measurements that need a fresh interpreter; prints one JSON object.

    python3 perfbench/probe.py setup <workload> <seed> <workdir>
    python3 perfbench/probe.py alloc <workload> <seed> <workdir>

``setup`` times importing twinbeam's command line and building the
workload's inputs, adjusted to the reference host speed.  ``alloc``
also runs one untimed pass under ``tracemalloc`` and reports its peak,
with a SHA-256 digest and exit code per invocation so the caller can
check the outputs.
"""

import json
import sys
import time
import tracemalloc
from pathlib import Path

from run import SRC, HostSpeed, digest, run_pass
import workloads

mode, workload, seed, workdir = sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
sys.path.insert(0, str(SRC))
with HostSpeed() as speed:
    start = time.perf_counter()
    from twinbeam import cli

    invocations = workloads.build(workload, seed, workdir)
    elapsed = time.perf_counter() - start
result = {"setup_s": speed.adjust(elapsed)}
if mode == "alloc":
    tracemalloc.start()
    try:
        _, outputs, codes = run_pass(cli, invocations)
        result["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    result["sha256"] = [digest(o) for o in outputs]
    result["codes"] = codes
print(json.dumps(result))
