"""Self-check: two traced runs of a workload must give identical counts.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [WORKLOAD ...]

For each workload (default: all), runs ``run.py --trace 1`` twice in
fresh processes with the same seed.  Exits 1 unless both runs are
correct and every count metric (each per-layer metric not measured in
seconds) is identical between them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(workloads.NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    ok = True
    for workload in args.workloads:
        first, second = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        differing = [n for n in counts if first["metrics"][n] != second["metrics"][n]]
        correct = first["correct"] and second["correct"]
        print(f"{workload}: correct={correct}, {len(counts) - len(differing)}/{len(counts)} "
              f"counts repeat" + (f"; differ: {', '.join(differing)}" if differing else ""))
        ok = ok and correct and not differing
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
