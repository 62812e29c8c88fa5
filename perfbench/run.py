"""Benchmark of the twinbeam command line, driven in-process.

Run from the repository root:

    python3 perfbench/run.py --workload tree7 --seed 1 --seconds 12 --trace 0

One process calls ``twinbeam.cli.main(argv)`` for every invocation of
the workload (see ``workloads.py``), with stdout captured in memory and
one BLAS thread.  A pass is one sweep over the invocations.  The first
pass's outputs are checked outside the timed region; every later pass,
here or in a probe process, must repeat their bytes.

``--trace 0`` reports the end-to-end metrics:

- ``adj_wall_s``: median over the timed passes of a pass's wall time
  adjusted to a reference host speed (at least ``MIN_PASSES`` passes,
  for at least ``--seconds`` in total; the first pass counts, since a
  command-line user pays its cost too).  See :class:`HostSpeed`.  The
  raw wall times are printed too.
- ``setup_s``: median over fresh interpreters of the time to import
  twinbeam and build the workload's inputs, adjusted like ``adj_wall_s``.
- ``peak_alloc_mb``: ``tracemalloc`` peak over one untimed pass, run in
  a fresh interpreter so that tracing memory stays out of this process.
- ``peak_rss_mb``: ``ru_maxrss`` of this process after the timed passes.
- ``ok_share``: invocations that exited 0 and passed every check, over
  those attempted.


``--trace 1`` alternates untraced passes with passes traced by
``tracer.py``.  It reports the per-layer metrics of the fastest traced
pass, the fastest untraced pass's wall time, and the tracing overhead
(median adjusted traced pass minus median adjusted untraced pass), and
writes the fastest traced pass's spans to ``.perfbench/``.  Count
metrics must repeat exactly between traced passes, or the run is not
correct.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units
are those listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_PASSES = 3
SETUP_PROBES = 6
MIN_TRACED_PASSES = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class HostSpeed:
    """Host speed sampled while passes run, to take host noise out of wall time.

    The host runs this code at speeds up to 1.7x apart, switching every
    few seconds, so raw pass times of identical work spread by 30% across
    runs.  Every ``PERIOD`` seconds, and once on exit, a timer signal
    times a fixed loop.  An adjusted time is a wall time measured inside
    the ``with`` block, scaled by the mean of ``REFERENCE_S`` over each
    loop time (the mean speed relative to the reference), which estimates
    it at the host speed where the loop takes ``REFERENCE_S`` (about the
    fast speed of a 2-core Xeon VM).  The loop takes about 0.5% of the
    time measured.
    """

    PERIOD = 0.005
    REFERENCE_S = 22e-6

    def __init__(self) -> None:
        self.samples: list[float] = []

    @staticmethod
    def _loop() -> int:
        total = 0
        for i in range(400):
            total += i * i
        return total

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def adjust(self, wall: float) -> float:
        return wall * statistics.fmean(self.REFERENCE_S / d for d in self.samples)


def digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()


class Ledger:
    """Attempted and failed invocations, judged against the first pass."""

    def __init__(self, invocations: list[workloads.Invocation]) -> None:
        self.invocations = invocations
        self.reference: list[str] | None = None
        self.verdicts: list[str | None] = []
        self.attempted = 0
        self.failed = 0

    def judge(self, outputs: list[str], codes: list) -> None:
        """Judge a pass run in this process; the first one is checked in full."""
        if self.reference is None:
            self.verdicts = [
                self._verdict(inv, out, code)
                for inv, out, code in zip(self.invocations, outputs, codes)
            ]
        self.judge_digests([digest(o) for o in outputs], codes)

    def judge_digests(self, digests: list[str], codes: list) -> None:
        if self.reference is None:
            self.reference = digests
        for inv, d, code, ref, verdict in zip(
            self.invocations, digests, codes, self.reference, self.verdicts
        ):
            problem = (
                f"exit {code}" if code != 0
                else "output differs from the first pass" if d != ref
                else verdict
            )
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                print(f"FAIL {' '.join(inv.argv)}: {problem}", file=sys.stderr)

    @staticmethod
    def _verdict(inv: workloads.Invocation, output: str, code) -> str | None:
        if code != 0:
            return f"exit {code}"
        try:
            workloads.check_output(inv, output)
        except workloads.CheckError as exc:
            return str(exc)
        return None


def run_pass(cli, invocations, tracer=None) -> tuple[float, list[str], list]:
    """Call the CLI once per invocation; returns (wall seconds, outputs, exit codes)."""
    outputs, codes = [], []
    gc.collect()
    start = time.perf_counter()
    with tracer.root() if tracer else nullcontext():
        for k, inv in enumerate(invocations):
            if tracer:
                tracer.begin(k)
            buf = io.StringIO()
            try:
                with redirect_stdout(buf):
                    code = cli.main(list(inv.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # one failing invocation must not stop the run
                traceback.print_exc()
                code = f"raised {type(exc).__name__}"
            outputs.append(buf.getvalue())
            codes.append(code)
    wall = time.perf_counter() - start
    return wall, outputs, codes


def probe(mode: str, workload: str, seed: int, workdir: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), mode, workload, str(seed), str(workdir)],
        capture_output=True, text=True, check=True, timeout=170,
    )
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(cli, invocations, ledger: Ledger, args, workdir: Path) -> dict:
    walls: list[float] = []
    adjusted: list[float] = []

    def timed_pass() -> None:
        with HostSpeed() as speed:
            wall, outputs, codes = run_pass(cli, invocations)
        walls.append(wall)
        adjusted.append(speed.adjust(wall))
        ledger.judge(outputs, codes)

    def setup_probes(n: int) -> list[float]:
        return [probe("setup", args.workload, args.seed, workdir)["setup_s"] for _ in range(n)]

    timed_pass()
    setup = setup_probes(SETUP_PROBES // 2)
    timed_pass()
    alloc = probe("alloc", args.workload, args.seed, workdir)
    ledger.judge_digests(alloc["sha256"], alloc["codes"])
    setup += setup_probes(SETUP_PROBES - len(setup))
    while sum(walls) < args.seconds or len(walls) < MIN_PASSES:
        timed_pass()
    print(f"{len(walls)} timed passes; wall time {', '.join(f'{w:.4f}' for w in walls)} s; "
          f"adjusted {', '.join(f'{w:.4f}' for w in adjusted)} s; too few passes for any "
          "percentile above the median to have ten beyond it")
    return {
        "adj_wall_s": statistics.median(adjusted),
        "setup_s": statistics.median(setup),
        "peak_alloc_mb": alloc["peak_alloc_mb"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - ledger.failed / ledger.attempted,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, invocations, outputs: list[str]) -> dict:
    """Per-layer metrics of one traced pass."""
    from tracer import LAYERS, ROOT as PASS_SPAN, self_times

    self_s, calls = self_times(tracer.spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, t in self_s.items():
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += t
    for name in (
        "fock.substitute_modes", "interferometer.run_network", "interferometer.detect",
        "interferometer.sample_clicks", "interferometer.postselect",
        "interferometer.correction_for_branch", "metrics.reduce_to_spin_dm",
        "metrics.concurrence", "metrics.classify_bell", "metrics.chsh_expectation",
        "metrics.coincidence_spin_dm", "metrics.validate", "reporting.render",
    ):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls[name]
    complementarity = {k for k, inv in enumerate(invocations) if inv.kind == "complementarity"}
    grid_points = sum(int(invocations[k].option("--grid")) for k in complementarity)
    dm_calls = sum(
        1 for span in tracer.spans
        if span[0] == "metrics.coincidence_spin_dm" and span[4] in complementarity
    )
    counts = tracer.counts
    out.update({
        "fock.monomials_out": counts["monomials_out"],
        "interferometer.branches": counts["branches"],
        "interferometer.unique_propagation_ratio":
            _ratio(counts["distinct_propagations"], counts["run_network_calls"]),
        "metrics.dm_built": calls["metrics.TwoQubitDM"],
        "metrics.validate_per_dm": _ratio(calls["metrics.validate"], calls["metrics.TwoQubitDM"]),
        "metrics.dm_per_point": _ratio(dm_calls, grid_points),
        "reporting.output_bytes": sum(len(o.encode()) for o in outputs),
        "trace.spans": len(tracer.spans),
        "trace.uncovered_s": self_s[PASS_SPAN],
        "trace.wall_s": sum(self_s.values()),
    })
    return out


def traced(cli, invocations, ledger: Ledger, seconds: float, spans_file: Path) -> tuple[dict, bool]:
    """Per-layer metrics; False if count metrics differ between traced passes."""
    from tracer import LAYERS, SPAN_FIELDS, Tracer

    untraced, passes = [], []  # (wall, adjusted wall), (wall, adjusted wall, spans, metrics)
    while (sum(u[0] for u in untraced) + sum(p[0] for p in passes) < seconds
           or len(passes) < MIN_TRACED_PASSES):
        with HostSpeed() as speed:
            wall, outputs, codes = run_pass(cli, invocations)
        untraced.append((wall, speed.adjust(wall)))
        ledger.judge(outputs, codes)
        with Tracer() as tracer, HostSpeed() as speed:
            _, outputs, codes = run_pass(cli, invocations, tracer)
        ledger.judge(outputs, codes)
        result = layer_metrics(tracer, invocations, outputs)
        wall = result["trace.wall_s"]
        passes.append((wall, speed.adjust(wall), tracer.spans, result))

    counts = [{k: v for k, v in p[3].items() if not k.endswith("_s")} for p in passes]
    repeatable = all(c == counts[0] for c in counts)
    if not repeatable:
        print("FAIL count metrics differ between traced passes", file=sys.stderr)
    _, _, spans, result = min(passes, key=lambda p: p[0])
    result["trace.untraced_wall_s"] = min(u[0] for u in untraced)
    result["trace.overhead_s"] = (statistics.median(p[1] for p in passes)
                                  - statistics.median(u[1] for u in untraced))
    spans_file.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": spans}))
    layer_total = sum(result[f"{layer}.self_s"] for layer in LAYERS)
    print(f"{len(passes)} traced and {len(untraced)} untraced passes; spans of the fastest "
          f"traced pass in {spans_file}")
    print(f"layer self times {layer_total:.6f} s + uncovered {result['trace.uncovered_s']:.6f} s"
          f" = traced wall_s {result['trace.wall_s']:.6f} s")
    return result, repeatable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twinbeam" / "cli.py").is_file():
        print(f"error: no twinbeam sources at {SRC}; run from a twinbeam checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from twinbeam import cli

    workdir = WORK / f"{args.workload}-{args.seed}"
    invocations = workloads.build(args.workload, args.seed, workdir)
    ledger = Ledger(invocations)
    if args.trace:
        values, correct = traced(cli, invocations, ledger, args.seconds,
                                 WORK / f"spans-{args.workload}-{args.seed}.json")
        wanted = spec["per_layer"]
    else:
        values, correct = end_to_end(cli, invocations, ledger, args, workdir), True
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": correct and ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
