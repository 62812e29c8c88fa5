"""The benchmark's contract with the library: every workload runs and passes its checks.

``perfbench/`` imports library names of its own (oracle functions for
the fig1/fig2 gate, ``metrics.TwoQubitDM`` for the tracer).  A library
change that removes one of them breaks the benchmark run while every
other test passes, so this runs each workload once, seed 1, through
the same ``cli.main`` entry point and output checks.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from twinbeam import cli, metrics

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# read-only: no bytecode is written into the benchmark's directory
sys.path.insert(0, str(BENCH))
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True
try:
    import tracer
    import workloads
finally:
    sys.dont_write_bytecode = _write_bytecode
    sys.path.remove(str(BENCH))


def test_tracer_installs_and_restores():
    validate = metrics.TwoQubitDM.validate
    with tracer.Tracer():
        assert metrics.TwoQubitDM.validate is not validate
    assert metrics.TwoQubitDM.validate is validate


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_passes_its_checks(name, tmp_path):
    invocations = workloads.build(name, 1, tmp_path)
    assert invocations
    for inv in invocations:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(inv.argv))
        assert code == 0, inv.argv
        workloads.check_output(inv, out.getvalue())
