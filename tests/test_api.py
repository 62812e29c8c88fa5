"""The package's public names: adding or dropping one means editing this test."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import twinbeam

PUBLIC_NAMES = {
    # errors
    "NetworkError", "NotUnitaryError", "OccupancyError",
    "PauliExclusionError", "StatisticsMismatchError", "TwinbeamError",
    # fock
    "FockState", "Mode", "Spin", "Statistics", "apply_spin_rotation", "make_product_state",
    # interferometer
    "BeamSplitter", "Branch", "BranchSet", "ExcitationPattern", "FeedbackRound", "Network",
    "build_tree", "detect", "feedback_run",
    "fig1_network", "fig2_network", "opposite_spin_input", "run_network",
    # metrics
    "PSI_MINUS", "PSI_PLUS", "bell_labels", "chsh_values", "concurrences",
    "distinguishability", "dual_relabel", "gaussian_overlap", "reduce_to_spin_dm",
    "tagged_opposite_spin_input", "validate_dms",
    # reporting
    "Scalar", "ScenarioReport",
    # scenarios
    "DEFAULT_SEED", "list_scenarios", "scenario_complementarity", "scenario_dual",
    "scenario_feedback", "scenario_fig1", "scenario_fig2", "scenario_gaussian",
    "scenario_mixed_input", "scenario_statistics_test", "scenario_tree",
}


def test_public_names_are_pinned():
    assert len(twinbeam.__all__) == len(set(twinbeam.__all__))
    assert set(twinbeam.__all__) == PUBLIC_NAMES
    assert all(hasattr(twinbeam, name) for name in PUBLIC_NAMES)


def test_import_leaves_the_oracle_out():
    # the dense cross-check simulator is imported by name, never by the package
    src = Path(twinbeam.__file__).resolve().parents[1]
    code = "import sys, twinbeam; print('twinbeam.oracle' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout == "False\n"


def test_every_public_name_is_used_by_the_package():
    # a public name only tests call is a second path beside the one the package runs;
    # the oracle is left out, since it exists to be called by tests
    package = Path(twinbeam.__file__).resolve().parent
    used = set()
    for module in package.glob("*.py"):
        if module.name in ("__init__.py", "oracle.py"):
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(twinbeam.__all__) - used) == []


def test_metrics_depends_only_on_errors_and_fock():
    # the two-qubit algebra sits below the interferometer and the scenarios
    source = Path(twinbeam.__file__).resolve().parent / "metrics.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert {name for name in imported if name.startswith((".", "twinbeam"))} == {".errors", ".fock"}
