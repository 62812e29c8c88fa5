"""The package's public names: adding or dropping one means editing this test."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import twinbeam

PUBLIC_NAMES = {
    # errors
    "NetworkError", "OccupancyError",
    "PauliExclusionError", "StatisticsMismatchError", "TwinbeamError",
    # fock
    "FockState", "Mode", "Spin", "Statistics", "make_product_state",
    # interferometer
    "BeamSplitter", "Branch", "BranchSet", "ExcitationPattern", "FeedbackRound", "Network",
    "build_tree", "detect", "feedback_run",
    "fig1_network", "fig2_network", "opposite_spin_input", "run_network",
    # metrics
    "bell_index", "chsh_values", "concurrences", "distinguishability", "dual_relabel",
    "gaussian_overlap", "reduce_to_spin_dm", "tagged_opposite_spin_input", "validate_dms",
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


#: names no package code reads, each kept for a caller outside the package
KEPT_FOR_OTHERS = {
    "metrics.TwoQubitDM": "perfbench/tracer.py wraps it",
    "ScenarioReport.to_json": "perfbench/tracer.py wraps it",
    "Network.to_dict": "perfbench/workloads.py and CI write networks with it",
    "errors.NotUnitaryError": "oracle.py raises it",
}


def test_every_public_name_is_used_by_the_package():
    # a name only tests read, or one only ever assigned, is a second path beside the one
    # the package runs; the oracle is left out, since it exists to be called by tests
    package = Path(twinbeam.__file__).resolve().parent
    trees = {
        module.stem: ast.parse(module.read_text())
        for module in sorted(package.glob("*.py"))
        if module.name not in ("__init__.py", "oracle.py")
    }
    names, attributes = set(), set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    loaded = names | attributes
    # each module-level def, class and assignment, and each public method of a public class,
    # mapped to whether package code reads it; a method is read only as an attribute
    read = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                targets = [node.target.id] if isinstance(node, ast.AnnAssign) else []
            read |= {f"{module}.{name}": name in loaded for name in targets}
            if isinstance(node, ast.ClassDef) and node.name in twinbeam.__all__:
                read |= {
                    f"{node.name}.{item.name}": item.name in attributes
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                }
    assert set(twinbeam.__all__) <= {key.split(".")[1] for key in read}
    unread = {key for key, is_read in read.items() if not is_read}
    extra, stale = sorted(unread - KEPT_FOR_OTHERS.keys()), sorted(KEPT_FOR_OTHERS.keys() - unread)
    assert not extra, f"read by no package code: {extra}"
    assert not stale, f"read by package code, so not kept for others: {stale}"


def imports(module: str) -> list[tuple[str, list[str]]]:
    """Each module a package module imports, relative ones with their dots, and the names taken."""
    source = Path(twinbeam.__file__).resolve().parent / module
    found = []
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, []) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append(("." * node.level + (node.module or ""), [a.name for a in node.names]))
    return found


def own(found: list[tuple[str, list[str]]]) -> list[tuple[str, list[str]]]:
    """The imports of twinbeam modules among ``found``."""
    return [(module, names) for module, names in found if module.startswith((".", "twinbeam"))]


def test_metrics_depends_only_on_errors_and_fock():
    # the two-qubit algebra sits below the interferometer and the scenarios
    assert {module for module, _ in own(imports("metrics.py"))} == {".errors", ".fock"}


def test_cli_builds_no_report_and_reporting_knows_no_physics():
    # the command line parses, calls a scenario and emits; every report is built in scenarios
    found = imports("cli.py")
    assert [module for module, _ in found if module.split(".")[0] == "numpy"] == []
    assert [name for _, names in own(found) for name in names if name.startswith("_")] == []
    # the renderers sit below every other module
    assert own(imports("reporting.py")) == []
