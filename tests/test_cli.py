"""Tests for the command-line interface: exit codes, formats, determinism."""

import csv
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOTH_STATISTICS, one_sided_tree, pattern_label, random_network, table_rows
from twinbeam import cli, interferometer, scenarios
from twinbeam.errors import OccupancyError, TwinbeamError
from twinbeam.interferometer import (
    Network,
    _detect_pairs,
    _draw_counts,
    build_tree,
    detect,
    fig1_network,
    fig2_network,
    opposite_spin_input,
    run_network,
)
from twinbeam.reporting import Scalar, ScenarioReport, canonical_json
from twinbeam.scenarios import SCENARIOS


def readme_commands() -> list[str]:
    """Every ``twinbeam ...`` line of the README's Command line section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    commands = [c for c in commands if c.startswith("twinbeam ")]
    assert commands, "the README's Command line section lists no twinbeam commands"
    return commands


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_catalog_lists_all_scenarios(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for name in ("fig1", "fig2", "tree", "feedback", "statistics-test",
                     "mixed-input", "complementarity", "gaussian", "dual"):
            assert name in out

    def test_catalog_is_identical_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "list", "--format", "json")
        _, second, _ = run_cli(capsys, "list", "--format", "json")
        assert first == second


def no_blocks(*args):
    raise AssertionError("a sweep built blocks before its range checks")


class TestRun:
    def test_tree_json_contains_yield(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "tree", "--statistics", "fermion", "--depth", "2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["scalars"]["entangled_yield"]["value"] == 0.75

    def test_feedback_exact_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "feedback", "--depth", "7", "--trials", "0", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["scalars"]["cumulative_failure"]["value"] == 1 / 128
        assert "sampled_success" not in data["scalars"]

    def test_complementarity_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "complementarity", "--grid", "11", "--statistics", "boson",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 12
        e_col, d_col = header.index("entanglement"), header.index("distinguishability")
        for line in lines[1:]:
            cells = line.split(",")
            assert abs(float(cells[e_col]) + float(cells[d_col]) - 1.0) < 1e-9

    @pytest.mark.parametrize("statistics", ["boson", "fermion"])
    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_csv_rows_parse_to_the_header_width(self, capsys, scenario, statistics):
        code, out, _ = run_cli(capsys, "run", scenario, "--statistics", statistics, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(header) for row in rows)

    @pytest.mark.parametrize("statistics", ["boson", "fermion"])
    @pytest.mark.parametrize("command", [*SCENARIOS, "feedback --trials 1000"])
    def test_each_json_column_holds_one_cell_type(self, capsys, command, statistics):
        argv = ("run", *command.split(), "--statistics", statistics, "--format", "json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = json.loads(out)["table"]
        for column in rows[0]:
            assert len({type(row[column]) for row in rows}) == 1, column

    def test_csv_quotes_cells_holding_a_comma(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run", "statistics-test", "--format", "csv")
        assert code == 0
        outcomes = [row[0] for row in csv.reader(io.StringIO(out))]
        assert outcomes == ["outcome", "up,up", "up,down", "down,up", "down,down"]
        assert out.splitlines()[1].startswith('"up,up",')
        path = tmp_path / "commas.json"
        path.write_text(json.dumps(
            {"splitters": [["A", "B", "x,1", "y,2"]], "inputs": ["A", "B"],
             "monitored": ["x,1", "y,2"]}
        ))
        code, out, _ = run_cli(capsys, "clicks", "--network", str(path), "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert [row[0] for row in rows] == ["x,1", "y,2", "x,1+y,2"]
        assert all(len(row) == len(header) for row in rows)

    def test_json_output_is_byte_identical(self, capsys):
        argv = ("run", "feedback", "--depth", "3", "--trials", "1000", "--seed", "7",
                "--format", "json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "run", "mixed-input", "--format", "json")
        assert canonical_json(json.loads(out)) == out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "run", "fig1", "--format", "json", "--output", str(target)
        )
        assert code == 0 and out == ""
        data = json.loads(target.read_text())
        assert data["scenario"] == "fig1"
        for command in ("run tree --depth 4", "clicks --depth 4"):
            argv = [*command.split(), "--format", "json"]
            _, stdout, _ = run_cli(capsys, *argv)
            code, out, _ = run_cli(capsys, *argv, "--output", str(target))
            assert code == 0 and out == ""
            assert target.read_bytes() == stdout.encode()

    @pytest.mark.parametrize("command", ["run fig1", "clicks --fig 1"])
    @pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, command, target):
        path = tmp_path / target
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*command.split(), "--output", str(path)])
        assert excinfo.value.code == 2
        assert f"cannot write output file {str(path)!r}" in capsys.readouterr().err

    def test_options_follow_the_scenario(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "--statistics", "boson", "fig1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "scenario,present,absent",
        [
            ("tree", ["--depth", "tree depth"], ["--grid", "--trials", "--seed", "--velocity"]),
            ("feedback", ["--depth", "feedback rounds", "--trials", "--seed"], ["--grid"]),
        ],
    )
    def test_scenario_help_lists_its_own_flags(self, capsys, scenario, present, absent):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", scenario, "-h"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert all(flag in out for flag in present)
        assert not any(flag in out for flag in absent)

    def test_unknown_scenario_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "nonsense"])
        assert excinfo.value.code == 2

    def test_irrelevant_parameter_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "fig1", "--depth", "3"])
        assert excinfo.value.code == 2

    def test_out_of_range_depth_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "tree", "--depth", "11"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "command,message",
        [
            ("run tree --depth 11", "depth must be between 1 and 10, got 11"),
            ("clicks --depth 11", "depth must be between 1 and 10, got 11"),
            ("run complementarity --grid 1", "grid must be between 2 and 100000, got 1"),
            ("run complementarity --grid 100001", "grid must be between 2 and 100000, got 100001"),
            ("run gaussian --grid 100001", "grid must be between 2 and 100000, got 100001"),
            ("run feedback --trials 9223372036854775808",
             "trials must be between 0 and 9223372036854775807, got 9223372036854775808"),
            ("run feedback --depth 11", "depth must be between 1 and 10, got 11"),
            ("run feedback --trials -1", "trials must be between 0 and 9223372036854775807, got -1"),
            # exact only, so no draw checks the seed
            ("run feedback --seed=-1 --trials 0", "seed must be nonnegative, got -1"),
        ],
    )
    def test_parameter_past_its_bound_is_usage_error(self, capsys, monkeypatch, command, message):
        def no_run(*args):
            raise AssertionError("computed past the range check")

        # build_tree checks its depth itself; the branch tables and clicks detect next
        for name in ("_detect_pairs", "_heralded_blocks"):
            monkeypatch.setattr(scenarios, name, no_run)
        monkeypatch.setattr(cli, "_detect_pairs", no_run)
        # every feedback round propagates first
        monkeypatch.setattr(interferometer, "run_network", no_run)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(command.split())
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_feedback_samples_the_most_trials(self, capsys):
        argv = ["run", "feedback", "--depth", "10", "--trials", "9223372036854775807"]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        scalars = json.loads(out)["scalars"]
        assert scalars["trials"]["value"] == 2 ** 63 - 1
        assert abs(scalars["sampled_success"]["value"] - (1 - 2 ** -10)) < 1e-6

    def test_negative_feedback_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "feedback", "--trials", "10", "--seed=-1"])
        assert excinfo.value.code == 2
        assert "seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--velocity", "--width", "--delay-max"])
    def test_non_finite_gaussian_parameter_is_usage_error(self, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(scenarios, "_heralded_blocks", no_blocks)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "gaussian", f"{flag}={value}"])
        assert excinfo.value.code == 2
        name = flag[2:].replace("-", "_")
        assert f"{name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options", ["--velocity 1e200", "--delay-max 1e300", "--width 1e-200"]
    )
    def test_gaussian_overlap_out_of_float_range_is_usage_error(self, capsys, monkeypatch, options):
        monkeypatch.setattr(scenarios, "_heralded_blocks", no_blocks)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "gaussian", *options.split(), "--grid", "3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "leave the float range" in err
        assert all(name in err for name in ("velocity", "delay", "width"))

    @pytest.mark.parametrize(
        "options,expected",
        [("--velocity 1e-160 --delay-max 1e160", 0.606530659713),
         ("--velocity 0 --delay-max 1e300", 1.0)],
    )
    def test_gaussian_overlap_of_a_finite_ratio_runs(self, capsys, options, expected):
        # v dt / sigma is finite although v^2 dt^2 is not
        code, out, _ = run_cli(
            capsys, "run", "gaussian", *options.split(), "--grid", "3", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["table"]
        assert [row["expected_entanglement"] for row in rows] == [expected, 1.0, expected]

    def test_scenario_error_exits_three(self, capsys, monkeypatch):
        def boom(statistics):
            raise TwinbeamError("nothing to select")

        monkeypatch.setitem(SCENARIOS, "fig1", SCENARIOS["fig1"]._replace(run=boom))
        code, _, err = run_cli(capsys, "run", "fig1")
        assert code == 3
        assert "nothing to select" in err

    def test_package_error_in_scenario_exits_three(self, capsys, monkeypatch):
        # a TwinbeamError that is also a ValueError is not a parameter error
        def boom(statistics):
            raise OccupancyError("two particles on one path")

        monkeypatch.setitem(SCENARIOS, "fig1", SCENARIOS["fig1"]._replace(run=boom))
        code, _, err = run_cli(capsys, "run", "fig1")
        assert code == 3
        assert "two particles on one path" in err


#: the command line of ``twinbeam`` in a new interpreter
TWINBEAM = (sys.executable, "-m", "twinbeam.cli")


def package_env():
    """The environment of a new interpreter that imports this checkout's package."""
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def fresh_process(argv):
    """Exit code, stdout and stderr of ``twinbeam <argv>`` in a new interpreter."""
    done = subprocess.run([*TWINBEAM, *argv], capture_output=True, text=True, env=package_env())
    return done.returncode, done.stdout, done.stderr


#: prints the peak resident KiB of the command in its arguments; the probe waits
#: for that one command, so its children's peak is that command's
MAXRSS_PROBE = (
    "import resource, subprocess, sys; "
    "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


class TestProcess:
    """What a shell sees of one ``twinbeam`` process: its exit code, stderr and memory."""

    def test_closed_pipe_exits_141_without_a_traceback(self):
        argv = [*TWINBEAM, "run", "tree", "--depth", "7", "--format", "json"]
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env()
        )
        # the 1.7 MB report outgrows the pipe, so the writer meets its closed end
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is counted in KiB on Linux")
    def test_depth_ten_clicks_table_stays_under_400_mib(self, tmp_path):
        path = tmp_path / "tree10.json"
        path.write_text(json.dumps(build_tree(10).to_dict()))
        argv = [*TWINBEAM, "clicks", "--network", str(path), "--format", "table"]
        done = subprocess.run(
            [sys.executable, "-c", MAXRSS_PROBE, *argv],
            capture_output=True, text=True, env=package_env(), check=True,
        )
        assert int(done.stdout) <= 400 * 1024

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is counted in KiB on Linux")
    def test_depth_ten_tree_table_stays_under_512_mib(self, tmp_path):
        argv = [*TWINBEAM, "run", "tree", "--depth", "10", "--format", "table",
                "--output", str(tmp_path / "tree10.txt")]
        done = subprocess.run(
            [sys.executable, "-c", MAXRSS_PROBE, *argv],
            capture_output=True, text=True, env=package_env(), check=True,
        )
        assert int(done.stdout) <= 512 * 1024
        with open(tmp_path / "tree10.txt") as report:
            assert report.readline() == "scenario: tree  [fermion]\n"


class TestCachedParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_match_fresh_processes(self, capsys, tmp_path, monkeypatch):
        # the help text wraps at the terminal width; the fresh processes inherit it
        monkeypatch.setenv("COLUMNS", "80")
        target = tmp_path / "fig1.txt"
        sequence = [
            ["run", "tree", "--depth", "11"],
            ["run", "tree", "--depth", "3", "--format", "json"],
            ["run", "fig1", "--output", str(target)],
            ["run", "fig1"],
            ["run", "tree", "-h"],
        ]
        results = []
        for argv in sequence:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            results.append((code, out, err, target.read_text() if target.exists() else None))
            target.unlink(missing_ok=True)
            fresh = fresh_process(argv)
            assert results[-1] == (*fresh, target.read_text() if target.exists() else None)
            target.unlink(missing_ok=True)
        assert [code for code, *_ in results] == [2, 0, 0, 0, 0]
        # --output wrote the file and nothing else; the next run printed the same bytes
        assert results[2][1] == "" and results[2][3] == results[3][1] != ""
        assert results[3][3] is None
        help_text = results[4][1]
        assert "--depth" in help_text and "--grid" not in help_text and "--trials" not in help_text


class TestSweepPropagation:
    @pytest.mark.parametrize("statistics", BOTH_STATISTICS, ids=lambda s: s.value)
    @pytest.mark.parametrize("scenario", ["complementarity", "gaussian"])
    # 2, 3 and 143 metrics chunks
    @pytest.mark.parametrize("grid, chunk", [(1001, 512), (1025, 512), (1001, 7)])
    def test_two_propagations_per_sweep(
        self, capsys, monkeypatch, scenario, statistics, grid, chunk
    ):
        monkeypatch.setattr(scenarios, "METRICS_CHUNK", chunk)
        real = interferometer.run_network
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        # every binding in the package, so a call from any layer is counted
        for name, module in list(sys.modules.items()):
            if name.startswith("twinbeam") and vars(module).get("run_network") is real:
                monkeypatch.setattr(module, "run_network", counting)
        argv = ("run", scenario, "--grid", str(grid), "--statistics", statistics.value)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and len(json.loads(out)["table"]) == grid
        # the two tag basis pairs, heralded once and shared by every chunk
        assert len(calls) == 2


CLICKS_NETWORKS = [("--fig 1", fig1_network()), ("--fig 2", fig2_network())]
CLICKS_NETWORKS += [(f"--depth {d}", build_tree(d)) for d in range(1, 7)]


def sparse_clicks_columns(net, statistics):
    """The exact columns of a clicks report, built from the sparse engine's branches."""
    branches = detect(run_network(net, opposite_spin_input(statistics, net)), net.monitored)
    report = ScenarioReport(
        scenario="clicks",
        statistics=statistics.value,
        scalars={"coincidence_probability": Scalar(
            sum(b.probability for b in branches if len(b.pattern) == 2)
        )},
        table={
            "pattern": [pattern_label(b.pattern) for b in branches],
            "probability": [b.probability for b in branches],
        },
    )
    return exact_clicks_columns(report.to_json())


def exact_clicks_columns(text):
    data = json.loads(text)
    rows = [[row["pattern"], row["probability"]] for row in data["table"]]
    return json.dumps([data["scalars"]["coincidence_probability"]["value"], rows])


class TestClicks:
    def test_builtin_network_histogram(self, capsys):
        code, out, _ = run_cli(
            capsys, "clicks", "--fig", "1", "--trials", "2000", "--seed", "3",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        total = sum(row["count"] for row in data["table"])
        assert total == 2000
        assert data["scalars"]["coincidence_frequency"]["provenance"] == "sampled"

    def test_deterministic_given_seed(self, capsys):
        argv = ("clicks", "--depth", "2", "--trials", "500", "--seed", "11", "--format", "json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_network_file_is_consumed(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(fig2_network().to_dict()))
        code, out, _ = run_cli(
            capsys, "clicks", "--network", str(path), "--trials", "1000", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["scalars"]["coincidence_probability"]["value"] - 0.75) < 1e-9

    def test_one_sided_tree_file(self, capsys, tmp_path):
        path = tmp_path / "one_sided.json"
        path.write_text(json.dumps(one_sided_tree(10).to_dict()))
        code, out, _ = run_cli(
            capsys, "clicks", "--network", str(path), "--trials", "100", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["table"]) == 2 ** 10
        assert abs(data["scalars"]["coincidence_probability"]["value"] - 1.0) < 1e-9

    def test_no_possible_coincidence_is_a_float_zero(self, capsys, tmp_path):
        # one detector: the pair never fires two, and the empty coincidence sum is still a float
        path = tmp_path / "one_detector.json"
        net = {"splitters": [["A", "B", "D", "C"]], "inputs": ["A", "B"], "monitored": ["C"]}
        path.write_text(json.dumps(net))
        code, out, _ = run_cli(capsys, "clicks", "--network", str(path), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [row["pattern"] for row in data["table"]] == ["none", "C"]
        value = data["scalars"]["coincidence_probability"]["value"]
        assert type(value) is float and value == 0.0

    def test_largest_trial_count(self, capsys):
        trials = str(interferometer.MAX_TRIALS)
        code, out, _ = run_cli(capsys, "clicks", "--fig", "1", "--trials", trials, "--format", "json")
        assert code == 0
        assert sum(row["count"] for row in json.loads(out)["table"]) == interferometer.MAX_TRIALS

    @pytest.mark.parametrize("trials", [interferometer.MAX_TRIALS, 9 * 10 ** 18])
    def test_frequencies_divide_python_ints(self, trials):
        parser = cli.build_parser()
        args = parser.parse_args(["clicks", "--fig", "2", "--trials", str(trials)])
        table = cli._run_clicks(args, parser).table
        counts, frequencies = table["count"], table["frequency"]
        assert (counts.dtype, frequencies.dtype) == (np.int64, np.float64)
        assert counts.max() > 2 ** 53 and sum(map(int, counts)) == trials
        # each frequency is the correctly rounded quotient of Python ints
        assert frequencies.tolist() == [int(c) / trials for c in counts]
        if trials != interferometer.MAX_TRIALS:
            # a float count rounds twice, which this trial count shows in some row
            assert frequencies.tolist() != [float(c) / trials for c in counts]

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        statistics=st.sampled_from(BOTH_STATISTICS),
        trials=st.integers(1, interferometer.MAX_TRIALS),
        sample_seed=st.integers(0, 2 ** 63),
    )
    def test_report_follows_the_distribution_and_its_sample(
        self, tmp_path_factory, seed, statistics, trials, sample_seed
    ):
        rng = np.random.default_rng(seed)
        net = random_network(rng, ("P", "Q", "R"), n_splitters=int(rng.integers(1, 7)))
        # detectors on a random nonempty subset of the terminals, so that some
        # patterns are empty or single
        watched = [p for p in net.monitored if rng.random() < 0.7] or [net.monitored[-1]]
        net = Network(net.splitters, net.inputs, tuple(watched))
        path = tmp_path_factory.mktemp("clicks") / "net.json"
        path.write_text(json.dumps(net.to_dict()))
        parser = cli.build_parser()
        args = parser.parse_args([
            "clicks", "--network", str(path), "--statistics", statistics.value,
            "--trials", str(trials), "--seed", str(sample_seed),
        ])
        report = cli._run_clicks(args, parser)
        state = opposite_spin_input(statistics, net)
        branches = detect(run_network(net, state), net.monitored)
        probabilities = _detect_pairs(net, state).probabilities
        rows = table_rows(report.table)
        assert report.table["pattern"] == [pattern_label(b.pattern) for b in branches]
        assert report.table["probability"].tolist() == probabilities.tolist()
        assert all(abs(p - b.probability) < 1e-12 for p, b in zip(probabilities, branches))
        counts = report.table["count"]
        assert counts.dtype == np.int64
        assert counts.tolist() == _draw_counts(probabilities, trials, sample_seed).tolist()
        pairs = [row for row, b in zip(rows, branches) if len(b.pattern) == 2]
        assert report.scalar("coincidence_probability") == sum(r["probability"] for r in pairs)
        coincident = sum(r["count"] for r in pairs)
        assert report.scalar("coincidence_frequency") == coincident / trials

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--trials", str(2 ** 63), "trials must be between 1 and"),
            ("--trials", "0", "trials must be between 1 and"),
            ("--seed", "-1", "seed must be nonnegative"),
        ],
    )
    def test_out_of_range_sampling_is_usage_error(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["clicks", "--fig", "1", f"{flag}={value}"])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("sources", ["--fig 1 --depth 2", "--trials 10"], ids=["two", "none"])
    def test_requires_exactly_one_source(self, capsys, sources):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["clicks", *sources.split()])
        assert excinfo.value.code == 2

    def test_monitored_path_named_like_a_pattern_is_usage_error(self, capsys, tmp_path):
        # else one pattern would print as "none" and a coincidence as "none+x+y"
        path = tmp_path / "ambiguous.json"
        path.write_text(json.dumps(
            {"splitters": [["A", "B", "none", "x+y"]], "inputs": ["A", "B"],
             "monitored": ["none", "x+y"]}
        ))
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["clicks", "--network", str(path)])
        assert excinfo.value.code == 2
        assert "pattern labels ambiguous" in capsys.readouterr().err

    def test_rejects_bad_network_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["clicks", "--network", str(path)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"inputs": "AB"},
            {"monitored": []},
            {"splitters": [["A", "A", "D", "C"]]},
            {"inputs": ["A", "B", "A"]},
            {"extra": 1},
        ],
        ids=["string-inputs", "empty-monitored", "duplicate-splitter-ports", "duplicate-inputs",
             "extra-key"],
    )
    def test_invalid_network_file_is_usage_error(self, capsys, tmp_path, change):
        data = fig2_network().to_dict()
        data.update(change)
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["clicks", "--network", str(path)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        # the last is not UTF-8
        "text", [b"[]", b"1", b"null", b"{}", b'{"splitters": []}', b"\xff\xfe"]
    )
    def test_network_file_without_a_network_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "invalid.json"
        path.write_bytes(text)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["clicks", "--network", str(path)])
        assert excinfo.value.code == 2
        assert "cannot load network file" in capsys.readouterr().err

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS, ids=lambda s: s.value)
    @pytest.mark.parametrize("source,net", CLICKS_NETWORKS, ids=[s for s, _ in CLICKS_NETWORKS])
    def test_exact_columns_match_sparse_engine(self, capsys, source, net, statistics):
        argv = ("clicks", *source.split(), "--statistics", statistics.value, "--format", "json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert exact_clicks_columns(out) == sparse_clicks_columns(net, statistics)
        assert run_cli(capsys, *argv)[1] == out

    def test_oversize_network_file_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(interferometer, "MAX_MONOMIALS", 64)
        path = tmp_path / "tree4.json"
        path.write_text(json.dumps(build_tree(4).to_dict()))
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["clicks", "--network", str(path)])
        assert excinfo.value.code == 2
        assert "monomials" in capsys.readouterr().err


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_succeeds(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_network.json").write_text(json.dumps(fig2_network().to_dict()))
    assert cli.main(shlex.split(command)[1:]) == 0


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    cli.build_parser().parse_args(shlex.split(command)[1:])


#: SHA-256 of ``twinbeam run <command> --statistics <s> --format json`` stdout,
#: recorded before the two-qubit metrics were batched (statistics-test and
#: feedback: before the library code that only tests called was deleted; the
#: grid-1001 sweeps, which span two 512-matrix metric chunks: before the sweeps
#: were stacked; complementarity: after its spin matrices were superposed from
#: two propagated basis pairs, which moved only the last bits of its two
#: max_*_deviation scalars; sampled feedback: after its trajectories came from
#: one multinomial draw, which changed only its sampled_* fields; boson
#: mixed-input: after its two zero coincidence probabilities became 0.0, not
#: the int 0, in a float column; complementarity and gaussian: after their
#: concurrence and CHSH values were read off amplitude blocks, which moved only
#: their max_*deviation scalars); any drift in a reported number or in the
#: canonical encoding changes them
PINNED_JSON_SHA256 = {
    ("tree --depth 4", "boson"):
        "6cc03df8bb5f830d742081d3d3195ea6c400b6e83cb4b61d202c0673201e0a00",
    ("tree --depth 4", "fermion"):
        "4c15110f4de11ab219a5257da8e30be722b2351bc99ea8cdbe619e2a7ba1b288",
    ("complementarity --grid 11", "boson"):
        "081cc3659b6eeda0f6b1d22b4698983596d1cdaa6db6d67f70f47c2862ea83d4",
    ("complementarity --grid 11", "fermion"):
        "c3b585ab8bd0f8ce31d0a72affc62acc9a8d0e2957b3ee49f53875dfb09bb0f6",
    ("gaussian --velocity 1 --width 1 --delay-max 2 --grid 11", "boson"):
        "1b4df395ee15b142708e46d0a555ee5f8e22cf0497e93ad36747dbae941d9b0e",
    ("gaussian --velocity 1 --width 1 --delay-max 2 --grid 11", "fermion"):
        "0d6dc9881cb78cdefb47a9db75946c07c546e8ceea6b336e774e15a553ce98bd",
    ("mixed-input", "boson"):
        "3498f7b37f1838623b3e7f198a60d197bde9288d14e4465a372351f129413ad6",
    ("mixed-input", "fermion"):
        "732cd45a91f7ee2ea94da3a465d3a882f48dbbc08e64766e9a87881ba3c56d29",
    ("dual", "boson"):
        "26f3f16b08fccdab049c84b7db21dc866ef0a076e146f4839016ad10561b24e7",
    ("dual", "fermion"):
        "6706974b4206b45238a7bafc34431f3402d5734dc1110738bc91b926d486b971",
    ("tree --depth 7", "boson"):
        "6b1370188eceed8cc9a1d6504ebcbae505be0d63e69b446c2dbf2a3a6a7878e8",
    ("tree --depth 7", "fermion"):
        "a4a311501ed87b3a83204182f5cfd8cc8803613704ec783985bd306cf00edd3c",
    ("fig1", "boson"):
        "72c2d9e54980cc53910fec3589ed4218430cc68033c799660a4cbc59dac42ab1",
    ("fig1", "fermion"):
        "ccf27c619f9040b03a19dfba0c206bad8cf8fb6613057b2f707cbfea34a9f106",
    ("fig2", "boson"):
        "24189a834913c313e7e6b2b09305f688b24e40d0e5949370e0714512b7309ca9",
    ("fig2", "fermion"):
        "7f816e42b0baf5ba59c20cd3c29e4fc2486df1b88a30075b8eab5cd0a76b1c94",
    ("statistics-test", "boson"):
        "e94faef6172cf0562e5dcb79d5201993c292965ef5e4ef5bf4e0a49b469e5a97",
    ("statistics-test", "fermion"):
        "4a1d0cc6839430d82f3141dff093f1aa2aed2fc956fc4d56075a92e0f833bd8e",
    ("feedback --depth 4 --trials 1000 --seed 7", "boson"):
        "48fb070f46b52bc71de3140921bcfd864d29ee019a334514a7b72076ae0a0466",
    ("feedback --depth 4 --trials 1000 --seed 7", "fermion"):
        "5d553b0d6cf2ed3d82cfdfcb306d19734ae86fda056ed99a754e1bc98c8e59ad",
    ("complementarity --grid 1001", "boson"):
        "c763baf7377979dd65b12497df4b66d02fd3ec66cc6218de9753c191e57ee139",
    ("complementarity --grid 1001", "fermion"):
        "a93e03447a6446184b3b9cd8541382b8ca4d299986b51b20836d23571e21f488",
    ("gaussian --grid 1001", "boson"):
        "df0419976afda1bee6964022f8b98a7b064295fb4d74e0573de95837d518d788",
    ("gaussian --grid 1001", "fermion"):
        "fe78f59867cbe0e1c9e5835074525c21368b2e942dda5c11d8e1f8f09957b2ed",
}


def test_json_output_is_pinned(capsys):
    digests = {}
    for command, statistics in PINNED_JSON_SHA256:
        argv = ["run", *command.split(), "--statistics", statistics, "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        digests[command, statistics] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == PINNED_JSON_SHA256


#: SHA-256 of ``twinbeam clicks <source> --statistics <s> --format json`` stdout
#: (default trials and seed unless given): fig 2 and depth 5 recorded before the
#: JSON writer streamed rows, depth 8 (the benchmark's clicks size, 32,896 rows in
#: 33 chunks of the writer) before numeric columns became arrays; the seeded
#: counts follow the probabilities bit for bit, so a different BLAS build may
#: move them
PINNED_CLICKS_JSON_SHA256 = {
    ("--fig 2", "boson"):
        "1e6da83af90c27c7928b1ed226cc543dfa2ec96a58108eeceada3d904ea6b5c9",
    ("--fig 2", "fermion"):
        "1f7570ac25074a60cba6e022e4f96a9bd5c4afdb63a6431b62caa5379e0bcc5f",
    ("--depth 5", "boson"):
        "2db49aa251319542386d0527d7f094942698f9b9157cc78adfe48b0654e61d45",
    ("--depth 5", "fermion"):
        "6ec2102215f3558fcda7651b63dc94b2e8ba98eb1b1976b929444e3a77ba1e8c",
    ("--depth 8 --trials 100000 --seed 28", "boson"):
        "fa8057007d5b8f1ba880871af215e400c45c2576c735a1383701900ed0bd5dfe",
    ("--depth 8 --trials 100000 --seed 28", "fermion"):
        "202b9d1cc3fca648f754f048b1631963bb22603e15d0ae5d7be419002bafdea8",
}


def test_clicks_json_output_is_pinned(capsys):
    digests = {}
    for source, statistics in PINNED_CLICKS_JSON_SHA256:
        argv = ["clicks", *source.split(), "--statistics", statistics, "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        digests[source, statistics] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == PINNED_CLICKS_JSON_SHA256


def shuffled_tree(depth: int, seed: int) -> dict:
    """Depth-``depth`` tree as a network dict, its paths renamed to shuffled numbers.

    The benchmark's recipe for its clicks network, with decimal names:
    string order ("10" before "9") differs from both numeric and tree order.
    """
    data = build_tree(depth).to_dict()
    names = sorted({p for quad in data["splitters"] for p in quad})
    numbers = [str(k) for k in range(len(names))]
    random.Random(seed).shuffle(numbers)
    rename = dict(zip(names, numbers))
    return {
        "splitters": [[rename[p] for p in quad] for quad in data["splitters"]],
        "inputs": [rename[p] for p in data["inputs"]],
        "monitored": [rename[p] for p in data["monitored"]],
    }


#: SHA-256 of ``twinbeam clicks --network <shuffled_tree(5, 3)> --statistics <s>
#: --format <f>`` stdout (default trials and seed), recorded before the clicks
#: report was built from the pair engine's index arrays
PINNED_SHUFFLED_CLICKS_SHA256 = {
    ("boson", "json"):
        "ebd25177c328ed6ebc6b8d7a1667a75b9d5d808911672705044ffe7c2909905d",
    ("fermion", "json"):
        "113d4e3ab4f1866ef48bde8e0893b7971e53e51f32917ac577e32eae3e5528ac",
    ("boson", "csv"):
        "c0e6f4750c713930954c516c3863ecd4fc6b6dd4a8edb31938d57584ca94c516",
    ("fermion", "csv"):
        "c0e6f4750c713930954c516c3863ecd4fc6b6dd4a8edb31938d57584ca94c516",
}


def test_shuffled_tree_clicks_output_is_pinned(capsys, tmp_path):
    path = tmp_path / "shuffled.json"
    path.write_text(json.dumps(shuffled_tree(5, 3)))
    digests = {}
    for statistics, fmt in PINNED_SHUFFLED_CLICKS_SHA256:
        argv = ["clicks", "--network", str(path), "--statistics", statistics, "--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        digests[statistics, fmt] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == PINNED_SHUFFLED_CLICKS_SHA256


#: SHA-256 of ``twinbeam <command> --statistics <s> --format <f>`` stdout for
#: the CSV and table renderers, recorded before the pair engine's pattern
#: functions were merged into one (complementarity tables: after its spin
#: matrices were superposed, which moved the last bits of max_total_deviation;
#: fig1, feedback, statistics-test, mixed-input, gaussian and dual: recorded
#: before the renderers dropped the value types that no scenario emits; the CSV
#: of statistics-test, fermion mixed-input and dual: after cells holding a
#: comma were quoted; complementarity and gaussian tables: after their metrics
#: were read off amplitude blocks, which moved only their deviation scalars)
PINNED_TEXT_SHA256 = {
    ("run fig2", "boson", "csv"):
        "9ecd84aae2e2079fd6413ba3ddef36bbffdf573ea0b064a622ed55d60de397cd",
    ("run fig2", "fermion", "csv"):
        "4ff0d74208011ac38c7370817105ccbf9bc12f15f5c655e42c616148d192ae2f",
    ("run fig2", "boson", "table"):
        "afec71fc3db609515612d9bdf993386d807d4613a487d88365c048877a3640de",
    ("run fig2", "fermion", "table"):
        "879112989c18dd1df900cfbc98e319afb2f3154de6330282a0d071d57369576f",
    ("run tree --depth 4", "boson", "csv"):
        "609197cfcdafe164ba186dcc086b96a69c30fdc809a3e8d7786ee6381c6b7021",
    ("run tree --depth 4", "fermion", "csv"):
        "791b1a63b02e63200e50cfe4107f2de877529550ae20e45e9e3ac0d228a684a3",
    ("run tree --depth 4", "boson", "table"):
        "25aade98bae2f276a6f8c470e1b114eb16dbf4aae179d5663c6b1c51edd33d17",
    ("run tree --depth 4", "fermion", "table"):
        "07834946d7b8cddc25c809ee513af2f8156c718f613110a7d005958c8ec42776",
    ("run complementarity --grid 11", "boson", "csv"):
        "f2bf64134f0fb55d34e3c7ce95879d62669b21413742e92ef5bf341dae43f4a4",
    ("run complementarity --grid 11", "fermion", "csv"):
        "f2bf64134f0fb55d34e3c7ce95879d62669b21413742e92ef5bf341dae43f4a4",
    ("run complementarity --grid 11", "boson", "table"):
        "91831a81ab2bfe219eb2513ea68ffd78d2ff3637bb884e3f39c613e62d897257",
    ("run complementarity --grid 11", "fermion", "table"):
        "b4c9b7aecc9815c78c6a70e224d2c24f698c4bc81d9974257b5fe11bf71e7384",
    ("clicks --fig 2", "boson", "csv"):
        "2d1b36bb88a4f7d3fed4798d5174876b0c1c18ecbeaa38996f076b747605678e",
    ("clicks --fig 2", "fermion", "csv"):
        "2d1b36bb88a4f7d3fed4798d5174876b0c1c18ecbeaa38996f076b747605678e",
    ("clicks --fig 2", "boson", "table"):
        "a9faa00861645415dd9fc47e2371a75c776c1474231b045d3fe78b6b5ce8f4bb",
    ("clicks --fig 2", "fermion", "table"):
        "b45cf516980d5e3ed04d91df5a915b9acdd711a72befc30eb561889fb97bab20",
    ("run fig1", "boson", "csv"):
        "90f6f18eb71c598d82ed0c5ceff8c30706b37fd0c3a28d5e9b14d58f79595848",
    ("run fig1", "fermion", "csv"):
        "d8dcfb6704dad11aa504aa73152724032c7265d3570f88bb3d9f860fea15bbff",
    ("run fig1", "boson", "table"):
        "b9ab869e2e416fbdae433743d0f4d63d549489aa5f35201b1636d65f64a5afe7",
    ("run fig1", "fermion", "table"):
        "7c5e8dcbe806e79b83917e3f9ddac1fb5dfe0449b249ce918ff4d1aac91acde2",
    ("run feedback", "boson", "csv"):
        "b195f10fc1c33c01dd68b9f43283a75daea9f93944aab89d39d747d7af85cd59",
    ("run feedback", "fermion", "csv"):
        "a132d08af825865371c3c37234eed0978c70ba9b539e34112bcbcce8e40c1ad0",
    ("run feedback", "boson", "table"):
        "4000c8677729057afe6c60c9c4fdd95c88a38aea8fcfefbb86f41497f3c7e379",
    ("run feedback", "fermion", "table"):
        "c8224c3ed35c8cb3da0d400ae5e5719f8dab83d5f6d8111804f81cf4043cc0f5",
    ("run statistics-test", "boson", "csv"):
        "b66391c528713886f7048b26bbc7e13386f965cff9d0bd2080325f8d18302582",
    ("run statistics-test", "fermion", "csv"):
        "e927cb957e7fc97e151f85e1b043925e0b6ee8ecad6f17438334a3579edd8e8b",
    ("run statistics-test", "boson", "table"):
        "f09a0c44cb7712e2fd2baea46bcfdbf1bf5c0b7c030e8b374e3cb6a2edaa34a9",
    ("run statistics-test", "fermion", "table"):
        "cb17348c149e5d7102e7dcd3d75b58354d6bc5c4461dda58c06888f25c38f18a",
    ("run mixed-input", "boson", "csv"):
        "c8e2832bb6c5e2db7268896deeb38c41d07b4873af070019c5c524562422e829",
    ("run mixed-input", "fermion", "csv"):
        "6ea98eb52a21a3d6000b144f551a6804f416a79610abc3546aca8321eed022d9",
    ("run mixed-input", "boson", "table"):
        "a6f7ed9d8030689b4a8963bc64a4bc17491d9e4e5d2bed1ab8a8967e0f7427f9",
    ("run mixed-input", "fermion", "table"):
        "d654944e94397b1d26f59aaea10f668ef0b6ba07d3d563206486985f99389643",
    ("run gaussian", "boson", "csv"):
        "4963439d887eb5b033098678d1a5087e4f0fd545db232aaebe06dc4d83fe34a7",
    ("run gaussian", "fermion", "csv"):
        "4963439d887eb5b033098678d1a5087e4f0fd545db232aaebe06dc4d83fe34a7",
    ("run gaussian", "boson", "table"):
        "395bbf9b843950c105cd2bcfe9d6c57b2106be47f882e53a3ad78d060efa0417",
    ("run gaussian", "fermion", "table"):
        "dad5ee1ef350913dde4644d40cdb5fbb6b24ba99efb0d10a1418eccbecf7964d",
    ("run dual", "boson", "csv"):
        "dab1a183e5b4132ecf40599480eca431b6c81d133f9f03d1ad704257dc0f7942",
    ("run dual", "fermion", "csv"):
        "dab1a183e5b4132ecf40599480eca431b6c81d133f9f03d1ad704257dc0f7942",
    ("run dual", "boson", "table"):
        "ef23540414036c483c5e7f9799a3da42537b4183ecb6417cd9b30395112905b2",
    ("run dual", "fermion", "table"):
        "09e9d48c6ef1334f5149a690b6225734f71edcfa089d571a34dfa04a2ea8f32c",
}


def test_csv_and_table_output_is_pinned(capsys):
    digests = {}
    for command, statistics, fmt in PINNED_TEXT_SHA256:
        argv = [*command.split(), "--statistics", statistics, "--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        digests[command, statistics, fmt] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == PINNED_TEXT_SHA256
