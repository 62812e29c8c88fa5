"""Workload inputs made from a seed, and the checks every output must pass.

Each workload is a list of CLI invocations (argv plus a check).  The
seed changes only path names, sampling seeds and Gaussian parameters,
never the amount of work, and every pass runs both statistics.

- ``tree7``: the paper's headline depth-7 tree (yield 127/128).  Its
  time goes to the per-branch two-qubit metrics of 8,128 coincidences.
- ``clicks8``: a depth-8 tree read from a network file with seeded path
  names, sampled with ``clicks``.  Propagation and detection of 65,536
  monomials dominate; the metrics layer is never called, so it is the
  control for metrics changes.
- ``sweeps``: 1001-point complementarity and Gaussian sweeps plus every
  other scenario once.  About 3,000 pipelines on 2-4 monomial states,
  so fixed per-call cost dominates.

Importing this module does not import twinbeam; :func:`build` does, so
that a fresh-interpreter set-up measurement covers the import.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

STATISTICS = ("fermion", "boson")

CLICKS_DEPTH = 8
CLICKS_TRIALS = 100_000
GRID = 1001
FEEDBACK_DEPTH = 10
FEEDBACK_TRIALS = 100_000
TOL = 1e-9


class CheckError(Exception):
    """An output failed a correctness check."""


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    statistics: str
    check: Callable[[dict, "Invocation"], None]

    @property
    def kind(self) -> str:
        return self.argv[1] if self.argv[0] == "run" else self.argv[0]

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _scalar(report: dict, name: str):
    return report["scalars"][name]["value"]


def _close(value: float, target: float, what: str, tol: float = TOL) -> None:
    _expect(abs(value - target) <= tol, f"{what} = {value!r}, expected {target!r}")


def _argv(*parts, statistics: str) -> tuple[str, ...]:
    return (*map(str, parts), "--statistics", statistics, "--format", "json")


# -- tree7 -------------------------------------------------------------------


def _check_tree(report: dict, inv: Invocation) -> None:
    depth = int(inv.option("--depth"))
    leaves = 2 ** depth
    _close(_scalar(report, "entangled_yield"), 1.0 - 2.0 ** -depth, "entangled_yield", 1e-12)
    pairs = [row for row in report["table"] if row["detectors"] == 2]
    _expect(len(pairs) == leaves * (leaves - 1) // 2, f"{len(pairs)} coincidence rows")
    for row in pairs:
        _close(row["concurrence"], 1.0, f"concurrence of {row['pattern']}")
        _expect(row["bell_state"] in ("psi_plus", "psi_minus"), f"label {row['bell_state']!r}")


def _tree7(seed: int, workdir: Path) -> list[Invocation]:
    # the tree scenario takes no names or sampling seed, so the seed changes nothing
    return [
        Invocation(_argv("run", "tree", "--depth", 7, statistics=s), s, _check_tree)
        for s in STATISTICS
    ]


# -- clicks8 -----------------------------------------------------------------


def _permuted_tree(depth: int, rng: random.Random) -> dict:
    """Depth-``depth`` tree as a network dict, its path names shuffled."""
    from twinbeam.interferometer import build_tree

    data = build_tree(depth).to_dict()
    names = sorted({p for quad in data["splitters"] for p in quad})
    shuffled = names[:]
    rng.shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    return {
        "splitters": [[rename[p] for p in quad] for quad in data["splitters"]],
        "inputs": [rename[p] for p in data["inputs"]],
        "monitored": [rename[p] for p in data["monitored"]],
    }


def _check_clicks(report: dict, inv: Invocation) -> None:
    leaves = 2 ** CLICKS_DEPTH
    _close(_scalar(report, "coincidence_probability"), 1.0 - 1.0 / leaves,
           "coincidence_probability", 1e-12)
    rows = report["table"]
    _expect(len(rows) == leaves * (leaves + 1) // 2, f"{len(rows)} patterns")
    total = sum(row["count"] for row in rows)
    _expect(total == CLICKS_TRIALS, f"counts sum to {total}, not {CLICKS_TRIALS}")
    _close(sum(row["probability"] for row in rows), 1.0, "probability sum")


def _clicks8(seed: int, workdir: Path) -> list[Invocation]:
    rng = random.Random(seed)
    network = workdir / "network.json"
    network.write_text(json.dumps(_permuted_tree(CLICKS_DEPTH, rng)))
    return [
        Invocation(
            _argv("clicks", "--network", network, "--trials", CLICKS_TRIALS,
                  "--seed", rng.randrange(2 ** 31), statistics=s),
            s,
            _check_clicks,
        )
        for s in STATISTICS
    ]


# -- sweeps ------------------------------------------------------------------


def _oracle_probabilities(net, statistics: str) -> dict[frozenset, float]:
    """Pattern distribution of the opposite-spin pair from the dense oracle."""
    from twinbeam.fock import Mode, Spin, Statistics
    from twinbeam.oracle import oracle_detect, oracle_evolve, pair_state, splitter_unitary

    paths = set(net.inputs)
    for bs in net.splitters:
        paths.update((bs.in1, bs.in2, bs.out1, bs.out2))
    labels = tuple(sorted(Mode(p, s) for p in paths for s in Spin))
    a, b = net.inputs[:2]
    fq = pair_state(Statistics.from_name(statistics), labels, Mode(a, Spin.UP), Mode(b, Spin.DOWN))
    for bs in net.splitters:
        fq = oracle_evolve(fq, splitter_unitary(labels, bs.in1, bs.in2, bs.out1, bs.out2))
    return oracle_detect(fq, net.monitored)[0]


def _oracle_check(make_network: Callable, coincidence: float) -> Callable:
    def check(report: dict, inv: Invocation) -> None:
        _close(_scalar(report, "coincidence_probability"), coincidence, "coincidence_probability")
        expected = _oracle_probabilities(make_network(), inv.statistics)
        got = {
            frozenset() if row["pattern"] == "none" else frozenset(row["pattern"].split("+")):
            row["probability"]
            for row in report["table"]
        }
        _expect(set(got) == set(expected), "patterns differ from the oracle's")
        for pattern, p in got.items():
            _close(p, expected[pattern], f"probability of {sorted(pattern)} against the oracle")

    return check


def _check_complementarity(report: dict, inv: Invocation) -> None:
    _expect(len(report["table"]) == GRID, f"{len(report['table'])} grid points")
    for name in ("max_total_deviation", "max_chsh_deviation"):
        _expect(_scalar(report, name) < TOL, f"{name} = {_scalar(report, name)!r}")


def _check_gaussian(report: dict, inv: Invocation) -> None:
    _expect(len(report["table"]) == GRID, f"{len(report['table'])} grid points")
    _expect(_scalar(report, "max_deviation") < TOL, f"max_deviation = {_scalar(report, 'max_deviation')!r}")
    for flag, key in (("--velocity", "velocity"), ("--width", "width"), ("--delay-max", "delay_max")):
        _close(report["parameters"][key], float(inv.option(flag)), key, 1e-12)


def _check_statistics_test(report: dict, inv: Invocation) -> None:
    _expect(_scalar(report, "verdict") == inv.statistics, f"verdict {_scalar(report, 'verdict')!r}")


def _check_mixed_input(report: dict, inv: Invocation) -> None:
    expected = 1.0 if inv.statistics == "boson" else 0.0
    _close(_scalar(report, "concurrence"), expected, "mixed-input concurrence")


def _check_dual(report: dict, inv: Invocation) -> None:
    _close(_scalar(report, "spin_concurrence"), 1.0, "spin_concurrence")
    _expect(_scalar(report, "difference") < TOL, f"difference = {_scalar(report, 'difference')!r}")


def _check_feedback(report: dict, inv: Invocation) -> None:
    _close(_scalar(report, "cumulative_failure"), 2.0 ** -FEEDBACK_DEPTH, "cumulative_failure", 1e-15)
    sampled = sum(row["sampled_successes"] for row in report["table"])
    _expect(sampled <= FEEDBACK_TRIALS, f"{sampled} sampled successes")


def _sweeps(seed: int, workdir: Path) -> list[Invocation]:
    from twinbeam.interferometer import fig1_network, fig2_network

    rng = random.Random(seed)
    velocity = round(rng.uniform(0.5, 2.0), 6)
    width = round(rng.uniform(0.5, 2.0), 6)
    delay_max = round(rng.uniform(1.0, 5.0), 6)
    invocations = []
    for s in STATISTICS:
        invocations += [
            Invocation(_argv("run", "complementarity", "--grid", GRID, statistics=s), s,
                       _check_complementarity),
            Invocation(
                _argv("run", "gaussian", "--velocity", repr(velocity), "--width", repr(width),
                      "--delay-max", repr(delay_max), "--grid", GRID, statistics=s),
                s,
                _check_gaussian,
            ),
            Invocation(_argv("run", "fig1", statistics=s), s, _oracle_check(fig1_network, 0.5)),
            Invocation(_argv("run", "fig2", statistics=s), s, _oracle_check(fig2_network, 0.75)),
            Invocation(_argv("run", "statistics-test", statistics=s), s, _check_statistics_test),
            Invocation(_argv("run", "mixed-input", statistics=s), s, _check_mixed_input),
            Invocation(_argv("run", "dual", statistics=s), s, _check_dual),
            Invocation(
                _argv("run", "feedback", "--depth", FEEDBACK_DEPTH, "--trials", FEEDBACK_TRIALS,
                      "--seed", rng.randrange(2 ** 31), statistics=s),
                s,
                _check_feedback,
            ),
        ]
    return invocations


_BUILDERS = {"tree7": _tree7, "clicks8": _clicks8, "sweeps": _sweeps}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, workdir: Path) -> list[Invocation]:
    """The workload's invocations for ``seed``; input files go to ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](seed, workdir)


def canonical(report: dict) -> str:
    """Canonical JSON as the CLI documents it: sorted keys, two-space indent."""
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def check_output(inv: Invocation, text: str) -> None:
    """Raise :class:`CheckError` unless ``text`` is a correct report for ``inv``."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    _expect(canonical(report) == text, "JSON parse and re-serialise changes the bytes")
    try:
        _expect(report["statistics"] == inv.statistics, f"statistics {report['statistics']!r}")
        inv.check(report, inv)
    except (KeyError, TypeError, IndexError) as exc:
        raise CheckError(f"report lacks an expected field: {exc!r}") from None
