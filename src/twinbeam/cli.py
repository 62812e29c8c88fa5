"""Command-line front end: scenario runs, the catalog, and click sampling.

Exit codes: 0 success; 2 a usage error, a parameter out of range (a
plain ``ValueError``), an invalid or oversize network
(``NetworkError``) or an ``--output`` file that cannot be written; 3 any
other error of the package (a ``TwinbeamError``, for example an
``OccupancyError`` raised inside a scenario); 141 (128 + SIGPIPE) the
reader closed the output pipe before the report was written, as a
shell reports a writer killed by a closed pipe.  Identical arguments
and seed produce byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .errors import NetworkError, TwinbeamError
from .fock import Statistics
from .interferometer import (
    Network,
    _detect_pairs,
    _draw_counts,
    build_tree,
    fig1_network,
    fig2_network,
    opposite_spin_input,
)
from .reporting import SAMPLED, Scalar, ScenarioReport, canonical_json
from .scenarios import DEFAULT_SEED, SCENARIOS, list_scenarios

_FORMATS = ("table", "json", "csv")


def _emit(report: ScenarioReport, fmt: str, output: Path | None) -> None:
    with nullcontext(sys.stdout) if output is None else output.open("w") as stream:
        if fmt == "json":
            report.write_json(stream)
        else:
            stream.write(report.to_csv() if fmt == "csv" else report.to_table())
        # a reader that closed the pipe shows here, not in the interpreter's flush at exit
        stream.flush()


def _clicks_network(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Network:
    if args.network is not None:
        try:
            data = json.loads(Path(args.network).read_text())
            return Network.from_dict(data)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, NetworkError) as exc:
            parser.error(f"cannot load network file {args.network!r}: {exc}")
    if args.depth is not None:
        return build_tree(args.depth)
    return fig1_network() if args.fig == 1 else fig2_network()


def _run_clicks(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ScenarioReport:
    net = _clicks_network(args, parser)
    if len(net.inputs) < 2:
        parser.error("the network needs two input paths for the opposite-spin pair")
    statistics = Statistics.from_name(args.statistics)
    kept = _detect_pairs(net, opposite_spin_input(statistics, net))
    trials, probabilities, first = args.trials, kept.probabilities, kept.first
    counts = _draw_counts(probabilities, trials, args.seed)
    # one correctly rounded division of Python ints per distinct count: a float64
    # count would round twice above 2^53
    distinct, inverse = np.unique(counts, return_inverse=True)
    frequencies = np.array([count / trials for count in distinct.tolist()])[inverse]
    # the coincidences are the last patterns, their probabilities summed in order
    coincidence_count = int(counts[first:].sum())
    coincidence_probability = sum(probabilities[first:].tolist(), 0.0)
    return ScenarioReport(
        scenario="clicks",
        statistics=statistics.value,
        parameters={"trials": trials, "seed": args.seed},
        scalars={
            "trials": Scalar(trials),
            "coincidence_frequency": Scalar(coincidence_count / trials, SAMPLED),
            "coincidence_probability": Scalar(coincidence_probability),
        },
        table={
            "pattern": kept.labels(),
            "count": counts,
            "frequency": frequencies,
            "probability": probabilities,
        },
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinbeam",
        description="Two identical particles through beam-splitter networks with "
        "which-way detectors: post-selected entanglement, statistics tests, and "
        "complementarity sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="show the scenario catalog")
    list_p.add_argument("--format", choices=("table", "json"), default="table")

    # the report options of every scenario and of clicks
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--statistics", choices=("boson", "fermion"), default="fermion",
                        help="particle statistics (default fermion)")
    common.add_argument("--format", choices=_FORMATS, default="table")
    common.add_argument("--output", type=Path, help="write to file instead of stdout")

    run_p = sub.add_parser("run", help="run one scenario and emit its report")
    scenario_sub = run_p.add_subparsers(
        dest="scenario", required=True, help="scenario name (see 'twinbeam list')"
    )
    for entry in SCENARIOS.values():
        scenario_p = scenario_sub.add_parser(entry.name, parents=[common])
        for param in entry.params:
            scenario_p.add_argument(
                "--" + param.name.replace("_", "-"), dest=param.name, type=param.type,
                default=param.default, help=param.help,
            )

    clicks_p = sub.add_parser("clicks", parents=[common], help="sample detector clicks from a network")
    source = clicks_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--network", help="network description JSON file")
    source.add_argument("--depth", type=int, help="use a splitting tree of this depth")
    source.add_argument("--fig", type=int, choices=(1, 2), help="use a built-in network")
    clicks_p.add_argument("--trials", type=int, default=10000)
    clicks_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        rows = [
            {"name": info.name, "parameters": " ".join(info.parameters), "claim": info.claim}
            for info in list_scenarios()
        ]
        if args.format == "json":
            sys.stdout.write(canonical_json(rows))
        else:
            width = max(len(r["name"]) for r in rows)
            pwidth = max(len(r["parameters"]) for r in rows)
            for r in rows:
                sys.stdout.write(
                    f"{r['name']:<{width}}  {r['parameters']:<{pwidth}}  {r['claim']}\n"
                )
        return 0
    try:
        if args.command == "run":
            entry = SCENARIOS[args.scenario]
            params = {p.name: getattr(args, p.name) for p in entry.params}
            report = entry.run(statistics=Statistics.from_name(args.statistics), **params)
        else:
            report = _run_clicks(args, parser)
    except NetworkError as exc:
        parser.error(str(exc))
    except TwinbeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.error(str(exc))
    try:
        _emit(report, args.format, args.output)
    except BrokenPipeError:
        if args.output is None:
            # the interpreter flushes stdout at exit: let that write go nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 141
    except OSError as exc:
        if args.output is None:
            raise
        parser.error(f"cannot write output file {str(args.output)!r}: {exc.strerror}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
