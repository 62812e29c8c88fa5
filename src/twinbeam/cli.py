"""Command-line front end: scenario runs, the catalog, and click sampling.

Exit codes: 0 success; 2 a usage error, a parameter out of range (a
plain ``ValueError``) or an invalid or oversize network
(``NetworkError``); 3 any other error of the package (a
``TwinbeamError``, for example an impossible post-selection or an
``OccupancyError`` raised inside a scenario).  Identical arguments and
seed produce byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from .errors import NetworkError, TwinbeamError
from .fock import Statistics
from .interferometer import (
    Network,
    coincidence,
    fig1_network,
    fig2_network,
    opposite_spin_input,
    pattern_distribution,
    pattern_label,
    sample_clicks,
)
from .reporting import SAMPLED, Scalar, ScenarioReport, canonical_json
from .scenarios import (
    DEFAULT_SEED,
    SCENARIOS,
    Param,
    Scenario,
    list_scenarios,
    tree_network,
)

_FORMATS = ("table", "json", "csv")


def _run_flags() -> dict[str, Param]:
    """Every scenario parameter once, in registry order; its first declaration gives the help."""
    flags: dict[str, Param] = {}
    for entry in SCENARIOS.values():
        for param in entry.params:
            flags.setdefault(param.name, param)
    return flags


def _scenario_call(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[Scenario, dict[str, Any]]:
    entry = SCENARIOS.get(args.scenario)
    if entry is None:
        parser.error(
            f"unknown scenario {args.scenario!r}; run 'twinbeam list' for the catalog"
        )
    params = {p.name: p.default for p in entry.params}
    for name in _run_flags():
        value = getattr(args, name)
        if value is None:
            continue
        if name not in params:
            flag = "--" + name.replace("_", "-")
            parser.error(f"scenario {args.scenario!r} does not take {flag}")
        params[name] = value
    return entry, params


def _emit(report: ScenarioReport, fmt: str, output: Path | None) -> None:
    with nullcontext(sys.stdout) if output is None else output.open("w") as stream:
        if fmt == "json":
            report.write_json(stream)
        else:
            stream.write(report.to_csv() if fmt == "csv" else report.to_table())


def _clicks_network(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Network:
    sources = [args.network is not None, args.depth is not None, args.fig is not None]
    if sum(sources) != 1:
        parser.error("choose exactly one of --network, --depth, --fig")
    if args.network is not None:
        try:
            data = json.loads(Path(args.network).read_text())
            return Network.from_dict(data)
        except (OSError, json.JSONDecodeError, NetworkError) as exc:
            parser.error(f"cannot load network file {args.network!r}: {exc}")
    if args.depth is not None:
        return tree_network(args.depth)
    return fig1_network() if args.fig == 1 else fig2_network()


def _run_clicks(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ScenarioReport:
    net = _clicks_network(args, parser)
    if len(net.inputs) < 2:
        parser.error("the network needs two input paths for the opposite-spin pair")
    statistics = Statistics.from_name(args.statistics)
    exact = pattern_distribution(net, opposite_spin_input(statistics, net))
    histogram = sample_clicks(exact, args.trials, args.seed)
    rows = []
    for pattern, probability in exact.items():
        count = histogram.get(pattern, 0)
        rows.append(
            {
                "pattern": pattern_label(pattern),
                "count": count,
                "frequency": count / args.trials,
                "probability": probability,
            }
        )
    coincidence_count = sum(histogram.get(p, 0) for p in histogram if coincidence(p))
    return ScenarioReport(
        scenario="clicks",
        statistics=statistics.value,
        parameters={"trials": args.trials, "seed": args.seed},
        scalars={
            "trials": Scalar(args.trials),
            "coincidence_frequency": Scalar(coincidence_count / args.trials, SAMPLED),
            "coincidence_probability": Scalar(
                sum(p for pat, p in exact.items() if coincidence(pat))
            ),
        },
        table=rows,
    )


def _catalog_report() -> list[dict[str, str]]:
    rows = [
        {"name": info.name, "parameters": " ".join(info.parameters), "claim": info.claim}
        for info in list_scenarios()
    ]
    return rows


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

    run_p = sub.add_parser("run", help="run one scenario and emit its report")
    run_p.add_argument("scenario", help="scenario name (see 'twinbeam list')")
    run_p.add_argument(
        "--statistics", choices=("boson", "fermion"), default="fermion",
        help="particle statistics (default fermion)",
    )
    for name, param in _run_flags().items():
        run_p.add_argument(
            "--" + name.replace("_", "-"), dest=name, type=param.type, default=None,
            help=param.help,
        )
    run_p.add_argument("--format", choices=_FORMATS, default="table")
    run_p.add_argument("--output", type=Path, default=None, help="write to file instead of stdout")

    clicks_p = sub.add_parser("clicks", help="sample detector clicks from a network")
    clicks_p.add_argument("--network", default=None, help="network description JSON file")
    clicks_p.add_argument("--depth", type=int, default=None, help="use a splitting tree of this depth")
    clicks_p.add_argument("--fig", type=int, choices=(1, 2), default=None, help="use a built-in network")
    clicks_p.add_argument("--statistics", choices=("boson", "fermion"), default="fermion")
    clicks_p.add_argument("--trials", type=int, default=10000)
    clicks_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    clicks_p.add_argument("--format", choices=_FORMATS, default="table")
    clicks_p.add_argument("--output", type=Path, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        rows = _catalog_report()
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
            entry, params = _scenario_call(args, parser)
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
    _emit(report, args.format, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
