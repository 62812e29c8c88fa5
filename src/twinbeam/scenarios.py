"""End-to-end experiments packaged as named, parameterized scenarios.

Each scenario builds its network, propagates the input, post-selects,
and reports yields, correlations, concurrences and CHSH values in a
:class:`~twinbeam.reporting.ScenarioReport`.  All numbers are exact
(computed from amplitudes) unless flagged as sampled.
"""

from __future__ import annotations

import math
from itertools import accumulate, product
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NetworkError
from .fock import Mode, Spin, Statistics, make_product_state, ordered_sum
from .interferometer import (
    MAX_TRIALS,
    Network,
    _check_range,
    _KeptPatterns,
    _detect_pairs,
    _draw_counts,
    build_tree,
    feedback_run,
    fig1_network,
    fig2_network,
    heralded_pair,
    opposite_spin_input,
)
from .metrics import (
    bell_index,
    chsh_values,
    concurrences,
    density_matrices,
    distinguishability,
    dual_relabel,
    gaussian_overlap,
    reduce_to_spin_dm,
    spin_blocks,
    tagged_opposite_spin_input,
    validate_dms,
)
from .reporting import SAMPLED, Coded, Column, Scalar, ScenarioReport, _distinct

#: documented default seed for every sampled quantity
DEFAULT_SEED = 1905

#: rotation |up> -> (|up>+|down>)/sqrt2, |down> -> (|up>-|down>)/sqrt2
SPIN_MIXER = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

#: the two-qubit spin basis |s1 s2>, in the row order 2 s1 + s2 of a spin matrix
SPIN_PAIRS = ("up,up", "up,down", "down,up", "down,down")

#: correlation magnitudes below this are reported as inconclusive
VERDICT_DEAD_ZONE = 0.1

#: most points a complementarity or gaussian sweep takes: a report of that many
#: points holds about 15 MiB of table columns
MAX_GRID = 100_000

#: coincidence spin-tag blocks built and evaluated at once in a sweep: the same bytes as
#: one stack of every point, at a lower peak (complementarity at grid 1001: tracemalloc
#: 0.50 MiB against 0.79, median 0.86 ms against 0.89, 2-core VM, NumPy 2.4.6)
METRICS_CHUNK = 512

#: the ``bell_state`` values of a report, by :func:`bell_index`; "" marks no coincidence
_BELL_STATES = ["other", "psi_plus", "psi_minus", ""]


def _sweep(start: float, stop: float, grid: int) -> np.ndarray:
    """The ``grid`` evenly spaced points of a complementarity or gaussian sweep."""
    _check_range("grid", grid, 2, MAX_GRID)
    return np.linspace(start, stop, grid)


def _correction_phases(v: np.ndarray, names: Sequence[str], codes: np.ndarray) -> np.ndarray:
    """Down-spin phase on the lower path that turns each coincidence into psi+.

    ``v`` holds the normalized untagged amplitudes, shape ``(n, 4)``, of
    the coincidences of the paths ``names[lo] < names[hi]``, ``(lo, hi)``
    being the rows of ``codes``.  Each must be a local-phase image of psi+:
    ``|v1|`` and ``|v2|`` within 1e-9 of 1/sqrt(2), ``|v0|`` and ``|v3|``
    within 1e-9 of 0, so that a NaN or infinite amplitude fails too;
    :class:`NetworkError` names the first that is not.  The phase is
    ``v1 / v2`` (|up down> over |down up>) on the unit circle, snapped to
    +-1 within 1e-12 of the real axis; 1 means no correction.
    """
    half = 1 / math.sqrt(2)
    uu, ud, du, dd = np.abs(v[:, 0]), np.abs(v[:, 1]), np.abs(v[:, 2]), np.abs(v[:, 3])
    # each block's largest deviation, NaN where an amplitude is NaN: np.maximum keeps it
    close = np.maximum(np.maximum(uu, dd), np.maximum(np.abs(ud - half), np.abs(du - half))) <= 1e-9
    if not close.all():
        paths = [names[c] for c in codes[close.argmin()].tolist()]
        raise NetworkError(f"branch {paths} is not a local-phase image of psi+")
    delta = v[:, 1] / v[:, 2]
    delta /= np.abs(delta)
    return np.where(np.abs(delta.imag) < 1e-12, np.where(delta.real > 0, 1.0, -1.0), delta)


def _pattern_column(kept: _KeptPatterns) -> Coded:
    """The ``pattern`` column of the kept patterns: firing paths joined by ``+``, or ``none``.

    A pattern's second code, -1 or a path, names ``""`` or ``"+"`` and that path.
    """
    names = kept.names
    return Coded([*names, "none", "", *("+" + p for p in names)], kept.codes + [0, len(names) + 2])


def _branch_table(net: Network, statistics: Statistics) -> tuple[float, dict[str, Column]]:
    """Coincidence probability and branch table of the opposite-spin pair after ``net``.

    One row per detector pattern, in :func:`detect`'s order.  The
    coincidences come last, with their normalized spin-tag blocks
    (``interferometer._detect_pairs``).  The input is untagged, so each
    block is one tag column with no uu or dd row, a pure X state:
    :func:`concurrences` takes its X-state form, :func:`bell_index` labels
    it, and :func:`_correction_phases` checks it.  No spin matrix is
    built.  The numeric columns are arrays and the others coded, so that
    no cell is built as a string.
    """
    kept = _detect_pairs(net, opposite_spin_input(statistics, net), coincidences=True)
    probabilities, first, names, blocks = kept.probabilities, kept.first, kept.names, kept.blocks
    pairs = kept.codes[first:]
    phases = _correction_phases(blocks[:, :, 0], names, pairs)
    # the phases other than 1, a tree's all -1; an imaginary part is either a snapped
    # -1's +0.0 or at least 1e-12 in magnitude, so equal phases are one value
    other = np.flatnonzero(phases != 1.0)
    distinct, phase = _distinct(phases[other])
    turns = [f"down-phase {math.atan2(p.imag, p.real) / math.pi:.6g}pi" for p in distinct.tolist()]
    # correction codes: 0 no coincidence, 1 identity, 2 + lower path x distinct phase
    correction = np.zeros(len(probabilities), dtype=np.int64)
    correction[first:] = 1
    correction[first + other] = 2 + pairs[other, 0] * len(turns) + phase
    bell = np.full(len(probabilities), 3)
    bell[first:] = bell_index(blocks)
    detectors = [kept.empty, first - kept.empty, len(blocks)]
    table = {
        "pattern": _pattern_column(kept),
        "detectors": Coded(np.arange(3), np.repeat(np.arange(3), detectors)),
        "probability": probabilities,
        "concurrence": np.concatenate([np.zeros(first), concurrences(blocks)]),
        "bell_state": Coded(_BELL_STATES, bell),
        "correction": Coded(["", "identity"] + [f"{p}:{t}" for p in names for t in turns],
                            correction),
    }
    return kept.coincidence_probability, table


def scenario_fig1(statistics: Statistics) -> ScenarioReport:
    """Single splitter on an opposite-spin pair: heralded Bell-pair source."""
    total, table = _branch_table(fig1_network(), statistics)
    bell = table["bell_state"]
    return ScenarioReport(
        scenario="fig1",
        statistics=statistics.value,
        parameters={},
        scalars={
            "coincidence_probability": Scalar(total),
            "bell_state": Scalar(bell.values[bell.codes[-1]]),
            "concurrence": Scalar(float(table["concurrence"][-1])),
        },
        table=table,
    )


def scenario_fig2(statistics: Statistics) -> ScenarioReport:
    """Three splitters, four detectors: coincidences in 3/4 of the cases."""
    total, table = _branch_table(fig2_network(), statistics)
    return ScenarioReport(
        scenario="fig2",
        statistics=statistics.value,
        parameters={},
        scalars={
            "coincidence_probability": Scalar(total),
            "patterns": Scalar(len(table["pattern"])),
        },
        table=table,
    )


def scenario_tree(depth: int, statistics: Statistics) -> ScenarioReport:
    """Depth-N splitting tree: entangled yield 1 - 1/2**N."""
    net = build_tree(depth)
    total, table = _branch_table(net, statistics)
    return ScenarioReport(
        scenario="tree",
        statistics=statistics.value,
        parameters={"depth": depth},
        scalars={
            "entangled_yield": Scalar(total),
            "expected_yield": Scalar(1.0 - 0.5 ** depth),
            "splitters": Scalar(len(net.splitters)),
            "outputs": Scalar(len(net.monitored)),
        },
        table=table,
    )


def scenario_clicks(net: Network, statistics: Statistics, trials: int, seed: int) -> ScenarioReport:
    """Detector patterns of the opposite-spin pair after ``net``, with ``trials`` seeded clicks."""
    kept = _detect_pairs(net, opposite_spin_input(statistics, net))
    probabilities, first = kept.probabilities, kept.first
    counts = _draw_counts(probabilities, trials, seed)
    # one correctly rounded division of Python ints per distinct count: a float64
    # count would round twice above 2^53
    distinct, inverse = _distinct(counts)
    coincidence_count = int(counts[first:].sum())
    return ScenarioReport(
        scenario="clicks",
        statistics=statistics.value,
        parameters={"trials": trials, "seed": seed},
        scalars={
            "trials": Scalar(trials),
            "coincidence_frequency": Scalar(coincidence_count / trials, SAMPLED),
            "coincidence_probability": Scalar(kept.coincidence_probability),
        },
        table={
            "pattern": _pattern_column(kept),
            "count": Coded(distinct, inverse),
            "frequency": Coded(np.array([count / trials for count in distinct.tolist()]), inverse),
            "probability": probabilities,
        },
    )


def scenario_statistics_test(statistics: Statistics) -> ScenarioReport:
    """Identify the statistics from rotated spin correlations after coincidence."""
    pair = heralded_pair(opposite_spin_input(statistics, fig1_network()))
    v = reduce_to_spin_dm(pair.state, "C", "D")
    joint = (np.abs(np.kron(SPIN_MIXER, SPIN_MIXER) @ v) ** 2).sum(axis=-1)
    correlation = float(joint[0] - joint[1] - joint[2] + joint[3])
    if correlation > VERDICT_DEAD_ZONE:
        verdict = Statistics.FERMION.value
    elif correlation < -VERDICT_DEAD_ZONE:
        verdict = Statistics.BOSON.value
    else:
        verdict = "inconclusive"
    return ScenarioReport(
        scenario="statistics-test",
        statistics=statistics.value,
        parameters={},
        scalars={
            "correlation": Scalar(correlation),
            "verdict": Scalar(verdict),
        },
        table={
            "outcome": list(SPIN_PAIRS),
            "probability": joint,
        },
    )


def scenario_mixed_input(statistics: Statistics) -> ScenarioReport:
    """Unpolarized inputs: entangled for bosons, separable for fermions."""
    # each particle in the even spin mixture: the four spin products at 1/4
    weight = 0.25
    spins = list(product(Spin, repeat=2))
    inputs = [f"A{'ud'[a]}+B{'ud'[b]}" for a, b in spins]
    pairs = [
        heralded_pair(make_product_state(statistics, [Mode("A", a), Mode("B", b)]))
        for a, b in spins
    ]
    # the spin blocks of the inputs that give coincidences, in input order
    rows = [k for k, pair in enumerate(pairs) if pair.probability > 0.0]
    v = spin_blocks([pairs[k].state for k in rows], "C", "D")
    weights = [weight * pairs[k].probability for k in rows]
    total = ordered_sum(weights)
    mixture: dict[str, float] = {}
    bell_states = [""] * len(inputs)
    for k, w, block, bell in zip(rows, weights, v, bell_index(v).tolist()):
        # a product coincidence |s1 s2> has its one nonzero row at 2 s1 + s2
        product_state = SPIN_PAIRS[(np.abs(block) ** 2).sum(axis=-1).argmax()]
        bell_states[k] = label = _BELL_STATES[bell] if bell else product_state
        mixture[label] = mixture.get(label, 0.0) + w
    decomposition = " + ".join(
        f"{w / total:.6g} {label}" for label, w in sorted(mixture.items())
    )
    # the conditional mixture as one block, with the columns sqrt(w_k) v_k of every coincidence
    mixed = np.concatenate(np.sqrt(weights)[:, None, None] * v, axis=-1)
    conditional = density_matrices(mixed)
    validate_dms(conditional)
    # the image with the first qubit's z flipped
    flipped = np.diag([1.0, 1.0, -1.0, -1.0]) @ mixed
    chsh_default, chsh_flipped = chsh_values(np.array([mixed, flipped])).tolist()
    chsh_best = max(abs(chsh_default), abs(chsh_flipped))
    return ScenarioReport(
        scenario="mixed-input",
        statistics=statistics.value,
        parameters={},
        scalars={
            "coincidence_probability": Scalar(total),
            "concurrence": Scalar(concurrences(mixed).item()),
            "chsh_default": Scalar(chsh_default),
            "chsh_max_abs": Scalar(chsh_best),
            "conditional_decomposition": Scalar(decomposition),
        },
        table={
            "input": inputs,
            "weight": np.full(len(inputs), weight),
            "coincidence_probability": np.array([pair.probability for pair in pairs]),
            "bell_state": bell_states,
        },
        matrices={"conditional_dm": conditional},
    )


def scenario_feedback(
    depth: int, statistics: Statistics, trials: int = 0, seed: int = DEFAULT_SEED
) -> ScenarioReport:
    """Feedback recycling: failure probability halves every round.

    ``trials`` sampled trajectories (0: exact only) come from one seeded
    draw: a trajectory's first success lands in round k with probability
    ``F(k-1) p(k)`` and never with ``F(depth)``, ``F`` being the
    cumulative failure (``F(0) = 1``) and ``p`` the success probability.
    """
    _check_range("trials", trials, 0, MAX_TRIALS)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rounds = feedback_run(depth, statistics)
    v = spin_blocks([r.conditional_state for r in rounds], "C", "D")
    failures = [r.cumulative_failure for r in rounds]
    table = {
        "round": np.arange(1, depth + 1),
        "success_probability": np.array([r.success_probability for r in rounds]),
        "cumulative_failure": np.array(failures),
        "cumulative_success": 1.0 - np.array(failures),
        "bell_state": Coded(_BELL_STATES, bell_index(v)),
        "concurrence": concurrences(v),
    }
    scalars = {
        "cumulative_failure": Scalar(failures[-1]),
        "cumulative_success": Scalar(1.0 - failures[-1]),
        "rounds": Scalar(depth),
    }
    if trials > 0:
        first_success = [f * r.success_probability for f, r in zip([1.0, *failures], rounds)]
        # counts[k]: trajectories whose first success came in round k (0: none)
        counts = _draw_counts([failures[-1], *first_success], trials, seed)
        # Python ints, each fraction one correctly rounded division: trials may pass 2^53
        cumulative = list(accumulate(counts[1:].tolist()))
        table["sampled_successes"] = counts[1:]
        table["sampled_cumulative_success"] = np.array([c / trials for c in cumulative])
        scalars["sampled_success"] = Scalar(cumulative[-1] / trials, SAMPLED)
        scalars["trials"] = Scalar(trials)
        scalars["seed"] = Scalar(seed)
    return ScenarioReport(
        scenario="feedback",
        statistics=statistics.value,
        parameters={"depth": depth, "trials": trials, "seed": seed},
        scalars=scalars,
        table=table,
    )


def _heralded_blocks(statistics: Statistics, overlaps: Sequence[complex]) -> Iterator[np.ndarray]:
    """Spin-tag blocks a coincidence heralds for tagged opposite-spin pairs, one per overlap.

    The coincidence is linear in the input, so only the tag pairs 0, 0 and 0, 1 are
    heralded, once per call, and superposed: the block of an overlap ``o`` is
    ``o v_par + sqrt(1 - |o|^2) v_orth``, not normalized.  One ``(k, 4, T)`` stack is
    yielded per :data:`METRICS_CHUNK` overlaps; the caller range-checks the overlaps.
    """
    branches = [heralded_pair(tagged_opposite_spin_input(statistics, o)) for o in (1.0, 0.0)]
    # each branch's normalized amplitudes times its amplitude norm: the unnormalized coincidence
    norms = np.sqrt([b.probability for b in branches])[:, None, None]
    v_par, v_orth = norms * spin_blocks([b.state for b in branches], "C", "D")
    for start in range(0, len(overlaps), METRICS_CHUNK):
        chunk = np.asarray(overlaps[start : start + METRICS_CHUNK], dtype=complex)
        residual = np.sqrt(np.maximum(0.0, 1.0 - np.abs(chunk) ** 2))
        yield chunk[:, None, None] * v_par + residual[:, None, None] * v_orth


def scenario_complementarity(grid: int, statistics: Statistics) -> ScenarioReport:
    """Sweep the tag overlap: entanglement + distinguishability = 1."""
    # the heralded pair's CHSH value is 2 sqrt2 times its concurrence, negated for bosons
    divisor = (-1.0 if statistics is Statistics.BOSON else 1.0) * 2.0 * math.sqrt(2.0)
    overlaps_sq = _sweep(0.0, 1.0, grid)
    overlaps = np.sqrt(overlaps_sq)
    discrimination = np.array(list(map(distinguishability, overlaps.tolist())))
    entanglement, chsh = [], []
    for v in _heralded_blocks(statistics, overlaps):
        entanglement.append(concurrences(v))
        chsh.append(chsh_values(v))
    entanglement = np.concatenate(entanglement)
    total = entanglement + discrimination
    chsh_inferred = np.concatenate(chsh) / divisor
    max_total_dev = max(0.0, float(np.abs(total - 1.0).max()))
    max_chsh_dev = max(0.0, float(np.abs(chsh_inferred - entanglement).max()))
    return ScenarioReport(
        scenario="complementarity",
        statistics=statistics.value,
        parameters={"grid": grid},
        scalars={
            "max_total_deviation": Scalar(max_total_dev),
            "max_chsh_deviation": Scalar(max_chsh_dev),
        },
        table={
            "overlap_sq": overlaps_sq,
            "entanglement": entanglement,
            "distinguishability": discrimination,
            "total": total,
            "entanglement_chsh": chsh_inferred,
        },
    )


def scenario_gaussian(
    velocity: float, width: float, delay_max: float, grid: int, statistics: Statistics
) -> ScenarioReport:
    """Entanglement versus packet delay, via the full pipeline."""
    for name, value in (("velocity", velocity), ("width", width), ("delay_max", delay_max)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    delays = _sweep(-delay_max, delay_max, grid)
    # per point through math.exp: NumPy's exp may differ in the last bit
    overlaps = np.array([gaussian_overlap(velocity, d, width) for d in delays.tolist()])
    entanglement = np.concatenate([concurrences(v) for v in _heralded_blocks(statistics, overlaps)])
    # a product, the correctly rounded square; ** 2 would go through libm pow
    expected = overlaps * overlaps
    max_dev = max(0.0, float(np.abs(entanglement - expected).max()))
    return ScenarioReport(
        scenario="gaussian",
        statistics=statistics.value,
        parameters={
            "velocity": velocity,
            "width": width,
            "delay_max": delay_max,
            "grid": grid,
        },
        scalars={"max_deviation": Scalar(max_dev)},
        table={"delay": delays, "expected_entanglement": expected, "entanglement": entanglement},
    )


def scenario_dual(statistics: Statistics) -> ScenarioReport:
    """Read the coincidence state both ways: spins entangled, paths entangled."""
    state = heralded_pair(opposite_spin_input(statistics, fig1_network())).state
    pictures = np.array([reduce_to_spin_dm(state, "C", "D"), dual_relabel(state, "C", "D")])
    concurrence = concurrences(pictures)
    spin_c, path_c = concurrence.tolist()
    return ScenarioReport(
        scenario="dual",
        statistics=statistics.value,
        parameters={},
        scalars={
            "spin_concurrence": Scalar(spin_c),
            "path_concurrence": Scalar(path_c),
            "difference": Scalar(abs(spin_c - path_c)),
        },
        table={
            "picture": [
                "paths label particles, spins entangled",
                "spins label particles, paths entangled",
            ],
            "qubits": ["C,D", "up,down"],
            "concurrence": concurrence,
        },
    )


class Param(NamedTuple):
    """One scenario parameter besides ``statistics``, as ``twinbeam run`` offers it."""

    name: str
    type: type
    default: int | float
    help: str


class Scenario(NamedTuple):
    """One shipped scenario: its runner, its parameters and the claim it checks.

    ``run`` takes ``statistics`` and every parameter by keyword and does
    its own range checks, raising :class:`ValueError`.
    """

    name: str
    run: Callable[..., ScenarioReport]
    params: tuple[Param, ...]
    claim: str

    @property
    def parameters(self) -> tuple[str, ...]:
        """Parameter names as the catalog shows them, ``statistics`` first."""
        return ("statistics",) + tuple(p.name.replace("_", "-") for p in self.params)


_GRID = Param("grid", int, 21, "number of sweep points")

#: every shipped scenario by name, in the command line's order
SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "fig1",
            scenario_fig1,
            (),
            "a two-detector coincidence (probability 1/2) heralds a maximally "
            "entangled spin pair",
        ),
        Scenario(
            "fig2",
            scenario_fig2,
            (),
            "with two extra splitters a coincidence occurs in 75 percent of the "
            "cases, each heralding an entangled pair",
        ),
        Scenario(
            "tree",
            scenario_tree,
            (Param("depth", int, 2, "tree depth"),),
            "a depth-N splitting tree delivers entangled pairs with probability "
            "1 - 1/2^N",
        ),
        Scenario(
            "feedback",
            scenario_feedback,
            (
                Param("depth", int, 7, "feedback rounds"),
                Param("trials", int, 0, "Monte Carlo trajectories (0 = exact only)"),
                Param("seed", int, DEFAULT_SEED, f"sampling seed (default {DEFAULT_SEED})"),
            ),
            "re-injecting bunched pairs through the same splitter drives the failure "
            "probability down as 2^-N",
        ),
        Scenario(
            "statistics-test",
            scenario_statistics_test,
            (),
            "rotated spin correlations after a coincidence are +1 for fermions "
            "and -1 for bosons",
        ),
        Scenario(
            "mixed-input",
            scenario_mixed_input,
            (),
            "unpolarized inputs still yield a maximally entangled pair for bosons "
            "but a separable state for fermions",
        ),
        Scenario(
            "complementarity",
            scenario_complementarity,
            (_GRID,),
            "post-selected entanglement E and tag distinguishability D satisfy E + D = 1",
        ),
        Scenario(
            "gaussian",
            scenario_gaussian,
            (
                Param("velocity", float, 1.0, "packet velocity"),
                Param("width", float, 1.0, "packet width"),
                Param("delay_max", float, 3.0, "largest packet delay"),
                _GRID,
            ),
            "Gaussian packets of width sigma delayed by dt give "
            "E = exp(-v^2 dt^2 / (2 sigma^2))",
        ),
        Scenario(
            "dual",
            scenario_dual,
            (),
            "one coincidence state is spin-entangled with paths as labels and "
            "path-entangled with spins as labels",
        ),
    )
}


def list_scenarios() -> list[Scenario]:
    """Stable, sorted catalog of the shipped scenarios."""
    return sorted(SCENARIOS.values(), key=lambda s: s.name)
