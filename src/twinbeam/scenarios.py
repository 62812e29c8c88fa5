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
from .fock import Mode, Spin, Statistics, apply_spin_rotation, make_product_state
from .interferometer import (
    MAX_TRIALS,
    Network,
    _check_range,
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
    bell_labels,
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
from .reporting import SAMPLED, Column, Scalar, ScenarioReport

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

#: coincidence spin-tag blocks built and evaluated at once in a sweep
METRICS_CHUNK = 512


def _sweep(start: float, stop: float, grid: int) -> list[float]:
    """The ``grid`` evenly spaced points of a complementarity or gaussian sweep."""
    _check_range("grid", grid, 2, MAX_GRID)
    return np.linspace(start, stop, grid).tolist()


def _correction_phases(v: np.ndarray, lower: Sequence[str], upper: Sequence[str]) -> np.ndarray:
    """Down-spin phase on the lower path that turns each coincidence into psi+.

    ``v`` holds the normalized untagged amplitudes, shape ``(n, 4)``, of
    the coincidences of the paths ``lower[k] < upper[k]``.  Each must be
    a local-phase image of psi+: ``|v1|`` and ``|v2|`` within 1e-9 of
    1/sqrt(2), ``|v0|`` and ``|v3|`` within 1e-9 of 0, so that a NaN or
    infinite amplitude fails too; :class:`NetworkError` names the first
    that is not.  The phase is ``v1 / v2`` (|up down> over |down up>) on
    the unit circle, snapped to +-1 within 1e-12 of the real axis; 1
    means no correction.
    """
    half = 1 / math.sqrt(2)
    close = np.abs(np.abs(v) - [0.0, half, half, 0.0]) <= 1e-9
    bad = ~close.all(axis=-1)
    if bad.any():
        k = int(bad.argmax())
        raise NetworkError(f"branch {[lower[k], upper[k]]} is not a local-phase image of psi+")
    delta = v[:, 1] / v[:, 2]
    delta /= np.abs(delta)
    return np.where(np.abs(delta.imag) < 1e-12, np.where(delta.real > 0, 1.0, -1.0), delta)


def _branch_table(net: Network, statistics: Statistics) -> tuple[float, dict[str, Column]]:
    """Coincidence probability and branch table of the opposite-spin pair after ``net``.

    One row per detector pattern, in :func:`detect`'s order.  The
    coincidences come last, with their normalized spin-tag blocks
    (``interferometer._detect_pairs``).  The input is untagged, so each
    block has one tag column, a pure state: :func:`concurrences` takes its
    closed form, :func:`bell_labels` names it, and :func:`_correction_phases`
    checks it.  No spin matrix is built.  The numeric columns are arrays.
    """
    kept = _detect_pairs(net, opposite_spin_input(statistics, net), coincidences=True)
    probabilities, first, lower = kept.probabilities, kept.first, kept.lower
    untagged = kept.blocks[:, :, 0]
    phases = _correction_phases(untagged, lower, kept.upper).tolist()
    # a tree's coincidences share two phases; keying by value is safe because an
    # imaginary part is either a snapped +-1's +0.0 or at least 1e-12 in magnitude
    names = {p: f"down-phase {math.atan2(p.imag, p.real) / math.pi:.6g}pi" for p in set(phases)}
    table = {
        "pattern": kept.labels(),
        "detectors": np.repeat(np.arange(3), [kept.empty, len(kept.singles), len(kept.blocks)]),
        "probability": probabilities,
        "concurrence": np.concatenate([np.zeros(first), concurrences(kept.blocks)]),
        "bell_state": [""] * first + [b or "other" for b in bell_labels(kept.blocks).tolist()],
        "correction": [""] * first + [
            "identity" if p == 1.0 else f"{low}:{names[p]}" for low, p in zip(lower, phases)
        ],
    }
    # summed in order: np.sum adds pairwise and may change the last bit
    return sum(probabilities[first:].tolist(), 0.0), table


def scenario_fig1(statistics: Statistics) -> ScenarioReport:
    """Single splitter on an opposite-spin pair: heralded Bell-pair source."""
    total, table = _branch_table(fig1_network(), statistics)
    return ScenarioReport(
        scenario="fig1",
        statistics=statistics.value,
        parameters={},
        scalars={
            "coincidence_probability": Scalar(total),
            "bell_state": Scalar(table["bell_state"][-1]),
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


def scenario_statistics_test(statistics: Statistics) -> ScenarioReport:
    """Identify the statistics from rotated spin correlations after coincidence."""
    state = heralded_pair(opposite_spin_input(statistics, fig1_network())).state
    for path in ("C", "D"):
        state = apply_spin_rotation(state, path, SPIN_MIXER)
    joint = (np.abs(reduce_to_spin_dm(state, "C", "D")) ** 2).sum(axis=-1)
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
            "probability": joint.tolist(),
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
    total = sum(weights)
    mixture: dict[str, float] = {}
    bell_states = [""] * len(inputs)
    for k, w, block, label in zip(rows, weights, v, bell_labels(v).tolist()):
        # a product coincidence |s1 s2> has its one nonzero row at 2 s1 + s2
        bell_states[k] = label = label or SPIN_PAIRS[(np.abs(block) ** 2).sum(axis=-1).argmax()]
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
            "weight": [weight] * len(inputs),
            "coincidence_probability": [pair.probability for pair in pairs],
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
        "round": [r.round for r in rounds],
        "success_probability": [r.success_probability for r in rounds],
        "cumulative_failure": failures,
        "cumulative_success": [1.0 - f for f in failures],
        "bell_state": [label or "other" for label in bell_labels(v).tolist()],
        "concurrence": concurrences(v).tolist(),
    }
    scalars = {
        "cumulative_failure": Scalar(failures[-1]),
        "cumulative_success": Scalar(1.0 - failures[-1]),
        "rounds": Scalar(depth),
    }
    if trials > 0:
        first_success = [f * r.success_probability for f, r in zip([1.0, *failures], rounds)]
        # counts[k]: trajectories whose first success came in round k (0: none)
        counts = _draw_counts([failures[-1], *first_success], trials, seed).tolist()
        cumulative = list(accumulate(counts[1:]))
        table["sampled_successes"] = counts[1:]
        table["sampled_cumulative_success"] = [c / trials for c in cumulative]
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
    overlaps = list(map(math.sqrt, overlaps_sq))
    discrimination = list(map(distinguishability, overlaps))
    entanglement, chsh = [], []
    for v in _heralded_blocks(statistics, overlaps):
        entanglement += concurrences(v).tolist()
        chsh += chsh_values(v).tolist()
    total = [e + d for e, d in zip(entanglement, discrimination)]
    chsh_inferred = [value / divisor for value in chsh]
    max_total_dev = max(0.0, *(abs(t - 1.0) for t in total))
    max_chsh_dev = max(0.0, *(abs(c - e) for c, e in zip(chsh_inferred, entanglement)))
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
    overlaps = [gaussian_overlap(velocity, d, width) for d in delays]
    entanglement = []
    for v in _heralded_blocks(statistics, overlaps):
        entanglement += concurrences(v).tolist()
    expected = [overlap ** 2 for overlap in overlaps]
    max_dev = max(0.0, *(abs(e - x) for e, x in zip(entanglement, expected)))
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
    spin_c, path_c = concurrences(pictures).tolist()
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
            "concurrence": [spin_c, path_c],
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
