"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside the pytest output.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from conftest import (
    BOTH_STATISTICS,
    amplitude,
    engine_differences,
    fidelity,
    kept_labels,
    kept_paths,
    random_network,
    random_two_particle_state,
)
from twinbeam.fock import Mode, Spin, Statistics, make_product_state
from twinbeam.interferometer import (
    _detect_pairs,
    build_tree,
    detect,
    feedback_run,
    fig1_network,
    fig2_network,
    run_network,
)
from twinbeam.metrics import (
    PSI_MINUS,
    PSI_PLUS,
    chsh_values,
    concurrences,
    density_matrices,
    distinguishability,
    dual_relabel,
    reduce_to_spin_dm,
    tagged_opposite_spin_input,
)
from twinbeam.scenarios import (
    SPIN_MIXER,
    _heralded_blocks,
    scenario_feedback,
    scenario_mixed_input,
    scenario_statistics_test,
)

UP, DOWN = Spin.UP, Spin.DOWN
ROOT8 = 2.0 * math.sqrt(2.0)


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def opposite_pair(statistics):
    return make_product_state(statistics, [Mode("A", UP), Mode("B", DOWN)])


def test_criterion_01_single_splitter_exactness():
    worst = 0.0
    for statistics, pair_sign in ((Statistics.FERMION, 1.0), (Statistics.BOSON, -1.0)):
        out = run_network(fig1_network(), opposite_pair(statistics))
        worst = max(
            worst,
            abs(amplitude(out, [Mode("D", UP), Mode("C", DOWN)]) - 0.5),
            abs(amplitude(out, [Mode("D", DOWN), Mode("C", UP)]) - pair_sign * 0.5),
            abs(amplitude(out, [Mode("C", UP), Mode("C", DOWN)]) - 0.5j),
            abs(amplitude(out, [Mode("D", UP), Mode("D", DOWN)]) - 0.5j),
        )
    net, state = fig1_network(), opposite_pair(Statistics.FERMION)
    run_network(net, state)
    best = min(
        (lambda t0: (run_network(net, state), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(20)
    )
    ok = worst < 1e-12 and best < 1e-3
    verdict(1, "single-splitter amplitudes", ok, f"err={worst:.2e}, t={best * 1e3:.3f}ms")


def test_criterion_02_four_detector_structure():
    checks = []
    for statistics in BOTH_STATISTICS:
        net = fig2_network()
        branches = detect(run_network(net, opposite_pair(statistics)), net.monitored)
        checks.append(len(branches) == 10)
        for branch in branches:
            expected = 0.125 if len(branch.pattern) == 2 else 0.0625
            checks.append(abs(branch.probability - expected) < 1e-12)
        total = sum(b.probability for b in branches if len(b.pattern) == 2)
        checks.append(abs(total - 0.75) < 1e-12)
    fermion = detect(
        run_network(fig2_network(), opposite_pair(Statistics.FERMION)),
        fig2_network().monitored,
    )
    eg = reduce_to_spin_dm(fermion[{"E", "G"}].state, "E", "G")
    gh = reduce_to_spin_dm(fermion[{"G", "H"}].state, "G", "H")
    checks.append(abs(fidelity(eg, PSI_PLUS) - 1.0) < 1e-9)
    checks.append(abs(fidelity(gh, PSI_MINUS) - 1.0) < 1e-9)
    verdict(2, "four-detector structure", all(checks))


def test_criterion_03_tree_yield_law():
    checks = []
    elapsed = None
    for statistics in BOTH_STATISTICS:
        for depth in range(1, 8):
            t0 = time.perf_counter()
            kept = _detect_pairs(build_tree(depth), opposite_pair(statistics))
            got = sum(p for label, p in zip(kept_labels(kept), kept.probabilities) if "+" in label)
            dt = time.perf_counter() - t0
            checks.append(abs(got - (1.0 - 0.5 ** depth)) < 1e-9)
            if depth == 7:
                elapsed = dt
                checks.append(got > 0.99)
                checks.append(dt < 10.0)
    verdict(3, "tree yield 1 - 1/2^N", all(checks), f"depth-7 run {elapsed:.2f}s")


def test_criterion_04_feedback_law():
    checks = []
    for statistics in BOTH_STATISTICS:
        rounds = feedback_run(10, statistics)
        for r in rounds:
            checks.append(abs(r.cumulative_failure - 0.5 ** r.round) < 1e-12)
        v = np.array([reduce_to_spin_dm(r.conditional_state, "C", "D") for r in rounds])
        checks.extend(np.abs(concurrences(v) - 1.0) < 1e-9)
    trials = 100_000
    report = scenario_feedback(3, Statistics.FERMION, trials=trials, seed=20240229)
    exact = 7 / 8
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    sampled = report.scalar("sampled_success")
    checks.append(abs(sampled - exact) < 3.0 * sigma)
    verdict(4, "feedback failure 2^-N", all(checks), f"sampled={sampled:.5f}")


ENGINES = ("sparse", "pair")


def pair_engine_block(statistics, overlap):
    """The pair engine's {C, D} spin-tag block for the tagged opposite-spin pair."""
    net, state = fig1_network(), tagged_opposite_spin_input(statistics, overlap)
    kept = _detect_pairs(net, state, coincidences=True)
    coincidences = kept_paths(kept)[kept.first:]
    return kept.blocks[coincidences.index(("C", "D"))]


def heralded_metrics(engine, statistics, overlaps):
    """Concurrence and CHSH value of the block a {C, D} coincidence heralds, one per tag overlap."""
    if engine == "sparse":
        stacks = list(_heralded_blocks(statistics, overlaps))
    else:
        stacks = [pair_engine_block(statistics, o)[None] for o in overlaps]
    return (
        np.concatenate([concurrences(v) for v in stacks]),
        np.concatenate([chsh_values(v) for v in stacks]),
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_criterion_05_statistics_test(engine):
    correlations = []
    for statistics in (Statistics.FERMION, Statistics.BOSON):
        if engine == "sparse":
            correlations.append(scenario_statistics_test(statistics).scalar("correlation"))
            continue
        rotation = np.kron(SPIN_MIXER, SPIN_MIXER)
        joint = (np.abs(rotation @ pair_engine_block(statistics, 1.0)) ** 2).sum(axis=-1)
        correlations.append(float(joint[0] - joint[1] - joint[2] + joint[3]))
    fermion, boson = correlations
    ok = abs(fermion - 1.0) < 1e-12 and abs(boson + 1.0) < 1e-12
    verdict(5, f"spin correlation +-1, {engine} engine", ok, f"fermion={fermion}, boson={boson}")


def pair_engine_mixture(statistics):
    """The pair engine's conditional block of the unpolarized input, with the flipped image.

    The four spin products each weigh 1/4; their {C, D} blocks are the
    columns, each times the square root of weight times coincidence probability.
    """
    columns = []
    for a, b in product(Spin, repeat=2):
        state = make_product_state(statistics, [Mode("A", a), Mode("B", b)])
        kept = _detect_pairs(fig1_network(), state, coincidences=True)
        if len(kept.codes) > kept.first:  # C+D, the single splitter's one coincidence
            columns.append(math.sqrt(0.25 * kept.probabilities[kept.first]) * kept.blocks[0])
    mixed = np.concatenate(columns, axis=-1)
    return np.array([mixed, np.diag([1.0, 1.0, -1.0, -1.0]) @ mixed])


@pytest.mark.parametrize("engine", ENGINES)
def test_criterion_06_mixed_input(engine):
    values = {}
    for statistics in BOTH_STATISTICS:
        if engine == "sparse":
            report = scenario_mixed_input(statistics)
            values[statistics] = (
                report.scalar("concurrence"),
                report.scalar("chsh_max_abs"),
                report.matrices["conditional_dm"],
            )
        else:
            v = pair_engine_mixture(statistics)
            chsh = float(np.abs(chsh_values(v)).max())
            values[statistics] = (concurrences(v[0]).item(), chsh, density_matrices(v[0]))
    expected = np.diag([1 / 3, 1 / 6, 1 / 6, 1 / 3]).astype(complex)
    expected[1, 2] = expected[2, 1] = 1 / 6
    boson_c, boson_chsh, _ = values[Statistics.BOSON]
    fermion_c, fermion_chsh, fermion_dm = values[Statistics.FERMION]
    ok = (
        abs(boson_c - 1.0) < 1e-9
        and abs(boson_chsh - ROOT8) < 1e-9
        and fermion_c < 1e-9
        and fermion_chsh <= 2.0 + 1e-9
        and bool(np.allclose(fermion_dm, expected, atol=1e-9))
    )
    verdict(6, f"unpolarized mixed input, {engine} engine", ok)


@pytest.mark.parametrize("engine", ENGINES)
def test_criterion_07_complementarity_sweep(engine):
    worst_sum = worst_e = worst_chsh = 0.0
    for statistics in BOTH_STATISTICS:
        overlaps_sq = np.linspace(0.0, 1.0, 21)
        overlaps = np.sqrt(overlaps_sq)
        concurrence, chsh = heralded_metrics(engine, statistics, overlaps)
        sign = -1.0 if statistics is Statistics.BOSON else 1.0
        for overlap_sq, overlap, entanglement, inferred in zip(
            overlaps_sq, overlaps, concurrence, chsh / (sign * ROOT8)
        ):
            total = entanglement + distinguishability(overlap)
            worst_sum = max(worst_sum, abs(total - 1.0))
            worst_e = max(worst_e, abs(entanglement - overlap_sq))
            worst_chsh = max(worst_chsh, abs(inferred - entanglement))
    ok = worst_sum < 1e-9 and worst_e < 1e-9 and worst_chsh < 1e-9
    name = f"complementarity E + D = 1, {engine} engine"
    verdict(7, name, ok, f"max dev {max(worst_sum, worst_e):.1e}")


@pytest.mark.parametrize("engine", ENGINES)
def test_criterion_08_gaussian_curve(engine):
    velocity, width = 0.8, 1.3
    worst = 0.0
    delays = np.linspace(-4.0, 4.0, 21)
    overlaps = np.exp(-(velocity ** 2) * delays ** 2 / (4.0 * width ** 2))
    expected = np.exp(-(velocity ** 2) * delays ** 2 / (2.0 * width ** 2))
    for statistics in BOTH_STATISTICS:
        entanglement = heralded_metrics(engine, statistics, overlaps)[0]
        worst = max(worst, float(np.abs(entanglement - expected).max()))
    verdict(8, f"Gaussian packet curve, {engine} engine", worst < 1e-9, f"max dev {worst:.1e}")


def test_criterion_09_engine_equivalence():
    t0 = time.perf_counter()
    trials_per_statistics = 100
    differences = []
    for statistics in BOTH_STATISTICS:
        for seed in range(trials_per_statistics):
            rng = np.random.default_rng(910_000 + seed)
            net = random_network(rng, ("P", "Q"), n_splitters=int(rng.integers(1, 5)))
            state = random_two_particle_state(rng, statistics, paths=("P", "Q"), tags=(0, 1))
            differences += [f"{statistics.value} seed {seed}: {d}" for d in engine_differences(net, state)]
    elapsed = time.perf_counter() - t0
    ok = not differences and elapsed < 60.0
    detail = f"{elapsed:.1f}s" + "".join(f"; {d}" for d in differences[:3])
    verdict(9, "sparse vs pair engine, 200 trials", ok, detail)


@pytest.mark.parametrize("engine", ENGINES)
def test_criterion_10_dual_picture(engine):
    worst = 0.0
    net = fig1_network()
    for statistics in BOTH_STATISTICS:
        for overlap in np.sqrt(np.linspace(0.0, 1.0, 21)).tolist():
            state = run_network(net, tagged_opposite_spin_input(statistics, overlap))
            pair = detect(state, net.monitored)[{"C", "D"}].state
            if engine == "sparse":
                spin = reduce_to_spin_dm(pair, "C", "D")
            else:
                spin = pair_engine_block(statistics, overlap)
            # the pair engine's block may hold other tag columns than the dual picture's
            spin_c, path_c = concurrences(spin), concurrences(dual_relabel(pair, "C", "D"))
            worst = max(worst, abs(spin_c - path_c))
    verdict(10, f"dual-picture agreement, {engine} engine", worst < 1e-9, f"max dev {worst:.1e}")
