"""Tests for the first-quantized oracle and engine/oracle agreement."""

import math

import numpy as np
import pytest

from conftest import (
    BOTH_STATISTICS,
    pair_probabilities,
    pattern_label,
    random_network,
    random_two_particle_state,
)
from twinbeam.errors import NotUnitaryError
from twinbeam.fock import Mode, Spin, Statistics, make_product_state
from twinbeam.interferometer import (
    detect,
    fig1_network,
    fig2_network,
    run_network,
)
from twinbeam.oracle import (
    FirstQuantizedState,
    cross_check,
    oracle_detect,
    oracle_evolve,
    pair_state,
    splitter_unitary,
    states_match,
)

UP, DOWN = Spin.UP, Spin.DOWN


def full_labels(paths, tags=(0,)):
    return tuple(sorted(Mode(p, s, t) for p in paths for s in (UP, DOWN) for t in tags))


def network_labels(net, tags=(0,)):
    paths = set(net.inputs)
    for bs in net.splitters:
        paths.update((bs.in1, bs.in2, bs.out1, bs.out2))
    return full_labels(sorted(paths), tags)


def oracle_run(net, state):
    for bs in net.splitters:
        state = oracle_evolve(state, splitter_unitary(state.labels, bs.in1, bs.in2, bs.out1, bs.out2))
    return state


class TestEvolve:
    def test_fermion_pair_antibunches(self):
        labels = full_labels("ABCD")
        state = pair_state(Statistics.FERMION, labels, Mode("A", UP), Mode("B", UP))
        out = oracle_evolve(state, splitter_unitary(labels, "A", "B", "D", "C"))
        probs, _ = oracle_detect(out, ["C", "D"])
        assert abs(probs[frozenset({"C", "D"})] - 1.0) < 1e-12

    def test_boson_pair_has_no_coincidence(self):
        labels = full_labels("ABCD")
        state = pair_state(Statistics.BOSON, labels, Mode("A", UP), Mode("B", UP))
        out = oracle_evolve(state, splitter_unitary(labels, "A", "B", "D", "C"))
        i, j = out.index(Mode("C", UP)), out.index(Mode("D", UP))
        assert abs(out.amplitudes[i, j]) < 1e-12
        assert abs(out.amplitudes[j, i]) < 1e-12

    def test_identity_is_noop(self):
        labels = full_labels("AB")
        state = pair_state(Statistics.BOSON, labels, Mode("A", UP), Mode("B", DOWN))
        out = oracle_evolve(state, np.eye(len(labels)))
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_rejects_non_unitary(self):
        labels = full_labels("AB")
        state = pair_state(Statistics.BOSON, labels, Mode("A", UP), Mode("B", DOWN))
        with pytest.raises(NotUnitaryError):
            oracle_evolve(state, np.ones((len(labels), len(labels))))

    def test_rejects_broken_symmetry(self):
        labels = full_labels("A")
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            FirstQuantizedState(Statistics.BOSON, labels, m)


class TestDetect:
    def test_single_splitter_boson_distribution(self):
        labels = full_labels("ABCD")
        state = pair_state(Statistics.BOSON, labels, Mode("A", UP), Mode("B", DOWN))
        out = oracle_evolve(state, splitter_unitary(labels, "A", "B", "D", "C"))
        probs, _ = oracle_detect(out, ["C", "D"])
        assert abs(probs[frozenset({"C", "D"})] - 0.5) < 1e-12
        assert abs(probs[frozenset({"C"})] - 0.25) < 1e-12
        assert abs(probs[frozenset({"D"})] - 0.25) < 1e-12

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_four_output_distribution(self, statistics):
        net = fig2_network()
        labels = network_labels(net)
        state = pair_state(statistics, labels, Mode("A", UP), Mode("B", DOWN))
        probs, _ = oracle_detect(oracle_run(net, state), net.monitored)
        assert len(probs) == 10
        for pattern, p in probs.items():
            expected = 0.125 if len(pattern) == 2 else 0.0625
            assert abs(p - expected) < 1e-12


class TestCrossCheck:
    def test_antisymmetrized_pair(self):
        state = make_product_state(Statistics.FERMION, [Mode("A", UP), Mode("B", DOWN)])
        fq = cross_check(state)
        i, j = fq.index(Mode("A", UP)), fq.index(Mode("B", DOWN))
        assert abs(fq.amplitudes[i, j] - 1.0 / math.sqrt(2.0)) < 1e-12
        assert abs(fq.amplitudes[j, i] + 1.0 / math.sqrt(2.0)) < 1e-12

    def test_rejects_wrong_particle_number(self):
        with pytest.raises(ValueError):
            cross_check(make_product_state(Statistics.BOSON, [Mode("A", UP)]))

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_splitter_output_round_trip(self, statistics):
        net = fig1_network()
        labels = network_labels(net)
        fock_in = make_product_state(statistics, [Mode("A", UP), Mode("B", DOWN)])
        engine_out = cross_check(run_network(net, fock_in), labels)
        oracle_out = oracle_run(net, cross_check(fock_in, labels))
        assert states_match(engine_out, oracle_out)

    def test_coincidence_state_round_trip(self):
        net = fig1_network()
        fock_in = make_product_state(Statistics.FERMION, [Mode("A", UP), Mode("B", DOWN)])
        pair = detect(run_network(net, fock_in), net.monitored)[{"C", "D"}]
        labels = full_labels("CD")
        fq = cross_check(pair.state, labels)
        assert abs(np.linalg.norm(fq.amplitudes) - 1.0) < 1e-12


@pytest.mark.parametrize("statistics", BOTH_STATISTICS)
@pytest.mark.parametrize("seed", range(12))
def test_engine_matches_oracle_on_random_networks(statistics, seed):
    rng = np.random.default_rng(3000 + seed)
    net = random_network(rng, ("P", "Q"), n_splitters=int(rng.integers(1, 5)))
    state = random_two_particle_state(rng, statistics, paths=("P", "Q"), tags=(0, 1))
    labels = network_labels(net, tags=(0, 1))

    engine_branches = detect(run_network(net, state), net.monitored)
    oracle_probs, oracle_conds = oracle_detect(oracle_run(net, cross_check(state, labels)), net.monitored)

    assert {b.pattern for b in engine_branches} == set(oracle_probs)
    for branch in engine_branches:
        assert abs(branch.probability - oracle_probs[branch.pattern]) < 1e-9
        assert states_match(cross_check(branch.state, labels), oracle_conds[branch.pattern])


@pytest.mark.parametrize("statistics", BOTH_STATISTICS)
@pytest.mark.parametrize("case", ["fig2", "random"])
def test_pair_engine_matches_oracle(statistics, case):
    if case == "fig2":
        net, tags = fig2_network(), (0,)
        state = make_product_state(statistics, [Mode("A", UP), Mode("B", DOWN)])
    else:
        rng = np.random.default_rng(4000)
        net, tags = random_network(rng, ("P", "Q"), n_splitters=4), (0, 1)
        state = random_two_particle_state(rng, statistics, paths=("P", "Q"), tags=tags)
    labels = network_labels(net, tags)
    oracle_probs, _ = oracle_detect(oracle_run(net, cross_check(state, labels)), net.monitored)

    expected = {pattern_label(pattern): p for pattern, p in oracle_probs.items()}
    got = pair_probabilities(net, state)
    assert set(got) == set(expected)
    for label, p in got.items():
        assert abs(p - expected[label]) < 1e-12
