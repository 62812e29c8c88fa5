"""Tests for the first-quantized oracle and its agreement with the pair engine."""

import math

import numpy as np
import pytest

from conftest import (
    BOTH_STATISTICS,
    fock_cells,
    matches_up_to_phase,
    pair_engine_cells,
    pair_probabilities,
    pattern_label,
)
from twinbeam.errors import NotUnitaryError
from twinbeam.fock import Mode, Spin, Statistics, make_product_state
from twinbeam.interferometer import fig1_network, fig2_network
from twinbeam.oracle import (
    FirstQuantizedState,
    oracle_detect,
    oracle_evolve,
    pair_state,
    splitter_unitary,
)

UP, DOWN = Spin.UP, Spin.DOWN


def full_labels(paths):
    return tuple(sorted(Mode(p, s) for p in paths for s in (UP, DOWN)))


def network_labels(net):
    paths = set(net.inputs)
    for bs in net.splitters:
        paths.update((bs.in1, bs.in2, bs.out1, bs.out2))
    return full_labels(paths)


def oracle_run(net, state):
    for bs in net.splitters:
        state = oracle_evolve(state, splitter_unitary(state.labels, bs.in1, bs.in2, bs.out1, bs.out2))
    return state


def oracle_cells(state):
    """The oracle's nonzero amplitudes keyed as ``conftest.fock_cells`` keys them."""
    cells = {}
    for i, x in enumerate(state.labels):
        for j, y in enumerate(state.labels):
            if state.amplitudes[i, j] != 0:
                cells[(x.spin, x.tag), (y.spin, y.tag), x.path, y.path] = complex(state.amplitudes[i, j])
    return cells


def cells_close(x, y, atol=1e-12):
    """Whether two amplitude maps agree entry by entry, phase included; a missing key is a zero."""
    return all(abs(x.get(k, 0j) - y.get(k, 0j)) <= atol for k in set(x) | set(y))


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
        i, j = out.labels.index(Mode("C", UP)), out.labels.index(Mode("D", UP))
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


class TestCellConvention:
    """The test helpers' first-quantized convention, held against the oracle's dense states."""

    def test_antisymmetrized_pair(self):
        state = make_product_state(Statistics.FERMION, [Mode("A", UP), Mode("B", DOWN)])
        cells = fock_cells(state)
        assert abs(cells[(UP, 0), (DOWN, 0), "A", "B"] - 1.0 / math.sqrt(2.0)) < 1e-12
        assert abs(cells[(DOWN, 0), (UP, 0), "B", "A"] + 1.0 / math.sqrt(2.0)) < 1e-12
        oracle_in = pair_state(Statistics.FERMION, full_labels("AB"), Mode("A", UP), Mode("B", DOWN))
        assert cells_close(cells, oracle_cells(oracle_in))

    def test_doubly_occupied_mode(self):
        state = make_product_state(Statistics.BOSON, [Mode("A", UP), Mode("A", UP)])
        expected = oracle_cells(pair_state(Statistics.BOSON, full_labels("A"), Mode("A", UP), Mode("A", UP)))
        assert cells_close(fock_cells(state), expected)

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_splitter_output_round_trip(self, statistics):
        net = fig1_network()
        one, two = Mode("A", UP), Mode("B", DOWN)
        engine_out = {}
        for group in pair_engine_cells(net, make_product_state(statistics, [one, two])).values():
            engine_out.update(group)
        oracle_out = oracle_run(net, pair_state(statistics, network_labels(net), one, two))
        assert cells_close(engine_out, oracle_cells(oracle_out))

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_conditional_states_match_pair_engine(self, statistics):
        net = fig2_network()
        one, two = Mode("A", UP), Mode("B", DOWN)
        oracle_out = oracle_run(net, pair_state(statistics, network_labels(net), one, two))
        _, conditionals = oracle_detect(oracle_out, net.monitored)
        groups = pair_engine_cells(net, make_product_state(statistics, [one, two]))
        assert set(groups) == {pattern_label(pattern) for pattern in conditionals}
        for pattern, conditional in conditionals.items():
            assert matches_up_to_phase(oracle_cells(conditional), groups[pattern_label(pattern)])


@pytest.mark.parametrize("statistics", BOTH_STATISTICS)
def test_pair_engine_matches_oracle(statistics):
    net = fig2_network()
    state = pair_state(statistics, network_labels(net), Mode("A", UP), Mode("B", DOWN))
    oracle_probs, _ = oracle_detect(oracle_run(net, state), net.monitored)

    expected = {pattern_label(pattern): p for pattern, p in oracle_probs.items()}
    got = pair_probabilities(net, make_product_state(statistics, [Mode("A", UP), Mode("B", DOWN)]))
    assert set(got) == set(expected)
    for label, p in got.items():
        assert abs(p - expected[label]) < 1e-12
