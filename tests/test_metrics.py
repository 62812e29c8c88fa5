"""Tests for reductions, concurrence, CHSH, and the complementarity pipeline."""

import math

import numpy as np
import pytest

from conftest import BOTH_STATISTICS, random_unitary
from twinbeam.errors import OccupancyError
from twinbeam.fock import Mode, Spin, Statistics, make_product_state
from twinbeam.interferometer import coincidence, detect, fig1_network, postselect, run_network
from twinbeam.metrics import (
    PSI_MINUS,
    PSI_PLUS,
    TwoQubitDM,
    chsh_expectation,
    classify_bell,
    coincidence_spin_dm,
    complementarity_check,
    concurrence,
    distinguishability,
    dual_relabel,
    gaussian_overlap,
    infer_concurrence_from_chsh,
    reduce_to_spin_dm,
    tagged_opposite_spin_input,
)

UP, DOWN = Spin.UP, Spin.DOWN
ROOT8 = 2.0 * math.sqrt(2.0)


def pure_dm(vector, labels=("C", "D")):
    v = np.asarray(vector, dtype=complex)
    return TwoQubitDM(np.outer(v, v.conj()), labels)


def coincidence_state(statistics, overlap=1.0):
    net = fig1_network()
    out = run_network(net, tagged_opposite_spin_input(statistics, overlap))
    _, conditional = postselect(detect(out, net.monitored), coincidence)
    return conditional.branches[0].state


def mixed_fermion_dm():
    matrix = np.diag([1 / 3, 1 / 6, 1 / 6, 1 / 3]).astype(complex)
    matrix[1, 2] = matrix[2, 1] = 1 / 6
    return TwoQubitDM(matrix, ("C", "D"))


class TestReduceToSpinDM:
    def test_fermion_coincidence_is_psi_plus(self):
        dm = reduce_to_spin_dm(coincidence_state(Statistics.FERMION), "C", "D")
        assert abs(dm.fidelity(PSI_PLUS) - 1.0) < 1e-12
        assert abs(concurrence(dm) - 1.0) < 1e-9

    def test_boson_coincidence_is_psi_minus(self):
        dm = reduce_to_spin_dm(coincidence_state(Statistics.BOSON), "C", "D")
        assert abs(dm.fidelity(PSI_MINUS) - 1.0) < 1e-12

    def test_product_state_reduces_to_product(self):
        state = make_product_state(Statistics.FERMION, [Mode("C", UP), Mode("D", DOWN)])
        dm = reduce_to_spin_dm(state, "C", "D")
        assert abs(dm.matrix[1, 1] - 1.0) < 1e-12
        assert concurrence(dm) == 0.0

    @pytest.mark.parametrize("statistics,sign", [(Statistics.FERMION, 1.0), (Statistics.BOSON, -1.0)])
    def test_tagged_pair_off_diagonals(self, statistics, sign):
        overlap = math.sqrt(0.4)
        dm = reduce_to_spin_dm(coincidence_state(statistics, overlap), "C", "D")
        assert abs(dm.matrix[1, 1] - 0.5) < 1e-12
        assert abs(dm.matrix[2, 2] - 0.5) < 1e-12
        assert abs(dm.matrix[1, 2] - sign * 0.4 / 2.0) < 1e-12

    def test_occupancy_violation_names_monomial(self):
        state = make_product_state(Statistics.BOSON, [Mode("C", UP), Mode("C", DOWN)])
        with pytest.raises(OccupancyError, match="C"):
            reduce_to_spin_dm(state, "C", "D")

    def test_qubit_order_is_lexicographic(self):
        state = make_product_state(Statistics.FERMION, [Mode("C", UP), Mode("D", DOWN)])
        assert reduce_to_spin_dm(state, "D", "C").labels == ("C", "D")

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("overlap_sq", [0.0, 0.3, 0.8, 1.0])
    def test_output_is_valid_density_matrix(self, statistics, overlap_sq):
        dm = reduce_to_spin_dm(coincidence_state(statistics, math.sqrt(overlap_sq)), "C", "D")
        dm.validate()

    def test_matrix_is_a_read_only_copy(self):
        matrix = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        dm = TwoQubitDM(matrix, ("C", "D"))
        matrix[0, 0] = 0.5
        assert dm.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 0.5


class TestConcurrence:
    def test_bell_states_are_maximal(self):
        assert abs(concurrence(pure_dm(PSI_MINUS)) - 1.0) < 1e-12
        assert abs(concurrence(pure_dm(PSI_PLUS)) - 1.0) < 1e-12

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_quarter_overlap(self, statistics):
        dm = coincidence_spin_dm(statistics, math.sqrt(0.25))
        assert abs(concurrence(dm) - 0.25) < 1e-9

    def test_mixed_fermion_state_is_separable(self):
        assert concurrence(mixed_fermion_dm()) == 0.0

    def test_rejects_invalid_matrix(self):
        with pytest.raises(ValueError):
            TwoQubitDM(np.eye(4, dtype=complex), ("C", "D"))

    @pytest.mark.parametrize("seed", range(6))
    def test_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(500 + seed)
        base = coincidence_spin_dm(
            Statistics.FERMION if seed % 2 else Statistics.BOSON, math.sqrt(rng.random())
        )
        local = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = TwoQubitDM(local @ base.matrix @ local.conj().T, base.labels)
        assert abs(concurrence(rotated) - concurrence(base)) < 1e-9


class TestChsh:
    def test_bell_states_reach_the_bound(self):
        assert abs(chsh_expectation(pure_dm(PSI_PLUS)) - ROOT8) < 1e-12
        assert abs(chsh_expectation(pure_dm(PSI_MINUS)) + ROOT8) < 1e-12

    def test_maximally_mixed_vanishes(self):
        dm = TwoQubitDM(np.eye(4, dtype=complex) / 4.0, ("C", "D"))
        assert abs(chsh_expectation(dm)) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_separable_states_stay_classical(self, seed):
        rng = np.random.default_rng(700 + seed)
        matrix = np.zeros((4, 4), dtype=complex)
        for _ in range(3):
            u = random_unitary(rng, 2)[:, 0]
            v = random_unitary(rng, 2)[:, 0]
            pure = np.kron(u, v)
            matrix += rng.random() * np.outer(pure, pure.conj())
        matrix /= np.trace(matrix).real
        value = chsh_expectation(TwoQubitDM(matrix, ("C", "D")))
        assert abs(value) <= 2.0 + 1e-9


class TestInferConcurrenceFromChsh:
    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("overlap_sq", [0.0, 0.5, 1.0])
    def test_matches_direct_concurrence(self, statistics, overlap_sq):
        dm = coincidence_spin_dm(statistics, math.sqrt(overlap_sq))
        inferred = infer_concurrence_from_chsh(dm, statistics)
        assert abs(inferred - overlap_sq) < 1e-9
        assert abs(inferred - concurrence(dm)) < 1e-9


class TestDistinguishability:
    def test_limits(self):
        assert distinguishability(0.0) == 1.0
        assert distinguishability(1.0) == 0.0

    def test_intermediate_value(self):
        assert abs(distinguishability(math.sqrt(0.3)) - 0.7) < 1e-12

    def test_complex_overlap_uses_magnitude(self):
        assert abs(distinguishability(0.5j) - 0.75) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            distinguishability(1.5)


class TestComplementarity:
    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_extremes(self, statistics):
        entanglement, discrimination, total = complementarity_check(1.0, statistics)
        assert abs(entanglement - 1.0) < 1e-9 and abs(discrimination) < 1e-12
        entanglement, discrimination, total = complementarity_check(0.0, statistics)
        assert abs(entanglement) < 1e-9 and abs(discrimination - 1.0) < 1e-12
        assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_intermediate_point(self, statistics):
        entanglement, discrimination, total = complementarity_check(
            math.sqrt(0.6), statistics
        )
        assert abs(entanglement - 0.6) < 1e-9
        assert abs(discrimination - 0.4) < 1e-12
        assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_sum_rule_on_grid(self, statistics):
        for overlap_sq in np.linspace(0.0, 1.0, 21):
            _, _, total = complementarity_check(math.sqrt(overlap_sq), statistics)
            assert abs(total - 1.0) < 1e-9

    def test_complex_overlap_phase_is_irrelevant(self):
        phase = complex(math.cos(1.1), math.sin(1.1))
        entanglement, _, _ = complementarity_check(0.7 * phase, Statistics.BOSON)
        assert abs(entanglement - 0.49) < 1e-9


class TestGaussianOverlap:
    def test_zero_delay(self):
        assert gaussian_overlap(2.0, 0.0, 1.0) == 1.0

    def test_reference_point(self):
        # v * dt = sigma * sqrt(2) makes the squared overlap 1/e
        overlap = gaussian_overlap(1.0, math.sqrt(2.0), 1.0)
        assert abs(overlap ** 2 - math.exp(-1.0)) < 1e-12

    def test_wide_packets_overlap_fully(self):
        values = [gaussian_overlap(1.0, 1.0, w) for w in (1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.99

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            gaussian_overlap(1.0, 1.0, 0.0)


class TestDualRelabel:
    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_coincidence_state_is_path_entangled(self, statistics):
        dm = dual_relabel(coincidence_state(statistics), "C", "D")
        assert dm.labels == ("up", "down")
        assert abs(concurrence(dm) - 1.0) < 1e-9

    def test_product_state_is_path_separable(self):
        state = make_product_state(Statistics.FERMION, [Mode("C", UP), Mode("D", DOWN)])
        assert concurrence(dual_relabel(state, "C", "D")) == 0.0

    def test_bunched_state_maps_to_same_path(self):
        state = make_product_state(Statistics.BOSON, [Mode("C", UP), Mode("C", DOWN)])
        dm = dual_relabel(state, "C", "D")
        assert abs(dm.matrix[0, 0] - 1.0) < 1e-12

    def test_rejects_equal_spins(self):
        state = make_product_state(Statistics.FERMION, [Mode("C", UP), Mode("D", UP)])
        with pytest.raises(OccupancyError):
            dual_relabel(state, "C", "D")

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("overlap_sq", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_agrees_with_spin_picture(self, statistics, overlap_sq):
        state = coincidence_state(statistics, math.sqrt(overlap_sq))
        spin = concurrence(reduce_to_spin_dm(state, "C", "D"))
        path = concurrence(dual_relabel(state, "C", "D"))
        assert abs(spin - path) < 1e-9


class TestClassifyBell:
    def test_names_the_bell_states(self):
        assert classify_bell(pure_dm(PSI_PLUS)) == "psi_plus"
        assert classify_bell(pure_dm(PSI_MINUS)) == "psi_minus"

    def test_rejects_everything_else(self):
        assert classify_bell(TwoQubitDM(np.eye(4, dtype=complex) / 4.0, ("C", "D"))) is None
