"""Unit tests for the sparse second-quantized engine."""

import math

import numpy as np
import pytest

from conftest import BOTH_STATISTICS, random_two_particle_state, random_unitary
from twinbeam.errors import NotUnitaryError, PauliExclusionError, StatisticsMismatchError
from twinbeam.fock import (
    FockState,
    Mode,
    Spin,
    Statistics,
    Substitution,
    apply_spin_rotation,
    make_product_state,
    substitute_modes,
)

UP, DOWN = Spin.UP, Spin.DOWN
A_UP, B_DOWN = Mode("A", UP), Mode("B", DOWN)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def substitution(domain, matrix, codomain=None) -> Substitution:
    """Each ``domain[j]`` goes to ``sum_i matrix[i, j] codomain[i]`` (codomain defaults to domain)."""
    codomain = domain if codomain is None else codomain
    return {src: tuple((dst, complex(matrix[i, j])) for i, dst in enumerate(codomain))
            for j, src in enumerate(domain)}


def splitter_substitution() -> Substitution:
    """The A,B -> D,C splitter as a mode-level unitary (both spins)."""
    block = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)
    domain = [Mode("A", s) for s in (UP, DOWN)] + [Mode("B", s) for s in (UP, DOWN)]
    codomain = [Mode("D", s) for s in (UP, DOWN)] + [Mode("C", s) for s in (UP, DOWN)]
    return substitution(domain, np.kron(block, np.eye(2)), codomain)


class TestMakeProductState:
    def test_fermion_canonical_order(self):
        state = make_product_state(Statistics.FERMION, [A_UP, B_DOWN])
        assert state.amplitude([A_UP, B_DOWN]) == 1.0
        assert abs(state.norm() - 1.0) < 1e-12

    def test_boson_order_irrelevant(self):
        assert make_product_state(Statistics.BOSON, [B_DOWN, A_UP]) == make_product_state(
            Statistics.BOSON, [A_UP, B_DOWN]
        )

    def test_fermion_swap_gives_sign(self):
        state = make_product_state(Statistics.FERMION, [B_DOWN, A_UP])
        assert state.terms[(A_UP, B_DOWN)] == -1.0

    def test_pauli_exclusion(self):
        with pytest.raises(PauliExclusionError):
            make_product_state(Statistics.FERMION, [A_UP, A_UP])

    def test_boson_double_occupancy_normalized(self):
        state = make_product_state(Statistics.BOSON, [A_UP, A_UP])
        assert abs(state.norm() - 1.0) < 1e-12
        assert abs(state.terms[(A_UP, A_UP)] - 1.0 / math.sqrt(2.0)) < 1e-12

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_permutation_sign(self, statistics):
        modes = [Mode("A", UP), Mode("B", DOWN), Mode("C", UP)]
        reference = make_product_state(statistics, modes)
        # cyclic permutation: two transpositions, even parity
        even = make_product_state(statistics, [modes[1], modes[2], modes[0]])
        assert even == reference
        odd = make_product_state(statistics, [modes[1], modes[0], modes[2]])
        sign = -1.0 if statistics is Statistics.FERMION else 1.0
        assert odd == sign * reference


class TestApplyUnitary:
    """Single-particle unitaries applied through ``substitute_modes``."""

    def test_single_particle_split(self):
        state = make_product_state(Statistics.BOSON, [A_UP])
        out = substitute_modes(state, splitter_substitution())
        assert abs(out.amplitude([Mode("D", UP)]) - 1.0 / math.sqrt(2.0)) < 1e-12
        assert abs(out.amplitude([Mode("C", UP)]) - 1.0j / math.sqrt(2.0)) < 1e-12

    @pytest.mark.parametrize("statistics,pair_sign", [(Statistics.FERMION, 1.0), (Statistics.BOSON, -1.0)])
    def test_opposite_spin_pair(self, statistics, pair_sign):
        state = make_product_state(statistics, [A_UP, B_DOWN])
        out = substitute_modes(state, splitter_substitution())
        assert abs(out.amplitude([Mode("D", UP), Mode("C", DOWN)]) - 0.5) < 1e-12
        assert abs(out.amplitude([Mode("D", DOWN), Mode("C", UP)]) - pair_sign * 0.5) < 1e-12
        assert abs(out.amplitude([Mode("C", UP), Mode("C", DOWN)]) - 0.5j) < 1e-12
        assert abs(out.amplitude([Mode("D", UP), Mode("D", DOWN)]) - 0.5j) < 1e-12

    def test_fermion_antibunching(self):
        state = make_product_state(Statistics.FERMION, [Mode("A", UP), Mode("B", UP)])
        out = substitute_modes(state, splitter_substitution())
        assert set(out.terms) == {(Mode("C", UP), Mode("D", UP))}
        assert abs(abs(out.terms[(Mode("C", UP), Mode("D", UP))]) - 1.0) < 1e-12

    def test_boson_bunching(self):
        state = make_product_state(Statistics.BOSON, [Mode("A", UP), Mode("B", UP)])
        out = substitute_modes(state, splitter_substitution())
        assert out.amplitude([Mode("C", UP), Mode("D", UP)]) == 0.0
        assert abs(out.amplitude([Mode("C", UP), Mode("C", UP)]) - 0.5j) < 1e-12
        assert abs(out.amplitude([Mode("D", UP), Mode("D", UP)]) - 0.5j) < 1e-12
        assert abs(out.norm() - 1.0) < 1e-9

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("seed", range(5))
    def test_norm_preserved(self, statistics, seed):
        rng = np.random.default_rng(seed)
        state = random_two_particle_state(rng, statistics, paths=("P", "Q"))
        modes = [Mode(p, s) for p in ("P", "Q") for s in (UP, DOWN)]
        out = substitute_modes(state, substitution(modes, random_unitary(rng, 4)))
        assert abs(out.norm() - state.norm()) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_fermion_exclusion_survives_unitaries(self, seed):
        rng = np.random.default_rng(100 + seed)
        state = random_two_particle_state(rng, Statistics.FERMION, paths=("P", "Q"))
        modes = [Mode(p, s) for p in ("P", "Q") for s in (UP, DOWN)]
        out = substitute_modes(state, substitution(modes, random_unitary(rng, 4)))
        for monomial in out.terms:
            assert len(set(monomial)) == len(monomial)

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_three_particle_norm_preserved(self, statistics):
        rng = np.random.default_rng(31)
        modes = [Mode(p, s) for p in ("P", "Q") for s in (UP, DOWN)]
        state = make_product_state(statistics, [modes[0], modes[1], modes[3]])
        out = substitute_modes(state, substitution(modes, random_unitary(rng, 4)))
        assert abs(out.norm() - 1.0) < 1e-9
        assert out.particle_numbers() == {3}

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("seed", range(3))
    def test_composition(self, statistics, seed):
        rng = np.random.default_rng(200 + seed)
        state = random_two_particle_state(rng, statistics, paths=("P", "Q"))
        modes = [Mode(p, s) for p in ("P", "Q") for s in (UP, DOWN)]
        mu, mv = random_unitary(rng, 4), random_unitary(rng, 4)
        u, v = substitution(modes, mu), substitution(modes, mv)
        stepwise = substitute_modes(substitute_modes(state, u), v)
        combined = substitute_modes(state, substitution(modes, mv @ mu))
        for monomial in set(stepwise.terms) | set(combined.terms):
            assert abs(stepwise.terms.get(monomial, 0j) - combined.terms.get(monomial, 0j)) < 1e-9


class TestSpinRotation:
    def test_mixes_spin(self):
        state = make_product_state(Statistics.BOSON, [Mode("C", UP)])
        out = apply_spin_rotation(state, "C", HADAMARD)
        assert abs(out.amplitude([Mode("C", UP)]) - 1.0 / math.sqrt(2.0)) < 1e-12
        assert abs(out.amplitude([Mode("C", DOWN)]) - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_identity(self):
        state = make_product_state(Statistics.FERMION, [Mode("C", UP), Mode("D", DOWN)])
        assert apply_spin_rotation(state, "C", np.eye(2)) == state

    def test_involution(self):
        state = make_product_state(Statistics.BOSON, [Mode("C", UP)])
        twice = apply_spin_rotation(apply_spin_rotation(state, "C", HADAMARD), "C", HADAMARD)
        assert abs(twice.amplitude([Mode("C", UP)]) - 1.0) < 1e-12

    def test_other_paths_untouched(self):
        state = make_product_state(Statistics.BOSON, [Mode("C", UP), Mode("D", UP)])
        out = apply_spin_rotation(state, "C", HADAMARD)
        for monomial in out.terms:
            assert all(m.spin is UP for m in monomial if m.path == "D")

    def test_rejects_non_unitary(self):
        state = make_product_state(Statistics.BOSON, [Mode("C", UP)])
        with pytest.raises(NotUnitaryError):
            apply_spin_rotation(state, "C", np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(NotUnitaryError, match="2x2"):
            apply_spin_rotation(state, "C", np.eye(3))


class TestStateBasics:
    def test_vacuum(self):
        state = FockState(Statistics.BOSON, {(): 1.0})
        assert set(state.terms) <= {()}
        assert state.particle_numbers() == {0}

    def test_prune_threshold(self):
        state = FockState(Statistics.BOSON, {(A_UP,): 1.0, (B_DOWN,): 1e-13})
        assert set(state.terms) == {(A_UP,)}

    @pytest.mark.parametrize(
        "amplitude", [math.nan, complex(math.nan, 0.0), math.inf, complex(0.0, -math.inf)],
        ids=["nan", "complex-nan", "inf", "complex-inf"],
    )
    def test_non_finite_amplitude_raises(self, amplitude):
        # NaN fails the pruning test |a| > threshold, so it would otherwise vanish silently
        with pytest.raises(ValueError, match="is not finite"):
            FockState(Statistics.BOSON, {(A_UP,): 1.0, (B_DOWN,): amplitude})

    @pytest.mark.parametrize("scalar", [math.nan, math.inf])
    def test_non_finite_scaling_raises(self, scalar):
        pair = make_product_state(Statistics.FERMION, [A_UP, B_DOWN])
        with pytest.raises(ValueError, match="is not finite"):
            pair * scalar

    def test_terms_are_read_only(self):
        state = make_product_state(Statistics.BOSON, [A_UP])
        with pytest.raises(TypeError):
            state.terms[(B_DOWN,)] = 1.0
        assert set(state.terms) == {(A_UP,)}

    def test_addition_requires_matching_statistics(self):
        x = make_product_state(Statistics.FERMION, [A_UP])
        y = make_product_state(Statistics.BOSON, [A_UP])
        with pytest.raises(StatisticsMismatchError):
            x + y

    def test_linear_combination(self):
        x = make_product_state(Statistics.BOSON, [A_UP])
        y = make_product_state(Statistics.BOSON, [B_DOWN])
        combo = (0.6 * x + 0.8j * y).normalized()
        assert abs(combo.amplitude([A_UP]) - 0.6) < 1e-12
        assert abs(combo.amplitude([B_DOWN]) - 0.8j) < 1e-12
