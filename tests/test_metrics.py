"""Tests for reductions, concurrence, CHSH, and the complementarity pipeline."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BOTH_STATISTICS,
    chsh_traces,
    fidelity,
    random_unitary,
    wootters_concurrences,
)
from twinbeam import metrics
from twinbeam.errors import OccupancyError
from twinbeam.fock import Mode, Spin, Statistics, make_product_state
from twinbeam.interferometer import heralded_pair
from twinbeam.metrics import (
    BELL_TOL,
    PSI_MINUS,
    PSI_PLUS,
    TwoQubitDM,
    bell_index,
    chsh_values,
    concurrences,
    density_matrices,
    distinguishability,
    dual_relabel,
    gaussian_overlap,
    reduce_to_spin_dm,
    tagged_opposite_spin_input,
    validate_dms,
)
from twinbeam.scenarios import METRICS_CHUNK, _heralded_blocks

UP, DOWN = Spin.UP, Spin.DOWN
ROOT8 = 2.0 * math.sqrt(2.0)


def projector(vector):
    v = np.asarray(vector, dtype=complex)
    return np.outer(v, v.conj())


def coincidence_state(statistics, overlap=1.0):
    return heralded_pair(tagged_opposite_spin_input(statistics, overlap)).state


def heralded_spin_dms(statistics, overlaps):
    """Spin matrices of the sweeps' ``scenarios._heralded_blocks``, one ``(k, 4, 4)`` stack."""
    chunks = list(_heralded_blocks(statistics, overlaps))
    assert all(0 < len(v) <= METRICS_CHUNK for v in chunks)
    return np.concatenate([np.empty((0, 4, 4), dtype=complex), *map(density_matrices, chunks)])


def coincidence_block(statistics, overlap):
    """The one ``(4, T)`` block of a one-point sweep."""
    (v,) = next(_heralded_blocks(statistics, [overlap]))
    return v


def mixed_fermion_block():
    """|up up>, |down down> and psi+ as three columns of weight 1/3: a separable mixture."""
    return np.array([[1, 0, 0, 0], [0, 0, 0, 1], PSI_PLUS]).T / math.sqrt(3.0)


class TestReduceToSpinDM:
    def test_fermion_coincidence_is_psi_plus(self):
        v = reduce_to_spin_dm(coincidence_state(Statistics.FERMION), "C", "D")
        assert abs(fidelity(v, PSI_PLUS) - 1.0) < 1e-12
        assert abs(concurrences(v) - 1.0) < 1e-9

    def test_boson_coincidence_is_psi_minus(self):
        v = reduce_to_spin_dm(coincidence_state(Statistics.BOSON), "C", "D")
        assert abs(fidelity(v, PSI_MINUS) - 1.0) < 1e-12

    def test_product_state_reduces_to_product(self):
        state = make_product_state(Statistics.FERMION, [Mode("C", UP), Mode("D", DOWN)])
        v = reduce_to_spin_dm(state, "C", "D")
        assert abs(density_matrices(v)[1, 1] - 1.0) < 1e-12
        assert concurrences(v) == 0.0

    @pytest.mark.parametrize("statistics,sign", [(Statistics.FERMION, 1.0), (Statistics.BOSON, -1.0)])
    def test_tagged_pair_off_diagonals(self, statistics, sign):
        overlap = math.sqrt(0.4)
        rho = density_matrices(reduce_to_spin_dm(coincidence_state(statistics, overlap), "C", "D"))
        assert abs(rho[1, 1] - 0.5) < 1e-12
        assert abs(rho[2, 2] - 0.5) < 1e-12
        assert abs(rho[1, 2] - sign * 0.4 / 2.0) < 1e-12

    def test_occupancy_violation_names_monomial(self):
        state = make_product_state(Statistics.BOSON, [Mode("C", UP), Mode("C", DOWN)])
        with pytest.raises(OccupancyError, match="C"):
            reduce_to_spin_dm(state, "C", "D")

    def test_qubit_order_is_lexicographic(self):
        # C up, D down is |01> with C the first qubit, |10> with D first
        state = make_product_state(Statistics.FERMION, [Mode("C", UP), Mode("D", DOWN)])
        assert density_matrices(reduce_to_spin_dm(state, "D", "C"))[1, 1] == 1.0

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("overlap_sq", [0.0, 0.3, 0.8, 1.0])
    def test_output_is_valid_density_matrix(self, statistics, overlap_sq):
        v = reduce_to_spin_dm(coincidence_state(statistics, math.sqrt(overlap_sq)), "C", "D")
        assert abs(np.linalg.norm(v) - 1.0) < 1e-15
        validate_dms(density_matrices(v))

    def test_matrix_is_a_read_only_copy(self):
        matrix = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        dm = TwoQubitDM(matrix)
        matrix[0, 0] = 0.5
        assert dm.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 0.5

    @pytest.mark.parametrize("reduce", [reduce_to_spin_dm, dual_relabel])
    def test_overflowing_block_raises(self, reduce):
        # amplitudes of 1e200 are finite, their squared norm is not
        state = 1e200 * coincidence_state(Statistics.FERMION)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="norm inf is not finite"):
            reduce(state, "C", "D")


class TestConcurrence:
    def test_bell_states_are_maximal(self):
        blocks = np.array([PSI_MINUS, PSI_PLUS])[..., None]
        assert np.all(np.abs(concurrences(blocks) - 1.0) < 1e-12)

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_quarter_overlap(self, statistics):
        assert abs(concurrences(coincidence_block(statistics, math.sqrt(0.25))) - 0.25) < 1e-9

    def test_mixed_fermion_state_is_separable(self):
        assert concurrences(mixed_fermion_block()) == 0.0

    def test_rejects_invalid_matrix(self):
        with pytest.raises(ValueError):
            TwoQubitDM(np.eye(4, dtype=complex))

    @pytest.mark.parametrize("seed", range(6))
    def test_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(500 + seed)
        base = coincidence_block(
            Statistics.FERMION if seed % 2 else Statistics.BOSON, math.sqrt(rng.random())
        )
        local = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        c_base, c_rotated = concurrences(np.array([base, local @ base]))
        assert abs(c_rotated - c_base) < 1e-9


# Per-matrix reference version of the stacked check, kept as it was before
# batching; the stacked function must agree with it exactly.


def reference_validate(m):
    if not np.allclose(m, m.conj().T, atol=1e-9, rtol=0.0):
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(m).real - 1.0) > 1e-9 or abs(np.trace(m).imag) > 1e-9:
        raise ValueError("density matrix trace is not 1 within tolerance")
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    if eigs.min() < -1e-9:
        raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")


def reference_bell_index(rho):
    """1 for psi+ (tested first), 2 for psi-, 0 for neither, from the spin matrix."""
    for index, pure in ((1, PSI_PLUS), (2, PSI_MINUS)):
        if float(np.real(pure.conj() @ rho @ pure)) > 1.0 - 1e-9:
            return index
    return 0


def random_blocks(seed, n_random, tags):
    """Random complex 4 x tags blocks, mixed with Bell, product and |01> states.

    Each pure state sits in its own random unit vector over the tag columns, a
    global phase included, so that its block is tag-mixed but its spin state pure.
    """
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n_random, 4, tags)) + 1j * rng.normal(size=(n_random, 4, tags))
    product = np.kron(random_unitary(rng, 2)[:, 0], random_unitary(rng, 2)[:, 0])
    pure = [
        np.outer(state, random_unitary(rng, tags)[0])
        for state in (PSI_PLUS, PSI_MINUS, product, np.array([0, 1, 0, 0]))
    ]
    blocks = np.concatenate([v, pure])
    return blocks[rng.permutation(len(blocks))]


def block_cases(seed, n_random, tags):
    """:func:`random_blocks`, unnormalized, then copies with one column zeroed or made tiny.

    Each block is scaled by a random factor in [0.1, 10).  With two or more
    tags there follow the same blocks with one column of zeros, then X
    blocks (no uu or dd row): the blocks with rows 0 and 3 zeroed and one
    column scaled by 1e-20, then those with another column zeroed too.
    Every copy keeps a nonzero column, so that no block is zero.
    """
    rng = np.random.default_rng([seed, 1])
    blocks = random_blocks(seed, n_random, tags)
    blocks = blocks * rng.uniform(0.1, 10.0, size=(len(blocks), 1, 1))
    if tags == 1:
        return blocks
    rows, columns = np.arange(len(blocks)), rng.integers(tags, size=len(blocks))
    zeroed = blocks.copy()
    zeroed[rows, :, columns] = 0.0
    tiny = blocks.copy()
    tiny[:, [0, 3]] = 0.0
    tiny[rows, :, (columns + 1) % tags] *= 1e-20
    x_zeroed = tiny.copy()
    x_zeroed[rows, :, columns] = 0.0
    return np.concatenate([blocks, zeroed, tiny, x_zeroed])


def is_x_block(v):
    """Whether each block of a stack has no uu and no dd row."""
    return ~(v[..., 0, :].any(axis=-1) | v[..., 3, :].any(axis=-1))


#: the maximally mixed block: its spin matrix v v†/tr is I/4
MIXED_BLOCK = np.eye(4, dtype=complex) / 2.0


def random_stack(seed, n_random, tags):
    """The spin matrices v v†/tr of :func:`random_blocks`, then I/4."""
    return np.concatenate([density_matrices(random_blocks(seed, n_random, tags)), [np.eye(4) / 4]])


class TestBlockFormulas:
    """The block metrics against the 4x4 references on ``v v† / |v|^2``."""

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_random=st.integers(0, 12), tags=st.integers(1, 4))
    def test_concurrences_match_wootters(self, seed, n_random, tags):
        blocks = block_cases(seed, n_random, tags)
        values = concurrences(blocks)
        assert values.shape == (len(blocks),)
        assert np.abs(values - wootters_concurrences(density_matrices(blocks))).max() < 1e-12
        assert concurrences(blocks[None]).tolist() == [values.tolist()]
        # one unstacked block gives the same value on its own
        for block, c in zip(blocks, values.tolist()):
            assert concurrences(block).item() == c

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_random=st.integers(0, 12), tags=st.integers(1, 4))
    def test_chsh_values_match_the_trace(self, seed, n_random, tags):
        blocks = block_cases(seed, n_random, tags)
        values = chsh_values(blocks)
        assert values.shape == (len(blocks),)
        assert np.abs(values - chsh_traces(density_matrices(blocks))).max() < 1e-12
        assert chsh_values(blocks[None]).tolist() == [values.tolist()]

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_random=st.integers(0, 12), tags=st.integers(1, 4))
    def test_chsh_values_keep_the_quantum_bound(self, seed, n_random, tags):
        # v v† / |v|^2 is a density matrix for every nonzero block, so no bound check is needed
        assert np.abs(chsh_values(block_cases(seed, n_random, tags))).max() <= ROOT8 + 1e-12

    @pytest.mark.parametrize("tags", [2, 3, 4])
    def test_interleaved_x_blocks_keep_their_own_values(self, tags):
        # X and general blocks alternate in a (2, k, 4, T) stack
        cases = block_cases(tags, 6, tags)
        x = is_x_block(cases)
        k = min(x.sum(), (~x).sum())
        blocks = np.stack([cases[x][:k], cases[~x][:k]], axis=1).reshape(2, k, 4, tags)
        assert is_x_block(blocks).any(axis=-1).all() and not is_x_block(blocks).all()
        values = concurrences(blocks)
        assert values.shape == (2, k)
        assert values.tolist() == [[concurrences(b).item() for b in row] for row in blocks]

    def test_product_states_are_exactly_separable(self):
        # real factors, so that v0 v3 and v1 v2 round alike (complex products may not)
        up, down = np.eye(2, dtype=complex)
        factors = [up, down, (up + down) / math.sqrt(2.0), (up - 2.0 * down) / math.sqrt(5.0)]
        products = np.array([np.kron(a, b) for a in factors for b in factors])[..., None]
        assert concurrences(products).tolist() == [0.0] * len(products)
        # the same with a second, empty tag column: the non-X products take the SVD either way
        tagged = np.concatenate([products, np.zeros_like(products)], axis=-1)
        assert concurrences(tagged).tolist() == [0.0] * len(products)

    @pytest.mark.parametrize("shape", [(4, 2), (3, 4, 1)], ids=["block", "stack"])
    def test_zero_block_gives_zero(self, shape):
        # no spin matrix: no entanglement, no CHSH value and no Bell state, and no warning
        zeros, stack = np.zeros(shape), shape[:-2]
        assert np.array_equal(concurrences(zeros), np.zeros(stack))
        assert np.array_equal(chsh_values(zeros), np.zeros(stack))
        assert np.array_equal(bell_index(zeros), np.zeros(stack, dtype=int))

    def test_a_zero_tag_column_changes_no_bit(self):
        # one X-state form for any number of tag columns: a one-column X block and its
        # copy padded with an empty column get the same concurrence, bit for bit
        rng = np.random.default_rng(35)
        blocks = np.zeros((100_000, 4, 1), dtype=complex)
        blocks[:, 1:3, 0] = rng.normal(size=(100_000, 2)) + 1j * rng.normal(size=(100_000, 2))
        padded = np.concatenate([blocks, np.zeros_like(blocks)], axis=-1)
        assert concurrences(blocks).tolist() == concurrences(padded).tolist()

    def test_bell_states_are_maximal(self):
        phased = np.array([0, 1, np.exp(0.7j), 0]) / math.sqrt(2.0)
        closed = concurrences(np.array([PSI_PLUS, PSI_MINUS, phased])[..., None])
        assert np.abs(closed - 1.0).max() < 1e-12


class TestStackedMetrics:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_random=st.integers(0, 12),
        tags=st.integers(1, 3),
    )
    def test_stack_matches_per_matrix_reference(self, seed, n_random, tags):
        stack = random_stack(seed, n_random, tags)
        validate_dms(stack)
        for m in stack:
            reference_validate(m)
            # one unstacked 4x4 matrix is valid on its own, and kept as it was given
            assert np.array_equal(TwoQubitDM(m).matrix, m)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_random=st.integers(0, 12),
        tags=st.integers(1, 3),
    )
    def test_bell_index_matches_the_spin_matrix_reference(self, seed, n_random, tags):
        blocks = random_blocks(seed, n_random, tags)
        expected = [reference_bell_index(m) for m in density_matrices(blocks)]
        assert bell_index(blocks).tolist() == expected
        assert bell_index(blocks[None]).tolist() == [expected]
        assert expected.count(1) >= 1 and expected.count(2) >= 1
        # one unstacked 4xT block gives the same index on its own
        for block, index in zip(blocks, expected):
            assert bell_index(block) == index
        assert bell_index(MIXED_BLOCK) == reference_bell_index(np.eye(4) / 4.0) == 0

    @pytest.mark.parametrize(
        "bad",
        [
            np.diag([0.4, 0.3, 0.2, 0.1]) + np.diag([1e-6, 0.0, 0.0], k=1),
            2.0 * np.diag([0.4, 0.3, 0.2, 0.1]),
            np.diag([0.6, 0.5, 0.1, -0.2]),
        ],
        ids=["non-hermitian", "trace-2", "negative-eigenvalue"],
    )
    def test_one_invalid_matrix_raises_its_own_error_in_a_stack(self, bad):
        bad = bad.astype(complex)
        with pytest.raises(ValueError) as single:
            TwoQubitDM(bad)
        with pytest.raises(ValueError) as reference:
            reference_validate(bad)
        assert str(single.value) == str(reference.value)
        stack = random_stack(3, 9, 2)
        stack[5] = bad
        # a later, more negative matrix must not change the message
        stack[8] = np.diag([1.3, 0.1, 0.1, -0.5])
        with pytest.raises(ValueError) as stacked:
            validate_dms(stack)
        assert str(stacked.value) == str(single.value)

    def test_each_check_covers_the_whole_stack_before_the_next(self):
        # matrix 2 fails only the eigenvalue check, the later matrix 5 the Hermitian one
        stack = random_stack(3, 9, 2)
        stack[2] = np.diag([0.6, 0.5, 0.1, -0.2])
        stack[5] = np.diag([0.4, 0.3, 0.2, 0.1]) + np.diag([1e-6, 0.0, 0.0], k=1)
        with pytest.raises(ValueError, match="not Hermitian"):
            validate_dms(stack)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            validate_dms(np.eye(3, dtype=complex) / 3.0)


class TestChsh:
    def test_bell_states_reach_the_bound(self):
        plus, minus = chsh_values(np.array([PSI_PLUS, PSI_MINUS])[..., None])
        assert abs(plus - ROOT8) < 1e-12
        assert abs(minus + ROOT8) < 1e-12

    def test_maximally_mixed_vanishes(self):
        assert abs(chsh_values(MIXED_BLOCK)) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_separable_states_stay_classical(self, seed):
        rng = np.random.default_rng(700 + seed)
        columns = []
        for _ in range(3):
            u = random_unitary(rng, 2)[:, 0]
            v = random_unitary(rng, 2)[:, 0]
            pure = np.kron(u, v)
            columns.append(math.sqrt(rng.random()) * pure)
        assert abs(chsh_values(np.array(columns).T)) <= 2.0 + 1e-9


class TestChshOfCoincidences:
    """The heralded pair's CHSH value is 2 sqrt2 times its concurrence, negated for bosons."""

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("overlap_sq", [0.0, 0.5, 1.0])
    def test_matches_direct_concurrence(self, statistics, overlap_sq):
        v = coincidence_block(statistics, math.sqrt(overlap_sq))
        sign = -1.0 if statistics is Statistics.BOSON else 1.0
        inferred = chsh_values(v) / (sign * ROOT8)
        assert abs(inferred - overlap_sq) < 1e-9
        assert abs(inferred - concurrences(v)) < 1e-9


overlaps = st.one_of(
    st.floats(0.0, 1.0),
    st.builds(
        lambda magnitude, phase: magnitude * complex(math.cos(phase), math.sin(phase)),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2.0 * math.pi),
    ),
)


#: entrywise bound, fixed before the superposition landed, between a superposed
#: matrix and its per-point reduction; over 1,505 real and complex overlaps per
#: statistics the worst entry differed by 2.2e-16
SUPERPOSITION_ATOL = 1e-15


def per_point_spin_dms(statistics, points):
    """The reference: one sparse pipeline and one reduction per overlap."""
    blocks = [reduce_to_spin_dm(coincidence_state(statistics, o), "C", "D") for o in points]
    return np.array([density_matrices(v) for v in blocks]).reshape(-1, 4, 4)


class TestHeraldedBlocks:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(statistics=st.sampled_from(BOTH_STATISTICS), points=st.lists(overlaps, max_size=6))
    def test_each_matrix_matches_the_single_point_reduction(self, statistics, points):
        rho = heralded_spin_dms(statistics, points)
        assert rho.shape == (len(points), 4, 4)
        reference = per_point_spin_dms(statistics, points)
        np.testing.assert_allclose(rho, reference, rtol=0.0, atol=SUPERPOSITION_ATOL)

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize(
        "points",
        [[0.0, 1.0, 1j, -1.0], np.sqrt(np.linspace(0.0, 1.0, 1001))],
        ids=["basis", "complementarity-grid-1001"],
    )
    def test_fixed_overlaps_match_the_single_point_reduction(self, statistics, points):
        rho = heralded_spin_dms(statistics, points)
        assert rho.shape == (len(points), 4, 4)
        reference = per_point_spin_dms(statistics, points)
        np.testing.assert_allclose(rho, reference, rtol=0.0, atol=SUPERPOSITION_ATOL)


@pytest.mark.parametrize("overlap", [math.nan, complex(math.nan, 0.0), math.inf, 1.0 + 1e-9])
@pytest.mark.parametrize(
    "check",
    [
        distinguishability,
        lambda overlap: tagged_opposite_spin_input(Statistics.FERMION, overlap),
    ],
    ids=["distinguishability", "tagged_opposite_spin_input"],
)
def test_overlap_outside_the_unit_disc_raises(check, overlap):
    with pytest.raises(ValueError, match=r"\|overlap\| = .* exceeds 1"):
        check(overlap)


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

    def test_square_is_correctly_rounded(self):
        # float(Fraction) rounds the exact square once; libm pow may miss it by an ulp
        mags = np.random.default_rng(70).uniform(0.0, 1.0, 20000).tolist()
        exact = [1.0 - float(Fraction(m) ** 2) for m in mags]
        assert [distinguishability(m) for m in mags] == exact


def test_tagged_input_residual_square_is_correctly_rounded():
    mags = np.random.default_rng(72).uniform(0.0, 1.0, 2000).tolist()
    orthogonal = (Mode("A", Spin.UP, 0), Mode("B", Spin.DOWN, 1))
    got = [tagged_opposite_spin_input(Statistics.BOSON, m).terms[orthogonal] for m in mags]
    assert got == [math.sqrt(1.0 - float(Fraction(m) ** 2)) for m in mags]


def complementarity(overlap, statistics):
    """(E, D, E + D) of a tagged pair, E from the full pipeline."""
    entanglement = concurrences(coincidence_block(statistics, overlap)).item()
    discrimination = distinguishability(overlap)
    return entanglement, discrimination, entanglement + discrimination


class TestComplementarity:
    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_extremes(self, statistics):
        entanglement, discrimination, total = complementarity(1.0, statistics)
        assert abs(entanglement - 1.0) < 1e-9 and abs(discrimination) < 1e-12
        entanglement, discrimination, total = complementarity(0.0, statistics)
        assert abs(entanglement) < 1e-9 and abs(discrimination - 1.0) < 1e-12
        assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_intermediate_point(self, statistics):
        entanglement, discrimination, total = complementarity(
            math.sqrt(0.6), statistics
        )
        assert abs(entanglement - 0.6) < 1e-9
        assert abs(discrimination - 0.4) < 1e-12
        assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_sum_rule_on_grid(self, statistics):
        for overlap_sq in np.linspace(0.0, 1.0, 21):
            _, _, total = complementarity(math.sqrt(overlap_sq), statistics)
            assert abs(total - 1.0) < 1e-9

    def test_complex_overlap_phase_is_irrelevant(self):
        phase = complex(math.cos(1.1), math.sin(1.1))
        entanglement, _, _ = complementarity(0.7 * phase, Statistics.BOSON)
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

    def test_square_is_correctly_rounded(self):
        # with unit delay and width the ratio is the velocity, squared and rounded once
        ratios = np.random.default_rng(71).uniform(0.0, 6.0, 20000).tolist()
        exact = [math.exp(-float(Fraction(r) ** 2) / 4.0) for r in ratios]
        assert [gaussian_overlap(r, 1.0, 1.0) for r in ratios] == exact

    def test_overflowing_square_raises(self):
        # the ratio 1e200 is finite and its square is not
        with pytest.raises(ValueError, match="leave the float range"):
            gaussian_overlap(1e200, 1.0, 1.0)


class TestDualRelabel:
    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_coincidence_state_is_path_entangled(self, statistics):
        v = dual_relabel(coincidence_state(statistics), "C", "D")
        assert abs(concurrences(v) - 1.0) < 1e-9

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_qubit_order_is_up_then_down(self, statistics):
        # up on D, down on C is |YX> = |10> with the up particle first, |01> with down first
        state = make_product_state(statistics, [Mode("C", DOWN), Mode("D", UP)])
        assert density_matrices(dual_relabel(state, "C", "D"))[2, 2] == 1.0

    def test_product_state_is_path_separable(self):
        state = make_product_state(Statistics.FERMION, [Mode("C", UP), Mode("D", DOWN)])
        assert concurrences(dual_relabel(state, "C", "D")) == 0.0

    def test_bunched_state_maps_to_same_path(self):
        state = make_product_state(Statistics.BOSON, [Mode("C", UP), Mode("C", DOWN)])
        rho = density_matrices(dual_relabel(state, "C", "D"))
        assert abs(rho[0, 0] - 1.0) < 1e-12

    def test_rejects_equal_spins(self):
        state = make_product_state(Statistics.FERMION, [Mode("C", UP), Mode("D", UP)])
        with pytest.raises(OccupancyError):
            dual_relabel(state, "C", "D")

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("overlap", [1.0, 0.0], ids=["untagged", "tagged"])
    def test_is_the_spin_block_with_row_2_times_the_exchange_sign(self, statistics, overlap):
        # a coincidence holds |up down> and |down up>; the latter lists the down particle first
        state = coincidence_state(statistics, overlap)
        eta = -1.0 if statistics is Statistics.FERMION else 1.0
        spin = reduce_to_spin_dm(state, "C", "D")
        assert spin[1].any() and spin[2].any() and not (spin[0].any() or spin[3].any())
        expected = np.array([1.0, 1.0, eta, 1.0])[:, None] * spin
        assert np.array_equal(dual_relabel(state, "C", "D"), expected)

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("overlap_sq", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_agrees_with_spin_picture(self, statistics, overlap_sq):
        state = coincidence_state(statistics, math.sqrt(overlap_sq))
        pictures = np.array([reduce_to_spin_dm(state, "C", "D"), dual_relabel(state, "C", "D")])
        spin, path = concurrences(pictures)
        assert abs(spin - path) < 1e-9


def matmul_bell_index(v):
    """:func:`bell_index` as one batched product with the bras of psi+ and psi-, and the
    two fidelities it tests: the overlaps summed over the tag columns, over |v|^2."""
    bras = np.array([PSI_PLUS, PSI_MINUS]).conj().T
    overlaps = (np.abs(v.swapaxes(-1, -2) @ bras) ** 2).sum(axis=-2)
    norms = metrics._norms_sq(v)[..., None]
    bell = overlaps > (1.0 - BELL_TOL) * norms
    return np.where(bell[..., 0], 1, 2 * bell[..., 1]), overlaps / norms


@st.composite
def bell_test_blocks(draw):
    """A ``(n, 4, T)`` stack, T in 1..4: general blocks with uu and dd rows, X blocks,
    psi+ and psi- times a tag state, each alone and a little off it, and zero blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tags = draw(st.integers(1, 4))

    def noise(n):
        return rng.normal(size=(n, 4, tags)) + 1j * rng.normal(size=(n, 4, tags))

    general = noise(draw(st.integers(0, 6)))
    x_blocks = noise(draw(st.integers(0, 6)))
    x_blocks[:, [0, 3]] = 0
    tag_states = noise(4)[:, 0]
    tag_states /= np.linalg.norm(tag_states, axis=-1, keepdims=True)
    bell = np.array([np.outer(b, t) for b in (PSI_PLUS, PSI_MINUS) for t in tag_states[:2]])
    bell *= np.exp(1j * rng.uniform(0, 2 * np.pi, size=(len(bell), 1, 1)))
    # fidelities 1 - |eps|^2 or so, on both sides of 1 - BELL_TOL
    eps = 10.0 ** rng.uniform(-6.0, -3.5, size=(len(bell), 1, 1))
    blocks = np.concatenate([general, x_blocks, bell, bell + eps * noise(len(bell)),
                             np.zeros((draw(st.integers(0, 2)), 4, tags))])
    blocks *= 10.0 ** rng.uniform(-3.0, 3.0, size=(len(blocks), 1, 1))
    return blocks[rng.permutation(len(blocks))]


class TestBellIndex:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(blocks=bell_test_blocks())
    def test_rows_one_and_two_match_the_batched_product(self, blocks):
        # only a fidelity within 1e-12 of 1 - BELL_TOL may take another label: its last
        # bits differ between (v1 +- v2) / sqrt2 and the product with 1/sqrt2 bras
        expected, fidelities = matmul_bell_index(blocks)
        clear = (np.abs(fidelities - (1.0 - BELL_TOL)) > 1e-12).all(axis=-1)
        got = bell_index(blocks)
        assert got[clear].tolist() == expected[clear].tolist()
        assert [bell_index(v) for v in blocks[clear]] == expected[clear].tolist()
        assert {1, 2} <= set(expected.tolist())

    def test_names_the_bell_states(self):
        blocks = np.array([PSI_PLUS, PSI_MINUS])[..., None]
        assert bell_index(blocks).tolist() == [1, 2]

    def test_tag_mixed_bell_state_keeps_its_label(self):
        # psi- times a two-column tag state, unnormalized: its spin matrix is still psi-
        assert bell_index(np.outer(PSI_MINUS, [0.6, 0.8j]) * 3.0) == 2

    def test_rejects_everything_else(self):
        assert bell_index(MIXED_BLOCK) == 0
        assert bell_index(np.array([0, 1, 0, 0], dtype=complex)[:, None]) == 0

    def test_zero_block_is_no_bell_state(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bell_index(np.zeros((2, 4, 1), dtype=complex)).tolist() == [0, 0]

    def test_reads_a_matrix_as_a_four_column_block(self):
        # as a density matrix, fidelity 1 - 1e-6 with psi+: no label; as a block its
        # spin matrix is rho^2 / tr, of fidelity about 1 - 1e-12: psi+
        p = 1.0 - 1e-6
        rho = p * projector(PSI_PLUS) + (1.0 - p) * projector(PSI_MINUS)
        assert reference_bell_index(rho) == 0
        assert bell_index(rho) == 1
