"""Tests for networks, detection branching, trees, feedback, and corrections."""

import functools
import math
import operator
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BOTH_STATISTICS,
    amplitude,
    branch_probabilities,
    cells,
    engine_differences,
    engine_mismatch,
    fidelity,
    kept_labels,
    kept_paths,
    one_sided_tree,
    pair_probabilities,
    pattern_label,
    random_network,
    random_two_particle_state,
    shuffled_tree,
    table_rows,
)
from twinbeam import interferometer
from twinbeam.errors import NetworkError
from twinbeam.fock import (
    FockState,
    Mode,
    Spin,
    Statistics,
    apply_spin_rotation,
    make_product_state,
    substitute_modes,
)
from twinbeam.interferometer import (
    MAX_FEEDBACK_ROUNDS,
    MAX_MONOMIALS,
    MAX_TREE_DEPTH,
    BeamSplitter,
    Network,
    _detect_pairs,
    _draw_counts,
    _KeptPatterns,
    build_tree,
    detect,
    feedback_run,
    fig1_network,
    fig2_network,
    heralded_pair,
    opposite_spin_input,
    run_network,
)
from twinbeam.metrics import (
    PSI_PLUS,
    concurrences,
    density_matrices,
    reduce_to_spin_dm,
    tagged_opposite_spin_input,
    validate_dms,
)
from twinbeam.scenarios import scenario_fig2, scenario_tree

UP, DOWN = Spin.UP, Spin.DOWN


def opposite_pair(statistics):
    return make_product_state(statistics, [Mode("A", UP), Mode("B", DOWN)])


def apply_splitter(state, bs):
    """One splitter substituted on its own, without the network's path map."""
    table = bs.path_table()
    return substitute_modes(state, {
        mode: tuple((Mode(p, mode.spin, mode.tag), c) for p, c in table[mode.path])
        for mode in state.modes()
        if mode.path in table
    })


def assert_same_state(x, y, tol=1e-12):
    for monomial in set(x.terms) | set(y.terms):
        assert abs(x.terms.get(monomial, 0j) - y.terms.get(monomial, 0j)) < tol


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)

#: documents with the three keys, made of a few path names or of any JSON
_NAMES = st.lists(st.sampled_from("ABCDEF"), max_size=4)
_QUADS = st.lists(
    st.lists(st.sampled_from("ABCDEF") | JSON_VALUES, min_size=4, max_size=4), max_size=3
)
NETWORK_LIKE_DOCUMENTS = st.fixed_dictionaries(
    {
        "splitters": _QUADS | JSON_VALUES,
        "inputs": _NAMES | JSON_VALUES,
        "monitored": _NAMES | JSON_VALUES,
    }
)


@st.composite
def edited_network_documents(draw):
    """A random network's document, one key at most replaced by other JSON or dropped."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = random_network(rng, ("P", "Q"), int(rng.integers(1, 4))).to_dict()
    key = draw(st.sampled_from([None, "splitters", "inputs", "monitored"]))
    value = draw(st.none() | _NAMES | _QUADS | JSON_VALUES)
    if key is not None:
        if value is None:
            del data[key]
        else:
            data[key] = value
    return data


class TestNetworkValidation:
    def test_fig1_shape(self):
        net = fig1_network()
        assert net.splitters == (BeamSplitter("A", "B", "D", "C"),)
        assert set(net.monitored) == {"C", "D"}

    def test_fig_networks_are_pinned(self):
        # recorded when both were relabelled depth-1 and depth-2 trees
        assert fig1_network().to_dict() == {
            "splitters": [["A", "B", "D", "C"]],
            "inputs": ["A", "B"],
            "monitored": ["D", "C"],
        }
        assert fig2_network().to_dict() == {
            "splitters": [["A", "B", "D", "C"], ["D", "D~", "G", "H"], ["C", "C~", "E", "F"]],
            "inputs": ["A", "B"],
            "monitored": ["G", "H", "E", "F"],
        }

    def test_duplicate_output_rejected(self):
        with pytest.raises(NetworkError):
            Network(
                (BeamSplitter("A", "B", "X", "Y"), BeamSplitter("C", "D", "X", "Z")),
                ("A", "B", "C", "D"),
                ("Y", "Z"),
            )

    def test_consumed_before_produced_rejected(self):
        with pytest.raises(NetworkError):
            Network(
                (BeamSplitter("X", "B", "P", "Q"), BeamSplitter("A", "C", "X", "Y")),
                ("A", "B", "C"),
                ("P", "Q", "Y"),
            )

    def test_monitored_must_be_terminal(self):
        with pytest.raises(NetworkError):
            Network(
                (BeamSplitter("A", "B", "C", "D"), BeamSplitter("C", "E", "F", "G")),
                ("A", "B", "E"),
                ("C", "F"),
            )

    @pytest.mark.parametrize("name", ["none", "x+y", "+"])
    def test_monitored_path_cannot_look_like_a_pattern_label(self, name):
        # clicks names a pattern by its paths joined by "+", and no click "none"
        with pytest.raises(NetworkError, match="pattern labels ambiguous"):
            Network((BeamSplitter("A", "B", "C", name),), ("A", "B"), ("C", name))

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("inputs", [("A",), ()], ids=["one", "none"])
    def test_opposite_spin_pair_needs_two_inputs(self, statistics, inputs):
        net = Network(fig1_network().splitters, inputs, ("C", "D"))
        with pytest.raises(NetworkError, match="needs two input paths for the opposite-spin pair"):
            opposite_spin_input(statistics, net)

    def test_splitter_ports_distinct(self):
        with pytest.raises(NetworkError):
            BeamSplitter("A", "A", "C", "D")

    def test_dict_round_trip(self):
        net = fig2_network()
        assert Network.from_dict(net.to_dict()) == net

    @pytest.mark.parametrize(
        "change",
        [
            {"inputs": "AB"},
            {"monitored": []},
            {"monitored": "CD"},
            {"splitters": [["A", "B", "D", 1]], "monitored": ["1", "D"]},
            {"splitters": [["A", "B", "D"]]},
            {"splitters": "ABDC"},
            {"inputs": ["A", "B", "A"]},
            {"extra": 1},
        ],
        ids=["string-inputs", "empty-monitored", "string-monitored", "integer-port",
             "three-ports", "string-splitters", "duplicate-inputs", "extra-key"],
    )
    def test_from_dict_rejects_malformed_document(self, change):
        data = {"splitters": [["A", "B", "D", "C"]], "inputs": ["A", "B"], "monitored": ["C", "D"]}
        data.update(change)
        with pytest.raises(NetworkError):
            Network.from_dict(data)

    @pytest.mark.parametrize(
        "data",
        [[], 1, None, "network", {}, {"splitters": []}, {"inputs": ["A"], "monitored": ["A"]}],
        ids=["list", "number", "null", "string", "empty-object", "splitters-only",
             "no-splitters"],
    )
    def test_from_dict_rejects_non_network_document(self, data):
        with pytest.raises(NetworkError):
            Network.from_dict(data)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.one_of(JSON_VALUES, NETWORK_LIKE_DOCUMENTS, edited_network_documents()))
    def test_from_dict_gives_network_or_network_error(self, data):
        try:
            net = Network.from_dict(data)
        except NetworkError:
            return
        assert Network.from_dict(net.to_dict()) == net


class TestRunNetwork:
    @pytest.mark.parametrize(
        "statistics,pair_sign", [(Statistics.FERMION, 1.0), (Statistics.BOSON, -1.0)]
    )
    def test_single_splitter_amplitudes(self, statistics, pair_sign):
        out = run_network(fig1_network(), opposite_pair(statistics))
        assert abs(amplitude(out, [Mode("D", UP), Mode("C", DOWN)]) - 0.5) < 1e-12
        assert abs(amplitude(out, [Mode("D", DOWN), Mode("C", UP)]) - pair_sign * 0.5) < 1e-12
        assert abs(amplitude(out, [Mode("C", UP), Mode("C", DOWN)]) - 0.5j) < 1e-12
        assert abs(amplitude(out, [Mode("D", UP), Mode("D", DOWN)]) - 0.5j) < 1e-12

    def test_vacuum_passes_through(self):
        out = run_network(fig1_network(), FockState(Statistics.BOSON, {(): 1.0}))
        assert set(out.terms) <= {()}

    def test_rejects_unknown_input_path(self):
        state = make_product_state(Statistics.BOSON, [Mode("Z", UP)])
        with pytest.raises(NetworkError):
            run_network(fig1_network(), state)

    def test_fig2_term_structure(self):
        # 12 coincidence monomials (two per detector pair) plus 4 bunched ones
        out = run_network(fig2_network(), opposite_pair(Statistics.FERMION))
        assert len(out.terms) == 16
        for monomial, amp in out.terms.items():
            paths = {m.path for m in monomial}
            assert abs(abs(amp) - 0.25) < 1e-12
            if len(paths) == 1:
                assert abs(amp - 0.25j) < 1e-12 or abs(amp + 0.25j) < 1e-12

    def test_path_map_matches_sequential(self):
        # the composed three-splitter map against one single-splitter net at a time
        state = opposite_pair(Statistics.BOSON)
        whole = run_network(fig2_network(), state)
        stepwise = state
        for bs in fig2_network().splitters:
            inputs = tuple(stepwise.paths() | {bs.in1, bs.in2})
            stepwise = run_network(Network((bs,), inputs, ()), stepwise)
        assert_same_state(whole, stepwise)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), statistics=st.sampled_from(BOTH_STATISTICS))
    def test_random_networks_match_splitter_by_splitter(self, seed, statistics):
        rng = np.random.default_rng(seed)
        inputs = ("P", "Q", "R")
        net = random_network(rng, inputs, n_splitters=int(rng.integers(1, 6)))
        state = random_two_particle_state(rng, statistics, paths=inputs, tags=(0, 1))
        for image in net.path_map().values():
            assert abs(sum(abs(c) ** 2 for _, c in image) - 1.0) < 1e-12
        stepwise = state
        for bs in net.splitters:
            stepwise = apply_splitter(stepwise, bs)
        assert_same_state(run_network(net, state), stepwise.normalized())

    def test_oversize_propagation_is_refused(self, monkeypatch):
        # a depth-4 tree expands the pair into 4**4 = 256 monomials
        def no_substitution(*args):
            raise AssertionError("substituted before the size check")

        monkeypatch.setattr(interferometer, "MAX_MONOMIALS", 64)
        monkeypatch.setattr(interferometer, "substitute_modes", no_substitution)
        with pytest.raises(NetworkError):
            run_network(build_tree(4), opposite_pair(Statistics.FERMION))


class TestPathMap:
    def test_fig2(self):
        table = fig2_network().path_map()
        assert set(table) == {"A", "B"}
        assert dict(table["A"]) == pytest.approx({"G": 0.5, "H": 0.5j, "E": 0.5j, "F": -0.5})
        assert dict(table["B"]) == pytest.approx({"E": 0.5, "F": 0.5j, "G": 0.5j, "H": -0.5})


class TestDetect:
    def test_single_splitter_boson_branches(self):
        out = run_network(fig1_network(), opposite_pair(Statistics.BOSON))
        branches = detect(out, ["C", "D"])
        probs = branch_probabilities(branches)
        assert abs(probs["C+D"] - 0.5) < 1e-12
        assert abs(probs["C"] - 0.25) < 1e-12
        assert abs(probs["D"] - 0.25) < 1e-12
        pair = branches[{"C", "D"}].state
        root = 1.0 / math.sqrt(2.0)
        assert abs(amplitude(pair, [Mode("D", UP), Mode("C", DOWN)]) - root) < 1e-12
        assert abs(amplitude(pair, [Mode("D", DOWN), Mode("C", UP)]) + root) < 1e-12

    def test_vacuum_single_branch(self):
        branches = detect(FockState(Statistics.FERMION, {(): 1.0}), ["C", "D"])
        assert len(branches) == 1
        only = branches.branches[0]
        assert only.pattern == frozenset() and abs(only.probability - 1.0) < 1e-12

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_fig2_pattern_distribution(self, statistics):
        out = run_network(fig2_network(), opposite_pair(statistics))
        branches = detect(out, fig2_network().monitored)
        assert len(branches) == 10
        for branch in branches:
            expected = 0.125 if len(branch.pattern) == 2 else 0.0625
            assert abs(branch.probability - expected) < 1e-12

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_resolution_of_identity(self, statistics):
        out = run_network(fig2_network(), opposite_pair(statistics))
        branches = detect(out, fig2_network().monitored)
        assert abs(sum(b.probability for b in branches) - 1.0) < 1e-9
        recombined = FockState(statistics, {})
        for b in branches:
            recombined = recombined + math.sqrt(b.probability) * b.state
        for monomial in set(out.terms) | set(recombined.terms):
            assert abs(out.terms.get(monomial, 0j) - recombined.terms.get(monomial, 0j)) < 1e-9

    def test_requires_normalized_state(self):
        state = 0.5 * opposite_pair(Statistics.BOSON)
        with pytest.raises(ValueError):
            detect(state, ["A"])

    @pytest.mark.parametrize(
        "statistics,expected", [(Statistics.BOSON, 0.0), (Statistics.FERMION, 1.0)]
    )
    def test_equal_spin_coincidence(self, statistics, expected):
        state = make_product_state(statistics, [Mode("A", UP), Mode("B", UP)])
        out = run_network(fig1_network(), state)
        branches = detect(out, ["C", "D"])
        got = sum(b.probability for b in branches if len(b.pattern) == 2)
        assert abs(got - expected) < 1e-12


def bunched_pair(rng, statistics, paths, tags):
    """Both particles on one random input path; bosons may share one mode."""
    path = paths[int(rng.integers(len(paths)))]
    modes = [Mode(path, s, t) for s in (UP, DOWN) for t in tags]
    i, j = rng.choice(len(modes), size=2, replace=statistics is Statistics.BOSON)
    return make_product_state(statistics, [modes[i], modes[j]])


def random_tagged_case(seed: int, statistics: Statistics) -> tuple[Network, FockState]:
    """A random network, some terminals unmonitored, and a tagged pair with a bunched part.

    Several entries share a label pair, so the pair engine sums them coherently.
    """
    rng = np.random.default_rng(seed)
    inputs, tags = ("P", "Q", "R"), (0, 1)
    net = random_network(rng, inputs, n_splitters=int(rng.integers(1, 6)))
    monitored = [p for p in net.monitored if rng.random() < 0.7] or [net.monitored[0]]
    net = Network(net.splitters, net.inputs, tuple(monitored))
    state = random_two_particle_state(rng, statistics, paths=inputs, tags=tags)
    bunched = bunched_pair(rng, statistics, inputs, tags)
    # not normalized: like run_network, the pair engine renormalizes
    return net, state + complex(rng.normal(), rng.normal()) * bunched


class TestDetectPairs:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), statistics=st.sampled_from(BOTH_STATISTICS))
    def test_random_networks_match_sparse_engine(self, seed, statistics):
        net, state = random_tagged_case(seed, statistics)
        expected = branch_probabilities(detect(run_network(net, state), net.monitored))
        got = pair_probabilities(net, state)
        assert list(got) == list(expected)
        assert all(abs(got[p] - expected[p]) < 1e-12 for p in got)
        assert abs(sum(got.values()) - 1.0) < 1e-12

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), statistics=st.sampled_from(BOTH_STATISTICS))
    def test_tagged_cases_match_reference(self, seed, statistics):
        # several entries per label pair, bunched ones, unmonitored terminals
        net, state = random_tagged_case(seed, statistics)
        assert engine_mismatch(net, state) is None

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("depth", range(1, 11))
    def test_trees_match_reference(self, depth, statistics):
        # plain names, and two shuffles whose image order differs from string order
        nets = [build_tree(depth), *(Network.from_dict(shuffled_tree(depth, s)) for s in (3, 4))]
        for net in nets:
            assert engine_mismatch(net, opposite_spin_input(statistics, net)) is None

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_figures_and_one_sided_tree_match_reference(self, statistics):
        for net in (fig1_network(), fig2_network(), one_sided_tree(10)):
            assert engine_mismatch(net, opposite_pair(statistics)) is None

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_random_networks_match_reference(self, statistics):
        # 400 networks, every other one with unmonitored terminals, each with the
        # opposite-spin pair and with a tagged four-term state
        mismatches = []
        for seed in range(400):
            rng = np.random.default_rng(seed)
            inputs = ("A", "B", "C")
            net = random_network(rng, inputs, n_splitters=int(rng.integers(2, 9)))
            if seed % 2:
                monitored = [p for p in net.monitored if rng.random() < 0.6] or [net.monitored[-1]]
                net = Network(net.splitters, net.inputs, tuple(monitored))
            tagged = random_two_particle_state(rng, statistics, paths=inputs, tags=(0, 1), n_terms=4)
            for state in (opposite_pair(statistics), tagged):
                where = engine_mismatch(net, state)
                if where is not None:
                    mismatches.append((seed, where))
        assert mismatches == []

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("seed", range(12))
    def test_random_network_branches_match_sparse_engine(self, statistics, seed):
        # every branch, bunched ones included: its probability and its state up to phase
        rng = np.random.default_rng(3000 + seed)
        net = random_network(rng, ("P", "Q"), n_splitters=int(rng.integers(1, 5)))
        state = random_two_particle_state(rng, statistics, paths=("P", "Q"), tags=(0, 1))
        assert engine_differences(net, state) == []

    def test_boson_hong_ou_mandel_has_no_coincidence(self):
        state = make_product_state(Statistics.BOSON, [Mode("A", UP), Mode("B", UP)])
        got = pair_probabilities(fig1_network(), state)
        assert got == pytest.approx({"C": 0.5, "D": 0.5}, abs=1e-12)

    @pytest.mark.parametrize("eps,fires", [(1.5e-12, False), (2.4e-12, True)])
    def test_pruning_matches_sparse_engine(self, eps, fires):
        # the eps part gives C+D second-quantized amplitudes of eps/2 against the 1e-12 threshold
        hom = make_product_state(Statistics.BOSON, [Mode("A", UP), Mode("B", UP)])
        state = hom + eps * opposite_pair(Statistics.BOSON)
        got = pair_probabilities(fig1_network(), state)
        expected = branch_probabilities(detect(run_network(fig1_network(), state), ["C", "D"]))
        assert list(got) == list(expected)
        assert ("C+D" in got) is fires

    @pytest.mark.parametrize("eps,fires", [(2.4e-12, False), (3.4e-12, True)])
    def test_pruning_of_a_doubly_occupied_mode(self, eps, fires):
        # the normalized A up A up leaves D up D up with monomial amplitude
        # eps/(2 sqrt2) and C up D up with eps/sqrt2;
        # the X up X down part keeps the state normalized without reaching C or D
        fig1 = fig1_network()
        net = Network(fig1.splitters, ("A", "B", "X"), ("C", "D", "X"))
        pair = make_product_state(Statistics.BOSON, [Mode("X", UP), Mode("X", DOWN)])
        state = pair + eps * make_product_state(Statistics.BOSON, [Mode("A", UP), Mode("A", UP)])
        got = pair_probabilities(net, state)
        expected = branch_probabilities(detect(run_network(net, state), net.monitored))
        assert list(got) == list(expected)
        assert "C+D" in got
        assert ("D" in got) is fires

    @pytest.mark.parametrize(
        "modes", [[Mode("A", UP)], [Mode("A", UP), Mode("A", DOWN), Mode("B", UP)], []],
        ids=["one", "three", "vacuum"],
    )
    def test_requires_two_particles(self, modes):
        with pytest.raises(ValueError, match="two-particle"):
            _detect_pairs(fig1_network(), make_product_state(Statistics.BOSON, modes))

    def test_rejects_unknown_input_path(self):
        state = make_product_state(Statistics.BOSON, [Mode("A", UP), Mode("Z", UP)])
        with pytest.raises(NetworkError, match="outside the network inputs"):
            _detect_pairs(fig1_network(), state)

    def test_oversize_input_is_refused(self, monkeypatch):
        # a depth-4 tree expands the pair into 4**4 = 256 monomials
        def no_array(*args):
            raise AssertionError("built an array before the size check")

        monkeypatch.setattr(interferometer, "MAX_MONOMIALS", 64)
        monkeypatch.setattr(interferometer, "_pair_windows", no_array)
        with pytest.raises(NetworkError, match="256 monomials, over 64"):
            _detect_pairs(build_tree(4), opposite_pair(Statistics.FERMION))

    def test_deepest_tree_passes_the_size_check(self, monkeypatch):
        class Checked(Exception):
            pass

        def stop(*args):
            raise Checked

        # both checks passed: the coincidences are enumerated next
        monkeypatch.setattr(interferometer, "_pair_space", stop)
        with pytest.raises(Checked):
            _detect_pairs(build_tree(MAX_TREE_DEPTH), opposite_pair(Statistics.FERMION))

    def test_matrices_over_the_cell_limit_are_refused(self, monkeypatch):
        # three pairs, each on its own splitter, share both label pairs: 12 monomials,
        # but each label pair's matrix spans all six terminals, 2 x 36 cells
        def no_matrix(*args):
            raise AssertionError("went on past the cell check")

        splitters = tuple(BeamSplitter(a, b, a + "1", a + "2") for a, b in ("AB", "EF", "IJ"))
        net = Network(splitters, tuple("ABEFIJ"), tuple(p + k for p in "AEI" for k in "12"))
        state = functools.reduce(operator.add, (
            make_product_state(Statistics.BOSON, [Mode(a, UP), Mode(b, DOWN)])
            for a, b in ("AB", "EF", "IJ")
        ))
        monkeypatch.setattr(interferometer, "MAX_MONOMIALS", 16)
        monkeypatch.setattr(interferometer, "_pair_space", no_matrix)
        with pytest.raises(NetworkError, match="72 cells, over 32"):
            _detect_pairs(net, state)
        # the sparse engine, bounded by monomials alone, takes the state
        assert len(detect(run_network(net, state), net.monitored)) == 9

    def test_path_map_work_is_linear_in_the_inputs(self):
        # n inputs, each into its own splitter: walking every image at every port
        # took about 2 n**2 dict calls
        n = 2000
        splitters = tuple(BeamSplitter(f"i{k}", f"v{k}", f"a{k}", f"b{k}") for k in range(n))
        net = Network(splitters, tuple(f"i{k}" for k in range(n)), ("a0",))
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "c_call"

        sys.setprofile(count)
        try:
            table = net.path_map()
        finally:
            sys.setprofile(None)
        assert calls < 10 * n
        assert table["i7"] == (("a7", 1 / math.sqrt(2)), ("b7", 1j / math.sqrt(2)))

    def test_one_sided_tree_builds_only_reached_cells(self):
        # a (terminal x terminal) array over all 1025 terminals would take 16 MiB per label pair
        net = one_sided_tree(10)
        state = opposite_pair(Statistics.FERMION)
        tracemalloc.start()
        try:
            got = pair_probabilities(net, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        expected = branch_probabilities(detect(run_network(net, state), net.monitored))
        assert list(got) == list(expected) and len(got) == 2 ** 10
        assert all(abs(got[p] - 2.0 ** -10) < 1e-15 for p in got)

    def test_tree_detection_memory(self):
        # 131,072 cells: 64-bit terminal indices and a sort of the pattern keys peaked at 11.6 MiB
        net = build_tree(8)
        state = opposite_pair(Statistics.FERMION)
        tracemalloc.start()
        try:
            kept = _detect_pairs(net, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2 ** 20
        assert len(kept.probabilities) == 2 ** 8 * (2 ** 8 + 1) // 2

    def test_deepest_tree_builds_no_matrix(self):
        # each label pair of the pair has one entry, so each cell read is one product:
        # building its 1,025 x 1,025 matrix, 16 MiB, peaked at 73.3 MiB
        net = build_tree(MAX_TREE_DEPTH)
        state = opposite_pair(Statistics.FERMION)
        tracemalloc.start()
        try:
            kept = _detect_pairs(net, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2 ** 20
        assert len(kept.probabilities) == 2 ** 10 * (2 ** 10 + 1) // 2

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_label_pairs_with_several_entries_free_their_sorted_entries(self, statistics):
        # two label pairs of two entries each, 513 x 513 cells: fermions peak at 35.3 MiB
        # (bosons 36.3) when each label pair's sorted entries are freed before the next
        # label pair's matrix is built, at 41.3 (42.3) when they are still held, and at 45.3
        # (46.2) when the gathered x, y and the sort's inputs were held too; whether the
        # first matrix is still held does not show, as the sort's arrays outweigh it
        net = build_tree(9)
        state = opposite_pair(statistics) + make_product_state(
            statistics, [Mode("A", DOWN), Mode("B", UP)])
        tracemalloc.start()
        try:
            kept = _detect_pairs(net, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 38 * 2 ** 20
        assert kept.probabilities.sum() == pytest.approx(1.0)

    def test_unreached_paths_cost_nothing(self):
        # 1,000 unused inputs that are also detectors, none reached by the pair
        extra = tuple(f"X{k}" for k in range(1000))
        fig1 = fig1_network()
        net = Network(fig1.splitters, fig1.inputs + extra, fig1.monitored + extra)
        tracemalloc.start()
        try:
            got = pair_probabilities(net, opposite_pair(Statistics.BOSON))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert got == pair_probabilities(fig1, opposite_pair(Statistics.BOSON))


class TestCoincidenceBlocks:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), statistics=st.sampled_from(BOTH_STATISTICS))
    def test_random_networks_match_detected_branches(self, seed, statistics):
        rng = np.random.default_rng(seed)
        inputs = ("P", "Q", "R")
        net = random_network(rng, inputs, n_splitters=int(rng.integers(1, 6)))
        state = random_two_particle_state(rng, statistics, paths=inputs, tags=(0, 1), n_terms=4)
        kept = _detect_pairs(net, state, coincidences=True)
        blocks = kept.blocks
        # the blocks leave the patterns and their probabilities as they are
        plain = _detect_pairs(net, state)
        assert np.array_equal(kept.codes, plain.codes) and kept.names == plain.names
        bits = [k.probabilities.view(np.uint64) for k in (kept, plain)]
        assert np.array_equal(*bits)
        branches = detect(run_network(net, state), net.monitored)
        patterns = [b.pattern for b in branches]
        assert kept_labels(kept) == list(map(pattern_label, patterns))
        assert all(abs(p - b.probability) < 1e-12 for p, b in zip(kept.probabilities, branches))
        coincidences = [p for p in patterns if len(p) == 2]
        assert patterns[kept.first:] == coincidences
        pairs = kept_paths(kept)[kept.first:]
        assert list(map(frozenset, pairs)) == coincidences
        assert len(blocks) == len(coincidences)
        assert all(a < b for a, b in pairs)
        for pattern, v in zip(coincidences, blocks):
            rho = v @ v.conj().T
            rho /= np.trace(rho).real
            branch = branches[pattern].state
            assert np.abs(rho - density_matrices(reduce_to_spin_dm(branch, *pattern))).max() < 1e-12
            # column 0: the untagged amplitudes, which the correction phase is read from
            p1, p2 = sorted(pattern)
            for row, (s1, s2) in ((1, (UP, DOWN)), (2, (DOWN, UP))):
                assert abs(v[row, 0] - amplitude(branch, [Mode(p1, s1), Mode(p2, s2)])) < 1e-12
        if len(blocks):
            validate_dms(blocks @ blocks.conj().swapaxes(-1, -2))
            c = concurrences(blocks)
            assert ((c >= 0.0) & (c <= 1.0 + 1e-12)).all()

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_tagged_pair_has_a_coincidence_block(self, statistics):
        # the tagged coincidence is no local-phase image of psi+, and still heralds a block
        net, state = fig1_network(), tagged_opposite_spin_input(statistics, 0.5)
        kept = interferometer._detect_pairs(net, state, coincidences=True)
        probabilities, (v,) = kept.probabilities, kept.blocks
        assert kept_paths(kept)[kept.first:] == [("C", "D")]
        branch = detect(run_network(net, state), net.monitored)[{"C", "D"}]
        assert abs(probabilities[-1] - branch.probability) < 1e-15
        rho = v @ v.conj().T / np.trace(v @ v.conj().T).real
        reduced = density_matrices(reduce_to_spin_dm(branch.state, "C", "D"))
        assert np.abs(rho - reduced).max() < 1e-15

    def test_pruned_cells_stay_out_of_the_blocks(self):
        # C+D monomials: 2e-12 from the untagged pair, kept, and 0.8e-12
        # from the tagged one, which the sparse engine prunes
        hom = make_product_state(Statistics.BOSON, [Mode("A", UP), Mode("B", UP)])
        untagged = opposite_pair(Statistics.BOSON)
        tagged = make_product_state(Statistics.BOSON, [Mode("A", UP, 1), Mode("B", DOWN, 1)])
        state = hom + 4e-12 * untagged + 1.6e-12 * tagged
        net = fig1_network()
        (v,) = interferometer._detect_pairs(net, state, coincidences=True).blocks
        branch = detect(run_network(net, state), net.monitored)[{"C", "D"}].state
        assert not v[:, 1:].any()
        rho = v @ v.conj().T / np.trace(v @ v.conj().T)
        assert np.abs(rho - density_matrices(reduce_to_spin_dm(branch, "C", "D"))).max() < 1e-12


class TestPostselect:
    def test_fig1_coincidence_probability(self):
        out = run_network(fig1_network(), opposite_pair(Statistics.FERMION))
        branches = detect(out, ["C", "D"])
        assert abs(sum(b.probability for b in branches if len(b.pattern) == 2) - 0.5) < 1e-12

    def test_fig2_coincidence_probability(self):
        out = run_network(fig2_network(), opposite_pair(Statistics.BOSON))
        branches = detect(out, fig2_network().monitored)
        assert abs(sum(b.probability for b in branches if len(b.pattern) == 2) - 0.75) < 1e-12

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("depth", range(1, MAX_TREE_DEPTH + 1))
    def test_coincidence_probability_adds_left_to_right(self, depth, statistics):
        # Python 3.12's compensated sum differs from it in the last bit on some trees
        net = build_tree(depth)
        kept = _detect_pairs(net, opposite_spin_input(statistics, net))
        expected = functools.reduce(operator.add, kept.probabilities[kept.first:].tolist(), 0.0)
        got = kept.coincidence_probability
        assert type(got) is float and got == expected

    def test_no_coincidence_has_probability_zero(self):
        # the empty pattern and one single, each at 1/2
        kept = _KeptPatterns(["C"], np.array([[1, -1], [0, -1]]), 1, 2, np.array([0.5, 0.5]))
        assert kept.coincidence_probability == 0.0

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_heralded_pair_is_the_postselected_coincidence(self, statistics):
        out = run_network(fig1_network(), opposite_pair(statistics))
        pair = detect(out, ["C", "D"])[{"C", "D"}]
        heralded = heralded_pair(opposite_pair(statistics))
        assert heralded.state.terms == pair.state.terms
        assert heralded.probability == pair.probability

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize(
        "spins", [(UP, UP), (UP, DOWN), (DOWN, UP), (DOWN, DOWN)], ids=["uu", "ud", "du", "dd"]
    )
    def test_heralded_pair_of_each_spin_product(self, statistics, spins):
        state = make_product_state(statistics, [Mode("A", spins[0]), Mode("B", spins[1])])
        branches = detect(run_network(fig1_network(), state), ["C", "D"])
        coincidences = [b for b in branches if len(b.pattern) == 2]
        heralded = heralded_pair(state)
        assert heralded.pattern == frozenset({"C", "D"})
        assert type(heralded.probability) is float
        assert heralded.probability == sum(b.probability for b in coincidences)
        if spins[0] != spins[1]:
            expected = 0.5
        else:
            expected = 1.0 if statistics is Statistics.FERMION else 0.0
        assert abs(heralded.probability - expected) < 1e-12
        if coincidences:
            assert heralded.state.terms == coincidences[0].state.terms
        else:
            # bosons with equal spins bunch: the zero branch holds no terms
            assert heralded.probability == 0.0 and not heralded.state.terms


class TestBuildTree:
    def test_depth_one_is_single_splitter(self):
        net = build_tree(1)
        assert len(net.splitters) == 1
        assert set(net.monitored) == {"0", "1"}

    def test_depth_two_matches_four_outputs(self):
        net = build_tree(2)
        assert len(net.splitters) == 3
        assert set(net.monitored) == {"00", "01", "10", "11"}

    def test_depth_three(self):
        net = build_tree(3)
        assert len(net.splitters) == 7
        assert len(net.monitored) == 8

    @pytest.mark.parametrize("depth", [0, MAX_TREE_DEPTH + 1, 13])
    def test_depth_guard(self, depth):
        # every tree build_tree accepts stays within the propagation limit
        assert 4 ** MAX_TREE_DEPTH <= MAX_MONOMIALS < 4 ** (MAX_TREE_DEPTH + 1)
        with pytest.raises(ValueError):
            build_tree(depth)

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("depth", range(1, 6))
    def test_yield_law(self, statistics, depth):
        net = build_tree(depth)
        branches = detect(run_network(net, opposite_pair(statistics)), net.monitored)
        got = sum(b.probability for b in branches if len(b.pattern) == 2)
        assert abs(got - (1.0 - 0.5 ** depth)) < 1e-9

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_single_detector_branches_are_bunched(self, statistics, depth):
        net = build_tree(depth)
        branches = detect(run_network(net, opposite_spin_input(statistics, net)), net.monitored)
        for branch in branches:
            if len(branch.pattern) != 1:
                continue
            (path,) = branch.pattern
            for monomial in branch.state.terms:
                assert all(m.path == path for m in monomial)

    def test_yield_requires_two_particles(self):
        with pytest.raises(ValueError):
            _detect_pairs(build_tree(1), make_product_state(Statistics.BOSON, [Mode("A", UP)]))


class TestFeedback:
    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_failure_halves_each_round(self, statistics):
        rounds = feedback_run(10, statistics)
        for r in rounds:
            assert abs(r.success_probability - 0.5) < 1e-12
            assert abs(r.cumulative_failure - 0.5 ** r.round) < 1e-12

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_rounds_stay_maximally_entangled(self, statistics):
        rounds = feedback_run(4, statistics)
        v = np.array([reduce_to_spin_dm(r.conditional_state, "C", "D") for r in rounds])
        assert np.all(np.abs(concurrences(v) - 1.0) < 1e-9)

    def test_bell_state_alternates_for_bosons(self):
        rounds = feedback_run(2, Statistics.BOSON)
        first = reduce_to_spin_dm(rounds[0].conditional_state, "C", "D")
        second = reduce_to_spin_dm(rounds[1].conditional_state, "C", "D")
        assert fidelity(first, PSI_PLUS) < 1e-9
        assert abs(fidelity(second, PSI_PLUS) - 1.0) < 1e-9

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("depth", [1, MAX_FEEDBACK_ROUNDS])
    def test_reinjected_pair_is_a_fixed_point(self, statistics, depth, monkeypatch):
        # the second round re-injects the bunched pair i |A up; A down>, which bunches back
        # into itself, so it is propagated once and serves every later round
        inputs = []
        propagate = interferometer.run_network

        def recording(net, state):
            inputs.append(state)
            return propagate(net, state)

        monkeypatch.setattr(interferometer, "run_network", recording)
        feedback_run(depth, statistics)
        net = fig1_network()
        bunched = 1j * make_product_state(statistics, [Mode("A", UP), Mode("A", DOWN)])
        assert inputs == [opposite_spin_input(statistics, net), bunched][:depth]
        again = detect(propagate(net, bunched), net.monitored)[{"D"}].state
        to_a = {mode: ((Mode("A", mode.spin, mode.tag), 1.0 + 0j),) for mode in again.modes()}
        assert substitute_modes(again, to_a) == bunched

    @pytest.mark.parametrize("rounds", [0, MAX_FEEDBACK_ROUNDS + 1])
    def test_requires_positive_rounds(self, rounds, monkeypatch):
        def no_run(*args):
            raise AssertionError("a round ran before the range check")

        monkeypatch.setattr(interferometer, "run_network", no_run)
        with pytest.raises(ValueError, match=f"between 1 and 10, got {rounds}"):
            feedback_run(rounds, Statistics.BOSON)


def detected_branches(net, statistics):
    return detect(run_network(net, opposite_spin_input(statistics, net)), net.monitored)


class TestCorrection:
    """The ``correction`` column of the branch tables."""

    def test_fermion_eg_pattern_needs_no_correction(self):
        table = scenario_fig2(Statistics.FERMION).table
        corrections = dict(zip(cells(table["pattern"]), cells(table["correction"])))
        assert corrections["E+G"] == "identity"

    def test_fermion_gh_pattern_gets_phase(self):
        table = scenario_fig2(Statistics.FERMION).table
        corrections = dict(zip(cells(table["pattern"]), cells(table["correction"])))
        assert corrections["G+H"] == "G:down-phase 1pi"

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("depth", [2, 3])
    def test_all_tree_coincidences_correct_to_target(self, statistics, depth):
        branches = detected_branches(build_tree(depth), statistics)
        report = scenario_tree(depth, statistics)
        rows = [r for r in table_rows(report.table) if r["detectors"] == 2]
        assert len(rows) == sum(len(b.pattern) == 2 for b in branches)
        for row in rows:
            p1, p2 = row["pattern"].split("+")
            corrected = branches[{p1, p2}].state
            if row["correction"] != "identity":
                path, turns = re.fullmatch(r"(\w+):down-phase (\S+)pi", row["correction"]).groups()
                assert path == p1
                phase = np.exp(1j * math.pi * float(turns))
                corrected = apply_spin_rotation(corrected, path, np.diag([1.0, phase]))
            v = reduce_to_spin_dm(corrected, p1, p2)
            assert abs(fidelity(v, PSI_PLUS) - 1.0) < 1e-9


def drawn_clicks(net, statistics, trials, seed):
    """Exact and seeded click counts of the opposite-spin pair, as ``clicks`` draws them."""
    exact = pair_probabilities(net, opposite_spin_input(statistics, net))
    return exact, dict(zip(exact, _draw_counts(list(exact.values()), trials, seed)))


class TestDrawCounts:
    def test_deterministic_given_seed(self):
        _, a = drawn_clicks(fig1_network(), Statistics.BOSON, 5000, seed=11)
        _, b = drawn_clicks(fig1_network(), Statistics.BOSON, 5000, seed=11)
        assert a == b

    def test_single_trial(self):
        _, counts = drawn_clicks(fig1_network(), Statistics.BOSON, 1, seed=3)
        assert sorted(counts.values()) == [0, 0, 1]

    def test_frequencies_near_exact(self):
        trials = 100_000
        _, counts = drawn_clicks(fig1_network(), Statistics.FERMION, trials, seed=5)
        sigma = math.sqrt(0.25 / trials)
        freq = counts["C+D"] / trials
        assert abs(freq - 0.5) < 3.0 * sigma

    def test_chi_square_against_exact(self):
        trials = 100_000
        exact, counts = drawn_clicks(fig2_network(), Statistics.BOSON, trials, seed=17)
        assert len(exact) == 10
        chi2 = sum((counts[k] - trials * p) ** 2 / (trials * p) for k, p in exact.items())
        # 9 degrees of freedom; 99% quantile is 21.67
        assert chi2 < 21.67

    @pytest.mark.parametrize(
        "trials,seed,message",
        [(0, 1, "trials must be between 1 and"), (10, -1, "seed must be nonnegative, got -1")],
    )
    def test_rejects_a_bad_trial_count_or_seed(self, trials, seed, message):
        with pytest.raises(ValueError, match=message):
            _draw_counts([0.5, 0.5], trials, seed)
