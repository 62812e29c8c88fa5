"""Tests for the named end-to-end scenarios."""

import math

import numpy as np
import pytest

from conftest import BOTH_STATISTICS, amplitude, table_rows, wootters_concurrences
from twinbeam import interferometer, metrics, scenarios
from twinbeam.errors import NetworkError
from twinbeam.fock import Mode, Spin, Statistics, make_product_state
from twinbeam.interferometer import (
    Network,
    build_tree,
    detect,
    fig1_network,
    fig2_network,
    opposite_spin_input,
    run_network,
)
from twinbeam.scenarios import (
    SCENARIOS,
    list_scenarios,
    scenario_complementarity,
    scenario_dual,
    scenario_feedback,
    scenario_fig1,
    scenario_fig2,
    scenario_gaussian,
    scenario_mixed_input,
    scenario_statistics_test,
    scenario_tree,
)

UP, DOWN = Spin.UP, Spin.DOWN
ROOT8 = 2.0 * math.sqrt(2.0)

#: two splitter layers whose crossed outputs meet again: its coincidences
#: carry down-spin phases off the real axis, which no shipped network does
CROSSED_NETWORK = Network.from_dict({
    "splitters": [["P", "Q", "w0", "w1"], ["w0", "v2", "w3", "w4"], ["w1", "v5", "w6", "w7"],
                  ["w4", "w6", "w8", "w9"], ["w8", "w3", "w10", "w11"]],
    "inputs": ["P", "Q"],
    "monitored": ["w10", "w11", "w7", "w9"],
})


class TestFig1:
    def test_fermion(self):
        report = scenario_fig1(Statistics.FERMION)
        assert abs(report.scalar("coincidence_probability") - 0.5) < 1e-12
        assert report.scalar("bell_state") == "psi_plus"
        assert abs(report.scalar("concurrence") - 1.0) < 1e-9

    def test_boson(self):
        report = scenario_fig1(Statistics.BOSON)
        assert abs(report.scalar("coincidence_probability") - 0.5) < 1e-12
        assert report.scalar("bell_state") == "psi_minus"
        assert abs(report.scalar("concurrence") - 1.0) < 1e-9


class TestFig2:
    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_three_quarters_coincide(self, statistics):
        report = scenario_fig2(statistics)
        assert abs(report.scalar("coincidence_probability") - 0.75) < 1e-12
        assert report.scalar("patterns") == 10

    def test_fermion_bell_assignments(self):
        report = scenario_fig2(Statistics.FERMION)
        rows = table_rows(report.table)
        bell = {row["pattern"]: row["bell_state"] for row in rows if row["detectors"] == 2}
        assert bell == {
            "E+G": "psi_plus",
            "E+H": "psi_plus",
            "F+G": "psi_plus",
            "F+H": "psi_plus",
            "E+F": "psi_minus",
            "G+H": "psi_minus",
        }

    def test_boson_bell_assignments(self):
        report = scenario_fig2(Statistics.BOSON)
        rows = table_rows(report.table)
        bell = {row["pattern"]: row["bell_state"] for row in rows if row["detectors"] == 2}
        assert bell == {
            "E+G": "psi_minus",
            "E+H": "psi_minus",
            "F+G": "psi_minus",
            "F+H": "psi_minus",
            "E+F": "psi_plus",
            "G+H": "psi_plus",
        }


class TestTree:
    @pytest.mark.parametrize("depth,expected", [(1, 0.5), (2, 0.75), (5, 31 / 32)])
    def test_yields(self, depth, expected):
        report = scenario_tree(depth, Statistics.FERMION)
        assert abs(report.scalar("entangled_yield") - expected) < 1e-9

    def test_depth_two_matches_four_output_network(self):
        tree = scenario_tree(2, Statistics.FERMION)
        named = scenario_fig2(Statistics.FERMION)
        renaming = {"00": "G", "01": "H", "10": "E", "11": "F"}
        tree_bell = {}
        for row in table_rows(tree.table):
            if row["detectors"] != 2:
                continue
            pattern = "+".join(sorted(renaming[p] for p in row["pattern"].split("+")))
            tree_bell[pattern] = row["bell_state"]
        named_bell = {
            row["pattern"]: row["bell_state"]
            for row in table_rows(named.table)
            if row["detectors"] == 2
        }
        assert tree_bell == named_bell

    def test_every_coincidence_branch_is_maximally_entangled(self):
        report = scenario_tree(3, Statistics.BOSON)
        for row in table_rows(report.table):
            if row["detectors"] == 2:
                assert abs(row["concurrence"] - 1.0) < 1e-9
            else:
                assert row["detectors"] == 1

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_branch_table_builds_no_spin_matrix(self, monkeypatch, statistics):
        expected = scenario_tree(5, statistics).to_json()

        def no_matrices(*args):
            raise AssertionError("the branch table built or validated a spin matrix")

        monkeypatch.setattr(scenarios, "density_matrices", no_matrices)
        monkeypatch.setattr(scenarios, "validate_dms", no_matrices)
        assert scenario_tree(5, statistics).to_json() == expected

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            scenario_tree(11, Statistics.BOSON)


def untagged(*amplitudes):
    """One coincidence's (1, 4) untagged column, as _correction_phases takes it."""
    return np.array([amplitudes], dtype=complex)


def correction_label(lower, phase):
    """The branch table's correction entry for a down-spin phase on the path ``lower``."""
    if phase == 1.0:
        return "identity"
    return f"{lower}:down-phase {math.atan2(phase.imag, phase.real) / math.pi:.6g}pi"


HALF = 1 / math.sqrt(2.0)


class TestCorrectionPhases:
    def test_correction_label_is_alpha_over_beta(self, monkeypatch):
        # (i |up down> + |down up>) / sqrt2 needs the down phase i on X; psi+ needs none
        blocks = np.array([[0, 1j, 1, 0], [0, 1, 1, 0]])[..., None] * HALF
        kept = interferometer._KeptPatterns(
            0, [], ["X", "X"], ["Y", "Z"], np.array([0.5, 0.5]), blocks
        )
        monkeypatch.setattr(scenarios, "_detect_pairs", lambda *args, **kwargs: kept)
        table = scenarios._branch_table(fig1_network(), Statistics.FERMION)[1]
        assert table["correction"] == ["X:down-phase 0.5pi", "identity"]
        assert table["bell_state"] == ["other", "psi_plus"]

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize(
        "net", [build_tree(d) for d in range(1, 6)] + [fig2_network(), CROSSED_NETWORK],
        ids=[f"tree{d}" for d in range(1, 6)] + ["fig2", "crossed"],
    )
    def test_phases_match_correction_for_branch(self, net, statistics):
        state = opposite_spin_input(statistics, net)
        kept = interferometer._detect_pairs(net, state, coincidences=True)
        lower, upper, blocks = kept.lower, kept.upper, kept.blocks
        coincidences = list(map(frozenset, zip(lower, upper)))
        phases = scenarios._correction_phases(blocks[:, :, 0], lower, upper)
        branches = detect(run_network(net, state), net.monitored)
        assert len(phases) == sum(len(b.pattern) == 2 for b in branches) > 0
        # the rule applied to each detected branch's four spin amplitudes
        amplitudes = np.array([
            [amplitude(branches[p].state, [Mode(min(p), s1), Mode(max(p), s2)])
             for s1, s2 in ((UP, UP), (UP, DOWN), (DOWN, UP), (DOWN, DOWN))]
            for p in coincidences
        ])
        expected = scenarios._correction_phases(amplitudes, lower, upper)
        assert ((phases == 1.0) == (expected == 1.0)).all()
        assert np.abs(phases - expected).max() < 1e-12
        table = scenarios._branch_table(net, statistics)[1]
        # an untagged input gives one tag column, so the closed-form concurrence
        # must match the 4x4 Wootters reference on the same blocks
        assert blocks.shape[2] == 1
        wootters = wootters_concurrences(metrics.density_matrices(blocks))
        closed = np.array(table["concurrence"][-len(coincidences):])
        assert np.abs(closed - wootters).max() < 1e-12
        labels = map(correction_label, map(min, coincidences), phases.tolist())
        assert table["correction"][-len(coincidences):] == list(labels)
        bell = {1.0: "psi_plus", -1.0: "psi_minus"}
        expected_bell = [bell.get(p, "other") for p in phases.tolist()]
        assert table["bell_state"][-len(coincidences):] == expected_bell

    def test_off_axis_phases_are_labelled_other(self):
        total, table = scenarios._branch_table(CROSSED_NETWORK, Statistics.FERMION)
        assert abs(total - 0.6875) < 1e-12
        other = {c for c, b in zip(table["correction"], table["bell_state"]) if b == "other"}
        assert {"w10:down-phase 0.25pi", "w7:down-phase 0.5pi", "w11:down-phase -0.75pi"} <= other

    @pytest.mark.parametrize(
        "alpha,expected",
        [(1j, 1j), (-1.0, -1.0), (1.0, 1.0), (np.exp(1e-13j), 1.0),
         (np.exp(0.3j) * (1 + 5e-10), np.exp(0.3j))],
        ids=["i", "minus-one", "one", "snapped", "unit-circle"],
    )
    def test_phase_rule(self, alpha, expected):
        (phase,) = scenarios._correction_phases(untagged(0, alpha * HALF, HALF, 0), ["C"], ["D"])
        assert abs(phase - expected) < 1e-15

    def test_phases_reject_a_non_bell_coincidence(self):
        with pytest.raises(NetworkError, match=r"\['C', 'D'\] is not a local-phase image"):
            scenarios._correction_phases(untagged(0, 1, 0, 0), ["C"], ["D"])

    @pytest.mark.parametrize(
        "v",
        [
            # NaN fails every comparison, so a test of the form |x| > tol lets it through
            untagged(0, math.nan, HALF, 0),
            untagged(0, HALF, HALF, math.inf),
            # psi+ plus a little |up up>: |v1| and |v2| alone still read 1/sqrt2
            untagged(1e-6, HALF, HALF, 0),
            untagged(0, 2 * HALF, 2 * HALF, 0),
        ],
        ids=["nan", "inf", "up-up-weight", "scaled-by-two"],
    )
    def test_phases_reject_every_block_off_psi_plus(self, v):
        with pytest.raises(NetworkError, match=r"\['C', 'D'\] is not a local-phase image"):
            scenarios._correction_phases(v, ["C"], ["D"])

    def test_phases_name_the_first_bad_coincidence(self):
        v = np.concatenate([untagged(0, HALF, HALF, 0), untagged(0, HALF, math.nan, 0)])
        with pytest.raises(NetworkError, match=r"\['E', 'F'\]"):
            scenarios._correction_phases(v, ["C", "E"], ["D", "F"])


class TestStatisticsTest:
    def test_fermion_perfect_correlation(self):
        report = scenario_statistics_test(Statistics.FERMION)
        assert abs(report.scalar("correlation") - 1.0) < 1e-12
        assert report.scalar("verdict") == "fermion"
        joint = dict(zip(report.table["outcome"], report.table["probability"]))
        assert abs(joint["up,up"] - 0.5) < 1e-12
        assert abs(joint["down,down"] - 0.5) < 1e-12
        assert joint["up,down"] < 1e-12 and joint["down,up"] < 1e-12

    def test_boson_perfect_anticorrelation(self):
        report = scenario_statistics_test(Statistics.BOSON)
        assert abs(report.scalar("correlation") + 1.0) < 1e-12
        assert report.scalar("verdict") == "boson"

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_verdict_names_the_generator(self, statistics):
        assert scenario_statistics_test(statistics).scalar("verdict") == statistics.value


class TestMixedInput:
    def test_boson_remains_maximally_entangled(self):
        report = scenario_mixed_input(Statistics.BOSON)
        assert abs(report.scalar("coincidence_probability") - 0.25) < 1e-12
        assert abs(report.scalar("concurrence") - 1.0) < 1e-9
        assert abs(report.scalar("chsh_max_abs") - ROOT8) < 1e-9

    def test_fermion_is_separable(self):
        report = scenario_mixed_input(Statistics.FERMION)
        assert abs(report.scalar("coincidence_probability") - 0.75) < 1e-12
        assert report.scalar("concurrence") < 1e-9
        assert report.scalar("chsh_max_abs") <= 2.0 + 1e-9

    def test_fermion_conditional_is_equal_thirds_mixture(self):
        report = scenario_mixed_input(Statistics.FERMION)
        expected = np.diag([1 / 3, 1 / 6, 1 / 6, 1 / 3]).astype(complex)
        expected[1, 2] = expected[2, 1] = 1 / 6
        assert np.allclose(report.matrices["conditional_dm"], expected, atol=1e-9)
        assert report.scalar("conditional_decomposition") == (
            "0.333333 down,down + 0.333333 psi_plus + 0.333333 up,up"
        )

    def test_boson_conditional_is_pure_bell(self):
        report = scenario_mixed_input(Statistics.BOSON)
        assert report.scalar("conditional_decomposition") == "1 psi_minus"

    def test_ensemble_linearity(self):
        # scenario numbers must equal the hand-weighted pure-component numbers
        report = scenario_mixed_input(Statistics.FERMION)
        net = fig1_network()
        total = 0.0
        for s_a in (UP, DOWN):
            for s_b in (UP, DOWN):
                state = make_product_state(Statistics.FERMION, [Mode("A", s_a), Mode("B", s_b)])
                branches = detect(run_network(net, state), net.monitored)
                total += 0.25 * sum(b.probability for b in branches if len(b.pattern) == 2)
        assert abs(report.scalar("coincidence_probability") - total) < 1e-12


class TestEnsemble:
    def test_unpolarized_pair_components(self):
        # mixed-input averages over the four spin products, each at weight 1/4
        report = scenario_mixed_input(Statistics.BOSON)
        assert report.table["input"] == ["Au+Bu", "Au+Bd", "Ad+Bu", "Ad+Bd"]
        assert report.table["weight"] == [0.25] * 4


@pytest.mark.parametrize("statistics", BOTH_STATISTICS)
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_no_scenario_builds_a_two_qubit_dm(monkeypatch, name, statistics):
    # every two-qubit quantity is read off amplitude blocks, not a validated 4x4 object
    scenario = SCENARIOS[name]
    defaults = {p.name: p.default for p in scenario.params}
    expected = scenario.run(statistics=statistics, **defaults).to_json()

    def no_matrix(*args):
        raise AssertionError(f"{name} built a TwoQubitDM")

    monkeypatch.setattr(metrics.TwoQubitDM, "__post_init__", no_matrix)
    assert scenario.run(statistics=statistics, **defaults).to_json() == expected


class TestFeedback:
    def test_exact_three_rounds(self):
        report = scenario_feedback(3, Statistics.FERMION)
        assert abs(report.scalar("cumulative_success") - 7 / 8) < 1e-12

    def test_matches_single_shot_setup(self):
        feedback = scenario_feedback(1, Statistics.BOSON)
        single = scenario_fig1(Statistics.BOSON)
        assert abs(
            feedback.scalar("cumulative_success") - single.scalar("coincidence_probability")
        ) < 1e-12

    def test_sampled_success_within_three_sigma(self):
        trials = 100_000
        report = scenario_feedback(3, Statistics.BOSON, trials=trials, seed=42)
        exact = 7 / 8
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(report.scalar("sampled_success") - exact) < 3.0 * sigma
        assert report.scalars["sampled_success"].provenance == "sampled"

    def test_counts_are_one_draw_of_the_first_success_probabilities(self):
        report = scenario_feedback(6, Statistics.BOSON, trials=5000, seed=11)
        failures = [1.0, *report.table["cumulative_failure"]]
        first_success = [f * p for f, p in zip(failures, report.table["success_probability"])]
        counts = interferometer._draw_counts([failures[-1], *first_success], 5000, 11).tolist()
        assert report.table["sampled_successes"] == counts[1:]
        assert report.table["sampled_cumulative_success"] == [
            sum(counts[1:k + 1]) / 5000 for k in range(1, 7)
        ]
        assert report.scalar("sampled_success") == sum(counts[1:]) / 5000

    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_first_successes_follow_the_closed_form(self, statistics):
        # chi-square over the 11 outcomes (first success in round 1..10, or none):
        # the 0.999 quantile for 10 degrees of freedom is 29.59
        trials, depth = 10 ** 6, 10
        report = scenario_feedback(depth, statistics, trials=trials)
        successes = report.table["sampled_successes"]
        observed = [trials - sum(successes), *successes]
        expected = [trials * 0.5 ** depth] + [trials * 0.5 ** k for k in range(1, depth + 1)]
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        assert chi2 < 29.59

    def test_round_table_tracks_bell_identity(self):
        report = scenario_feedback(2, Statistics.FERMION, trials=0)
        assert report.table["bell_state"] == ["psi_plus", "psi_minus"]


class TestComplementarity:
    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_grid_rows_satisfy_sum_rule(self, statistics):
        report = scenario_complementarity(21, statistics)
        rows = table_rows(report.table)
        assert len(rows) == 21
        for row in rows:
            assert abs(row["total"] - 1.0) < 1e-9
            assert abs(row["entanglement"] - row["overlap_sq"]) < 1e-9
            assert abs(row["entanglement_chsh"] - row["entanglement"]) < 1e-9

    def test_extreme_rows(self):
        report = scenario_complementarity(11, Statistics.FERMION)
        first, *_, last = table_rows(report.table)
        assert first["overlap_sq"] == 0.0 and abs(first["distinguishability"] - 1.0) < 1e-12
        assert last["overlap_sq"] == 1.0 and abs(last["entanglement"] - 1.0) < 1e-9

    def test_scalars_report_max_deviation(self):
        report = scenario_complementarity(5, Statistics.BOSON)
        assert report.scalar("max_total_deviation") < 1e-9
        assert report.scalar("max_chsh_deviation") < 1e-9


SWEEPS = [
    lambda statistics: scenario_complementarity(30, statistics),
    lambda statistics: scenario_gaussian(0.8, 1.3, 4.0, 30, statistics),
]


class TestSweepChunks:
    # 30 points: four chunks of 7 and a remainder of 2
    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    @pytest.mark.parametrize("sweep", SWEEPS, ids=["complementarity", "gaussian"])
    def test_rows_do_not_depend_on_chunk_size(self, monkeypatch, sweep, statistics):
        report = sweep(statistics)
        monkeypatch.setattr(scenarios, "METRICS_CHUNK", 7)
        chunked = sweep(statistics)
        assert chunked.to_json() == report.to_json()
        assert chunked.to_csv() == report.to_csv()


class TestGaussian:
    def test_zero_delay_is_maximal(self):
        report = scenario_gaussian(1.0, 1.0, 2.0 * math.sqrt(2.0), 5, Statistics.BOSON)
        rows = table_rows(report.table)
        middle = rows[len(rows) // 2]
        assert middle["delay"] == 0.0 and abs(middle["entanglement"] - 1.0) < 1e-9

    def test_reference_point_hits_one_over_e(self):
        report = scenario_gaussian(1.0, 1.0, 2.0 * math.sqrt(2.0), 5, Statistics.FERMION)
        point = table_rows(report.table)[3]
        assert abs(point["delay"] - math.sqrt(2.0)) < 1e-12
        assert abs(point["entanglement"] - math.exp(-1.0)) < 1e-9

    def test_monotone_in_absolute_delay(self):
        report = scenario_gaussian(0.7, 1.3, 3.0, 21, Statistics.BOSON)
        values = report.table["entanglement"]
        middle = len(values) // 2
        for i in range(middle, len(values) - 1):
            assert values[i] > values[i + 1]
        for i in range(0, middle):
            assert values[i] < values[i + 1]

    def test_pipeline_matches_closed_form(self):
        report = scenario_gaussian(0.9, 1.7, 4.0, 21, Statistics.FERMION)
        assert report.scalar("max_deviation") < 1e-9


class TestDual:
    @pytest.mark.parametrize("statistics", BOTH_STATISTICS)
    def test_both_pictures_agree(self, statistics):
        report = scenario_dual(statistics)
        assert abs(report.scalar("spin_concurrence") - 1.0) < 1e-9
        assert abs(report.scalar("path_concurrence") - 1.0) < 1e-9
        assert report.scalar("difference") < 1e-9


class TestReproducibility:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: scenario_fig1(Statistics.FERMION),
            lambda: scenario_tree(3, Statistics.BOSON),
            lambda: scenario_feedback(4, Statistics.FERMION, trials=2000, seed=9),
            lambda: scenario_complementarity(7, Statistics.BOSON),
        ],
    )
    def test_identical_runs_serialize_identically(self, factory):
        assert factory().to_json() == factory().to_json()

    def test_every_scalar_carries_provenance(self):
        report = scenario_feedback(2, Statistics.BOSON, trials=500, seed=1)
        for scalar in report.scalars.values():
            assert scalar.provenance in ("exact", "sampled")


class TestCatalog:
    def test_shipped_set(self):
        names = [info.name for info in list_scenarios()]
        assert names == sorted(names)
        assert set(names) == {
            "fig1",
            "fig2",
            "tree",
            "feedback",
            "statistics-test",
            "mixed-input",
            "complementarity",
            "gaussian",
            "dual",
        }

    def test_catalog_is_stable(self):
        assert list_scenarios() == list_scenarios()

    def test_every_entry_names_its_claim(self):
        for info in list_scenarios():
            assert info.claim and "statistics" in info.parameters
