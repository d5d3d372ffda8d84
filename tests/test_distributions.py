"""Tests for probability distributions, Hellinger fidelity and Bayesian updates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    Counts,
    ProbabilityDistribution,
    bayesian_update,
    hellinger_distance,
    hellinger_fidelity,
    iterative_bayesian_update,
    scatter_outcomes,
    total_variation_distance,
)


class TestScatterOutcomes:
    def test_bits_move_to_positions(self):
        assert scatter_outcomes([(0b01, 0.25), (0b10, 0.75)], [2, 0]) == {
            0b100: 0.25,
            0b001: 0.75,
        }

    def test_integer_weights_stay_integers(self):
        expanded = scatter_outcomes([(1, 3), (0, 7)], [1])
        assert expanded == {2: 3, 0: 7}
        assert all(isinstance(v, int) for v in expanded.values())

    def test_outcome_wider_than_positions_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            scatter_outcomes([(0b101, 0.5)], [4, 6])


class TestProbabilityDistribution:
    def test_from_dict_with_int_and_str_keys(self):
        dist = ProbabilityDistribution({"01": 0.25, 2: 0.75}, num_bits=2)
        assert dist["01"] == pytest.approx(0.25)
        assert dist[2] == pytest.approx(0.75)

    def test_from_dense_array(self):
        dist = ProbabilityDistribution([0.1, 0.2, 0.3, 0.4], num_bits=2)
        assert dist[3] == pytest.approx(0.4)

    def test_wrong_dense_length_raises(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution([0.5, 0.5, 0.0], num_bits=2)

    def test_negative_probability_raises(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution({0: -0.1}, num_bits=1)

    def test_outcome_out_of_range_raises(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution({4: 1.0}, num_bits=2)

    def test_bitstring_is_msb_first(self):
        dist = ProbabilityDistribution({0b10: 1.0}, num_bits=3)
        assert dist.bitstring(0b10) == "010"

    def test_normalized(self):
        dist = ProbabilityDistribution({0: 2.0, 1: 2.0}, num_bits=1).normalized()
        assert dist[0] == pytest.approx(0.5)
        assert dist.total == pytest.approx(1.0)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution({}, num_bits=1).normalized()

    def test_marginal_order_matters(self):
        # p(q1 q0): only outcome 0b01 (q0=1, q1=0)
        dist = ProbabilityDistribution({0b01: 1.0}, num_bits=2)
        assert dist.marginal([0]).to_dict() == {1: 1.0}
        assert dist.marginal([1]).to_dict() == {0: 1.0}
        assert dist.marginal([1, 0]).to_dict() == {0b10: 1.0}

    def test_marginal_sums_partners(self):
        dist = ProbabilityDistribution({0b00: 0.25, 0b10: 0.25, 0b01: 0.5}, num_bits=2)
        marg = dist.marginal([0])
        assert marg[0] == pytest.approx(0.5)
        assert marg[1] == pytest.approx(0.5)

    def test_marginal_duplicate_bits_raise(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution({0: 1.0}, 2).marginal([0, 0])

    def test_expectation_z(self):
        dist = ProbabilityDistribution({0b0: 0.75, 0b1: 0.25}, num_bits=1)
        assert dist.expectation_z([0]) == pytest.approx(0.5)

    def test_expectation_z_parity(self):
        dist = ProbabilityDistribution({0b11: 1.0}, num_bits=2)
        assert dist.expectation_z([0, 1]) == pytest.approx(1.0)
        assert dist.expectation_z([0]) == pytest.approx(-1.0)

    def test_sampling_matches_distribution(self, make_rng):
        dist = ProbabilityDistribution({0: 0.8, 1: 0.2}, num_bits=1)
        counts = dist.sample(20000, make_rng(0))
        assert counts.shots == 20000
        # Hoeffding: P(|freq - 0.8| >= 0.02) <= 2 exp(-2 * 20000 * 0.02^2)
        # ~= 2.3e-7 under re-seeding; the pinned seed makes it deterministic.
        assert counts[0] / 20000 == pytest.approx(0.8, abs=0.02)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize(
        "probabilities",
        [
            {0b101: 1.0},  # single outcome
            {0: 0.5, 3: 0.3, 6: 0.2, 7: 0.0},  # zero weight: never stored
            {5: 0.25, 1: 1e-9, 2: 0.25, 0: 0.5},  # 1 is (almost) never drawn
        ],
    )
    def test_sample_tally_matches_per_shot_loop(self, make_rng, seed, probabilities):
        # The vectorised tally must reproduce a per-shot loop exactly,
        # including key order (first draw first): later float sums over the
        # counts run in dict order.
        dist = ProbabilityDistribution(probabilities, num_bits=3)
        counts = dist.sample(1200, make_rng(seed))
        normalized = dist.normalized()
        outcomes = list(normalized.items())
        probs = np.array([p for _, p in outcomes])
        draws = make_rng(seed).choice(len(outcomes), size=1200, p=probs / probs.sum())
        reference: dict[int, int] = {}
        for index in draws:
            key = outcomes[int(index)][0]
            reference[key] = reference.get(key, 0) + 1
        assert list(counts.items()) == list(reference.items())
        assert counts.shots == 1200

    @staticmethod
    def _reference_sample(dist, shots, rng):
        """The draw ``sample`` must equal: ``Generator.choice`` over the
        normalised weights in key order, tallied by ``np.unique``, keys in
        order of first draw."""
        normalized = dist.normalized()
        outcomes = [outcome for outcome, _ in normalized.items()]
        probs = np.array([p for _, p in normalized.items()])
        draws = rng.choice(len(outcomes), size=shots, p=probs / probs.sum())
        drawn, first, tallies = np.unique(draws, return_index=True, return_counts=True)
        order = np.argsort(first)
        return [(outcomes[i], int(n)) for i, n in zip(drawn[order], tallies[order])]

    @pytest.mark.parametrize("shots", [1, 2, 7, 64, 1200, 4999, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sample_equals_generator_choice(self, make_rng, seed, shots):
        rng = make_rng(1000 + seed)
        for num_bits in (1, 2, 3, 5):
            for scale in (1.0, 1e-3, 37.5):  # unnormalised totals
                weights = rng.random(2**num_bits) * (rng.random(2**num_bits) > 0.4) * scale
                if not weights.any():
                    weights[-1] = scale
                dense = ProbabilityDistribution(weights, num_bits)
                keyed = ProbabilityDistribution(  # keys out of order, zeros given
                    {int(k): float(weights[k]) for k in rng.permutation(weights.size)},
                    num_bits,
                )
                for dist in (dense, keyed):
                    ours, theirs = make_rng(seed), make_rng(seed)
                    counts = dist.sample(shots, ours)
                    expected = self._reference_sample(dist, shots, theirs)
                    assert list(counts.items()) == expected
                    assert counts.shots == shots and counts.num_bits == num_bits
                    # Both consumed the same stream: the generators agree after.
                    assert ours.random() == theirs.random()

    def test_a_draw_on_a_cdf_step_goes_to_the_next_outcome(self, make_rng):
        # Generator.choice searches its CDF with side="right": a uniform draw
        # equal to a step belongs to the outcome after that step.  With
        # u >= 0.5, 1 - u and u + (1 - u) == 1 are exact, so the first
        # step of {3: u, 1: 1 - u} is exactly the first draw of make_rng(0).
        u = make_rng(0).random()
        assert u >= 0.5
        dist = ProbabilityDistribution({3: u, 1: 1.0 - u}, num_bits=2)
        counts = dist.sample(1, make_rng(0))
        assert list(counts.items()) == [(1, 1)]
        assert list(counts.items()) == self._reference_sample(dist, 1, make_rng(0))

    @pytest.mark.parametrize("shots", [1, 1200, 5000])
    def test_sample_of_a_single_outcome(self, make_rng, shots):
        dist = ProbabilityDistribution({0b110: 0.25}, num_bits=3)
        counts = dist.sample(shots, make_rng(3))
        assert list(counts.items()) == [(0b110, shots)]
        assert list(counts.items()) == self._reference_sample(dist, shots, make_rng(3))

    def test_sample_rejects_no_shots_and_an_all_zero_distribution(self, make_rng):
        dist = ProbabilityDistribution({0: 1.0}, num_bits=1)
        for shots in (0, -5):
            with pytest.raises(ValueError, match="shots must be positive"):
                dist.sample(shots, make_rng(0))
        for empty in (ProbabilityDistribution({}, 2), ProbabilityDistribution([0.0] * 4, 2)):
            with pytest.raises(ValueError, match="all-zero"):
                empty.sample(10, make_rng(0))

    def test_counts_distribution_equals_parsed_frequencies(self, make_rng):
        dist = ProbabilityDistribution({5: 0.25, 1: 0.125, 2: 0.125, 0: 0.5}, num_bits=3)
        counts = dist.sample(1200, make_rng(4))
        direct = counts.to_distribution()
        parsed = ProbabilityDistribution(
            {k: v / counts.shots for k, v in counts.to_dict(bitstrings=True).items()}, 3
        )
        assert list(direct.items()) == list(parsed.items())
        assert direct.num_bits == 3

    def test_uniform_and_point(self):
        assert ProbabilityDistribution.uniform(2)[3] == pytest.approx(0.25)
        assert ProbabilityDistribution.point(2, 2)[2] == pytest.approx(1.0)

    def test_equality(self):
        a = ProbabilityDistribution({0: 0.5, 1: 0.5}, 1)
        b = ProbabilityDistribution([0.5, 0.5], 1)
        assert a == b


class TestCopies:
    def test_distribution_copy_is_independent(self):
        dist = ProbabilityDistribution({0: 0.5, 1: 0.5}, num_bits=1)
        clone = dist.copy()
        clone._probs[0] = 0.9
        assert dist[0] == pytest.approx(0.5)
        assert clone.num_bits == 1

    def test_counts_copy_is_independent(self):
        counts = Counts({0: 10, 1: 20}, num_bits=1)
        clone = counts.copy()
        clone._counts.clear()
        assert counts.shots == 30
        assert clone.num_bits == 1


class TestCounts:
    def test_round_trip(self):
        counts = Counts({"00": 30, "11": 70}, 2)
        dist = counts.to_distribution()
        assert dist[0b11] == pytest.approx(0.7)
        assert counts.shots == 100

    def test_merge(self):
        a = Counts({0: 10}, 1)
        b = Counts({0: 5, 1: 5}, 1)
        merged = a.merge(b)
        assert merged[0] == 15 and merged[1] == 5

    def test_merge_width_mismatch(self):
        with pytest.raises(ValueError):
            Counts({0: 1}, 1).merge(Counts({0: 1}, 2))

    def test_out_of_range_outcomes_raise(self):
        for counts in ({4: 1}, {-1: 1}, {"101": 1}):
            with pytest.raises(ValueError, match="out of range"):
                Counts(counts, 2)

    def test_empty_counts_have_no_distribution(self):
        with pytest.raises(ValueError, match="at least one shot"):
            Counts({0: 0}, 1).to_distribution()


class TestHellinger:
    def test_identical_distributions(self):
        dist = ProbabilityDistribution({0: 0.3, 1: 0.7}, 1)
        assert hellinger_fidelity(dist, dist) == pytest.approx(1.0)
        assert hellinger_distance(dist, dist) == pytest.approx(0.0)

    def test_disjoint_distributions(self):
        a = ProbabilityDistribution({0: 1.0}, 1)
        b = ProbabilityDistribution({1: 1.0}, 1)
        assert hellinger_fidelity(a, b) == pytest.approx(0.0)
        assert hellinger_distance(a, b) == pytest.approx(1.0)

    def test_known_value(self):
        a = ProbabilityDistribution({0: 0.5, 1: 0.5}, 1)
        b = ProbabilityDistribution({0: 1.0}, 1)
        # BC = sqrt(0.5); F = BC^2 = 0.5
        assert hellinger_fidelity(a, b) == pytest.approx(0.5)

    def test_accepts_counts_and_dicts(self):
        counts = Counts({"0": 50, "1": 50}, 1)
        assert hellinger_fidelity(counts, {0: 0.5, 1: 0.5}) == pytest.approx(1.0)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            hellinger_fidelity(
                ProbabilityDistribution({0: 1.0}, 1), ProbabilityDistribution({0: 1.0}, 2)
            )

    def test_total_variation(self):
        a = ProbabilityDistribution({0: 1.0}, 1)
        b = ProbabilityDistribution({0: 0.5, 1: 0.5}, 1)
        assert total_variation_distance(a, b) == pytest.approx(0.5)

    def test_bitstring_keyed_dicts_take_their_width_from_the_key_length(self):
        # qiskit's hellinger_fidelity takes dicts keyed by MSB-first
        # bitstrings: "10" is the two-bit outcome 2, not decimal 10.
        p = {"01": 0.5, "10": 0.5}
        assert hellinger_fidelity(p, {"01": 0.5, "10": 0.5}) == pytest.approx(1.0)
        assert hellinger_distance(p, {"10": 0.5, "01": 0.5}) == pytest.approx(0.0)
        assert hellinger_fidelity(p, {"01": 1.0}) == pytest.approx(0.5)
        assert total_variation_distance(p, {"10": 1.0}) == pytest.approx(0.5)
        assert total_variation_distance({"000": 1.0}, {"100": 1.0}) == pytest.approx(1.0)
        # The same outcomes keyed by integers and by bitstrings agree.
        as_ints = ProbabilityDistribution({1: 0.25, 2: 0.75}, 3)
        assert hellinger_fidelity({"001": 0.25, "010": 0.75}, as_ints) == pytest.approx(1.0)
        assert hellinger_fidelity(as_ints, {"001": 0.25, "010": 0.75}) == pytest.approx(1.0)

    def test_bitstring_keys_of_different_lengths_raise(self):
        with pytest.raises(ValueError, match="different lengths"):
            hellinger_fidelity({"0": 0.5, "11": 0.5}, {"00": 1.0})
        with pytest.raises(ValueError):
            total_variation_distance({"00": 1.0}, {"000": 1.0})

    def test_integer_keys_keep_the_widest_bit_length(self):
        assert hellinger_fidelity({0: 0.5, 5: 0.5}, {5: 0.5, 0: 0.5}) == pytest.approx(1.0)
        assert hellinger_distance({1: 1.0}, {0: 1.0}) == pytest.approx(1.0)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_fidelity_bounds_and_symmetry(self, p_raw, q_raw):
        p = ProbabilityDistribution(np.array(p_raw) / sum(p_raw), 2)
        q = ProbabilityDistribution(np.array(q_raw) / sum(q_raw), 2)
        fidelity = hellinger_fidelity(p, q)
        assert 0.0 <= fidelity <= 1.0 + 1e-9
        assert fidelity == pytest.approx(hellinger_fidelity(q, p))


class TestBayesianUpdate:
    def test_marginal_matches_local_after_update(self):
        global_dist = ProbabilityDistribution({0b00: 0.4, 0b01: 0.1, 0b10: 0.3, 0b11: 0.2}, 2)
        local = ProbabilityDistribution({0: 0.9, 1: 0.1}, 1)
        updated = bayesian_update(global_dist, local, subset_bits=[0])
        assert updated.marginal([0])[0] == pytest.approx(0.9)
        assert updated.total == pytest.approx(1.0)

    def test_update_preserves_conditional_structure(self):
        global_dist = ProbabilityDistribution({0b00: 0.6, 0b10: 0.2, 0b01: 0.1, 0b11: 0.1}, 2)
        local = ProbabilityDistribution({0: 0.5, 1: 0.5}, 1)
        updated = bayesian_update(global_dist, local, subset_bits=[0])
        # Conditional on bit0=0, the ratio between 00 and 10 must be preserved (3:1).
        assert updated[0b00] / updated[0b10] == pytest.approx(3.0)

    def test_redistribute_mode_handles_zero_marginal(self):
        global_dist = ProbabilityDistribution({0b00: 1.0}, 2)
        local = ProbabilityDistribution({0: 0.5, 1: 0.5}, 1)
        updated = bayesian_update(global_dist, local, subset_bits=[0])
        assert updated.marginal([0])[1] == pytest.approx(0.5)

    def test_drop_mode_keeps_global_support(self):
        global_dist = ProbabilityDistribution({0b00: 1.0}, 2)
        local = ProbabilityDistribution({0: 0.5, 1: 0.5}, 1)
        updated = bayesian_update(global_dist, local, subset_bits=[0], zero_marginal_mode="drop")
        assert updated[0b00] == pytest.approx(1.0)

    def test_two_bit_subset(self):
        global_dist = ProbabilityDistribution(
            {0b000: 0.25, 0b011: 0.25, 0b101: 0.25, 0b110: 0.25}, 3
        )
        local = ProbabilityDistribution({0b00: 0.7, 0b11: 0.3}, 2)
        updated = bayesian_update(global_dist, local, subset_bits=[0, 1])
        marg = updated.marginal([0, 1])
        assert marg[0b00] == pytest.approx(0.7)
        assert marg[0b11] == pytest.approx(0.3)

    def test_invalid_arguments(self):
        dist = ProbabilityDistribution({0: 1.0}, 2)
        local = ProbabilityDistribution({0: 1.0}, 1)
        with pytest.raises(ValueError):
            bayesian_update(dist, local, subset_bits=[0, 0])
        with pytest.raises(ValueError):
            bayesian_update(dist, local, subset_bits=[5])
        with pytest.raises(ValueError):
            bayesian_update(dist, local, subset_bits=[0, 1])
        with pytest.raises(ValueError):
            bayesian_update(dist, local, subset_bits=[0], zero_marginal_mode="bogus")

    def test_iterative_update_multiple_subsets(self):
        global_dist = ProbabilityDistribution.uniform(2)
        local0 = ProbabilityDistribution({0: 0.8, 1: 0.2}, 1)
        local1 = ProbabilityDistribution({0: 0.3, 1: 0.7}, 1)
        updated = iterative_bayesian_update(
            global_dist, [(local0, [0]), (local1, [1])], rounds=3
        )
        assert updated.marginal([0])[0] == pytest.approx(0.8, abs=1e-6)
        assert updated.marginal([1])[0] == pytest.approx(0.3, abs=1e-6)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=8, max_size=8),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_update_always_matches_local_marginal(self, raw, p0):
        global_dist = ProbabilityDistribution(np.array(raw) / sum(raw), 3)
        local = ProbabilityDistribution({0: p0, 1: 1 - p0}, 1)
        updated = bayesian_update(global_dist, local, subset_bits=[1])
        assert updated.marginal([1])[0] == pytest.approx(p0, abs=1e-9)
        assert updated.total == pytest.approx(1.0, abs=1e-9)
