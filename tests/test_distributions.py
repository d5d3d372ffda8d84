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

    def test_apply_bitwise_confusion(self):
        dist = ProbabilityDistribution({0b00: 1.0}, num_bits=2)
        noisy = dist.apply_bitwise_confusion({0: 0.1, 1: 0.2})
        assert noisy[0b00] == pytest.approx(0.9 * 0.8)
        assert noisy[0b01] == pytest.approx(0.1 * 0.8)
        assert noisy[0b10] == pytest.approx(0.9 * 0.2)
        assert noisy[0b11] == pytest.approx(0.1 * 0.2)

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
