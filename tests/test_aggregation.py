"""Tests for NoisyCount and the other DP aggregations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    LaplaceNoise,
    WeightedDataset,
    exponential_mechanism,
    noisy_average,
    noisy_sum,
)
from repro.core.aggregation import (
    ExactAnswer,
    NoisyCountResult,
    _canonical_sort_key,
)


@pytest.fixture()
def dataset():
    return WeightedDataset({"1": 0.75, "2": 2.0, "3": 1.0})


class TestNoisyCountResult:
    def test_observed_records_cover_support(self, dataset):
        result = NoisyCountResult(dataset, epsilon=1.0, noise=LaplaceNoise(0))
        assert result.observed_records() >= {"1", "2", "3"}

    def test_values_centre_on_true_weights(self, dataset):
        # Average many independent measurements; the noise is zero-mean.
        values = []
        for seed in range(300):
            result = NoisyCountResult(dataset, epsilon=2.0, noise=LaplaceNoise(seed))
            values.append(result["2"])
        assert np.mean(values) == pytest.approx(2.0, abs=0.15)

    def test_unseen_record_gets_lazy_noise(self, dataset):
        result = NoisyCountResult(dataset, epsilon=1.0, noise=LaplaceNoise(1))
        assert "0" not in result
        value = result["0"]
        assert "0" in result
        # The lazily drawn value is memoised: repeated queries agree.
        assert result["0"] == value

    def test_lazy_noise_is_zero_mean(self, dataset):
        values = [
            NoisyCountResult(dataset, epsilon=1.0, noise=LaplaceNoise(seed)).value("absent")
            for seed in range(300)
        ]
        assert abs(np.mean(values)) < 0.25

    def test_len_and_items(self, dataset):
        result = NoisyCountResult(dataset, epsilon=1.0, noise=LaplaceNoise(2))
        assert len(result) == 3
        assert set(dict(result.items())) == {"1", "2", "3"}

    def test_total_and_as_weighted_dataset(self, dataset):
        result = NoisyCountResult(dataset, epsilon=1.0, noise=LaplaceNoise(3))
        assert result.total() == pytest.approx(sum(v for _, v in result.items()))
        assert isinstance(result.as_weighted_dataset(), WeightedDataset)

    def test_l1_distance_to_candidate(self, dataset):
        result = NoisyCountResult(dataset, epsilon=1.0, noise=LaplaceNoise(4))
        candidate = WeightedDataset({"1": 1.0, "7": 2.0})
        distance = result.l1_distance_to(candidate)
        manual = (
            abs(1.0 - result.value("1"))
            + abs(2.0 - result.value("7"))
            + abs(result.value("2"))
            + abs(result.value("3"))
        )
        assert distance == pytest.approx(manual)

    def test_l1_distance_to_exact_dataset_is_small_at_high_epsilon(self, dataset):
        result = NoisyCountResult(dataset, epsilon=1e6, noise=LaplaceNoise(5))
        assert result.l1_distance_to(dataset) < 1e-3

    def test_repr_mentions_query_name(self, dataset):
        result = NoisyCountResult(dataset, 0.5, noise=LaplaceNoise(0), query_name="demo")
        assert "demo" in repr(result)

    def test_invalid_epsilon_rejected(self, dataset):
        from repro.exceptions import InvalidEpsilonError

        with pytest.raises(InvalidEpsilonError):
            NoisyCountResult(dataset, epsilon=-1.0)


class Opaque:
    """A record whose repr is address-based: it contributes no sort content."""

    __slots__ = ("tag",)

    def __init__(self, tag):
        self.tag = tag


def per_record_release(exact, epsilon, seed):
    """The release as it was first written: one scalar draw per record."""
    noise = LaplaceNoise(seed)
    values = {}
    for record, weight in sorted(exact.items(), key=_canonical_sort_key):
        values[record] = weight + noise.sample(epsilon)
    return values, noise.rng.bit_generator.state


class TestVectorDrawEqualsPerRecordDraws:
    """One ``sample_many`` call releases what n ``sample`` calls did."""

    @staticmethod
    def _check(exact, epsilon=0.37, seed=8):
        expected, state = per_record_release(exact, epsilon, seed)
        for source in (exact, ExactAnswer(exact)):  # evaluated now, or held
            noise = LaplaceNoise(seed)
            result = NoisyCountResult(source, epsilon, noise=noise)
            assert list(result.items()) == list(expected.items())  # order and bits
            assert all(type(value) is float for value in result.to_dict().values())
            assert noise.rng.bit_generator.state == state
        return expected

    @pytest.mark.parametrize("size", [0, 1, 1000])
    def test_same_order_values_and_generator_state(self, size):
        rng = np.random.default_rng(size)
        exact = WeightedDataset(
            {(index % 37, index): float(w) for index, w in enumerate(rng.random(size) * 50)}
        )
        assert len(exact) == size
        assert len(self._check(exact)) == size

    def test_address_based_reprs_keep_their_iteration_order(self):
        records = [Opaque(index) for index in range(50)]
        exact = WeightedDataset({record: 1.0 + record.tag for record in reversed(records)})
        expected = self._check(exact)
        # All tokens tie, the sort is stable: dataset order, whatever the addresses.
        assert [record.tag for record in expected] == list(range(49, -1, -1))

    @pytest.mark.parametrize("one", [1, 1.0, True, np.int64(1)])
    def test_equal_numbers_sort_alike_whichever_representative_is_kept(self, one):
        exact = WeightedDataset({"b": 1.0, (one, 2): 2.0, 10: 3.0, one: 4.0, 2: 5.0})
        reference = WeightedDataset({"b": 1.0, (1, 2): 2.0, 10: 3.0, 1: 4.0, 2: 5.0})
        assert self._check(exact) == self._check(reference)
        assert list(self._check(exact)) == list(self._check(reference))

    def test_exact_answer_shows_a_count_only(self, dataset):
        answer = ExactAnswer(dataset)
        assert answer.records == ("1", "2", "3")
        assert answer.weights.tolist() == [0.75, 2.0, 1.0]
        assert len(answer) == 3
        assert repr(answer) == "<ExactAnswer records=3>"


class TestNoisySum:
    def test_unbiased(self, dataset):
        values = [
            noisy_sum(dataset, 5.0, lambda record: 1.0, noise=LaplaceNoise(seed))
            for seed in range(300)
        ]
        assert np.mean(values) == pytest.approx(dataset.total_weight(), abs=0.1)

    def test_value_selector_is_clamped(self):
        dataset = WeightedDataset({"big": 1.0})
        value = noisy_sum(dataset, 1e6, lambda record: 100.0, clamp=1.0, noise=LaplaceNoise(0))
        assert value == pytest.approx(1.0, abs=1e-3)

    def test_negative_values_clamped_symmetrically(self):
        dataset = WeightedDataset({"big": 1.0})
        value = noisy_sum(dataset, 1e6, lambda record: -100.0, clamp=2.0, noise=LaplaceNoise(0))
        assert value == pytest.approx(-2.0, abs=1e-3)

    def test_invalid_clamp_rejected(self, dataset):
        with pytest.raises(ValueError):
            noisy_sum(dataset, 1.0, clamp=0.0)


class TestNoisyAverage:
    def test_reasonable_at_high_epsilon(self):
        dataset = WeightedDataset({1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0})
        value = noisy_average(dataset, 1e6, lambda record: record / 4.0, noise=LaplaceNoise(0))
        assert value == pytest.approx((1 + 2 + 3 + 4) / 16.0, abs=1e-3)

    def test_denominator_never_zero(self):
        empty = WeightedDataset.empty()
        value = noisy_average(empty, 0.5, lambda record: 1.0, noise=LaplaceNoise(1))
        assert np.isfinite(value)


class TestExponentialMechanism:
    def test_prefers_high_scoring_candidates(self):
        dataset = WeightedDataset({"x": 5.0})
        candidates = ["good", "bad"]

        def score(candidate, data):
            return data["x"] if candidate == "good" else 0.0

        picks = [
            exponential_mechanism(dataset, candidates, score, epsilon=5.0, rng=seed)
            for seed in range(50)
        ]
        assert picks.count("good") >= 45

    def test_low_epsilon_is_near_uniform(self):
        dataset = WeightedDataset({"x": 5.0})
        candidates = ["good", "bad"]

        def score(candidate, data):
            return data["x"] if candidate == "good" else 0.0

        picks = [
            exponential_mechanism(dataset, candidates, score, epsilon=1e-6, rng=seed)
            for seed in range(200)
        ]
        assert 60 <= picks.count("good") <= 140

    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            exponential_mechanism(WeightedDataset.empty(), [], lambda c, d: 0.0, 1.0)
