"""Unit tests for the WeightedDataset value type."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import WeightedDataset

from strategies import weighted_datasets


class TestConstruction:
    def test_from_mapping(self):
        dataset = WeightedDataset({"a": 1.5, "b": 2.0})
        assert dataset["a"] == 1.5
        assert dataset["b"] == 2.0

    def test_from_pairs_accumulates_duplicates(self):
        dataset = WeightedDataset([("a", 1.0), ("a", 2.5), ("b", 1.0)])
        assert dataset["a"] == 3.5

    def test_from_records_unit_weights(self):
        dataset = WeightedDataset.from_records(["x", "y", "x"])
        assert dataset["x"] == 2.0
        assert dataset["y"] == 1.0

    def test_from_records_custom_weight(self):
        dataset = WeightedDataset.from_records(["x"], weight=0.5)
        assert dataset["x"] == 0.5

    def test_empty(self):
        dataset = WeightedDataset.empty()
        assert dataset.is_empty()
        assert dataset.total_weight() == 0.0

    def test_zero_weights_are_dropped(self):
        dataset = WeightedDataset({"a": 0.0, "b": 1.0})
        assert "a" not in dataset
        assert len(dataset) == 1

    def test_tiny_weights_below_tolerance_are_dropped(self):
        dataset = WeightedDataset({"a": 1e-15, "b": 1.0})
        assert "a" not in dataset

    def test_cancelling_pairs_are_dropped(self):
        dataset = WeightedDataset([("a", 1.0), ("a", -1.0), ("b", 2.0)])
        assert "a" not in dataset

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedDataset({"a": float("nan")})
        with pytest.raises(ValueError):
            WeightedDataset({"a": float("inf")})

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            WeightedDataset({}, tolerance=-1.0)


class TestAccess:
    def test_missing_record_has_zero_weight(self, paper_dataset_a):
        assert paper_dataset_a["0"] == 0.0
        assert paper_dataset_a.weight("nope") == 0.0

    def test_paper_example_weights(self, paper_dataset_a, paper_dataset_b):
        assert paper_dataset_a["2"] == 2.0
        assert paper_dataset_b["0"] == 0.0

    def test_iteration_and_len(self, paper_dataset_a):
        assert set(paper_dataset_a) == {"1", "2", "3"}
        assert len(paper_dataset_a) == 3

    def test_items_and_to_dict(self, paper_dataset_a):
        assert dict(paper_dataset_a.items()) == paper_dataset_a.to_dict()

    def test_top(self, paper_dataset_a):
        assert paper_dataset_a.top(1) == [("2", 2.0)]
        assert len(paper_dataset_a.top(10)) == 3
        with pytest.raises(ValueError):
            paper_dataset_a.top(-1)

    def test_repr_mentions_size(self, paper_dataset_a):
        assert "records=3" in repr(paper_dataset_a)


class TestNormsAndDistance:
    def test_total_weight(self, paper_dataset_a):
        assert paper_dataset_a.total_weight() == pytest.approx(3.75)

    def test_norm_alias(self, paper_dataset_a):
        assert paper_dataset_a.norm() == paper_dataset_a.total_weight()

    def test_distance_paper_example(self, paper_dataset_a, paper_dataset_b):
        # |0.75-3| + |2-0| + |1-0| + |0-2| = 7.25
        assert paper_dataset_a.distance(paper_dataset_b) == pytest.approx(7.25)

    def test_distance_is_symmetric(self, paper_dataset_a, paper_dataset_b):
        assert paper_dataset_a.distance(paper_dataset_b) == pytest.approx(
            paper_dataset_b.distance(paper_dataset_a)
        )

    def test_distance_to_self_is_zero(self, paper_dataset_a):
        assert paper_dataset_a.distance(paper_dataset_a) == 0.0

    def test_distance_requires_dataset(self, paper_dataset_a):
        with pytest.raises(TypeError):
            paper_dataset_a.distance({"1": 1.0})

    @given(weighted_datasets(), weighted_datasets(), weighted_datasets())
    def test_triangle_inequality(self, a, b, c):
        assert a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9

    @given(weighted_datasets())
    def test_norm_equals_distance_to_empty(self, dataset):
        assert dataset.total_weight() == pytest.approx(
            dataset.distance(WeightedDataset.empty())
        )


class TestArithmetic:
    def test_add(self, paper_dataset_a, paper_dataset_b):
        combined = paper_dataset_a + paper_dataset_b
        assert combined["1"] == pytest.approx(3.75)
        assert combined["4"] == pytest.approx(2.0)

    def test_sub(self, paper_dataset_a, paper_dataset_b):
        difference = paper_dataset_a - paper_dataset_b
        assert difference["1"] == pytest.approx(-2.25)
        assert difference["4"] == pytest.approx(-2.0)

    def test_scale_and_mul(self, paper_dataset_a):
        doubled = paper_dataset_a.scale(2.0)
        assert doubled["2"] == 4.0
        assert (0.5 * paper_dataset_a)["2"] == 1.0
        assert (paper_dataset_a * 0.5)["2"] == 1.0

    def test_neg(self, paper_dataset_a):
        negated = -paper_dataset_a
        assert negated["2"] == -2.0

    @given(weighted_datasets(), weighted_datasets())
    def test_add_then_subtract_roundtrip(self, a, b):
        assert (a + b - b).distance(a) < 1e-9

    def test_not_hashable(self, paper_dataset_a):
        with pytest.raises(TypeError):
            hash(paper_dataset_a)

    def test_equality(self, paper_dataset_a):
        same = WeightedDataset({"1": 0.75, "2": 2.0, "3": 1.0})
        assert paper_dataset_a == same
        assert not (paper_dataset_a != same)
        assert paper_dataset_a != WeightedDataset({"1": 0.75})


class TestHelpers:
    def test_restrict(self, paper_dataset_a):
        evens = paper_dataset_a.restrict(lambda record: int(record) % 2 == 0)
        assert set(evens.records()) == {"2"}

    def test_partition_by(self, paper_dataset_a):
        parts = paper_dataset_a.partition_by(lambda record: int(record) % 2)
        assert set(parts) == {0, 1}
        assert parts[0]["2"] == 2.0
        assert parts[1].total_weight() == pytest.approx(1.75)

    def test_partition_reassembles(self, paper_dataset_a):
        parts = paper_dataset_a.partition_by(lambda record: int(record) % 2)
        total = WeightedDataset.empty()
        for part in parts.values():
            total = total + part
        assert total.distance(paper_dataset_a) < 1e-12

    @given(weighted_datasets())
    def test_partition_preserves_norm(self, dataset):
        parts = dataset.partition_by(lambda record: hash(record) % 3)
        assert sum(p.total_weight() for p in parts.values()) == pytest.approx(
            dataset.total_weight()
        )

    @given(
        weights=st.dictionaries(
            st.integers(-20, 20),
            st.one_of(
                st.floats(-8.0, 8.0, allow_nan=False),
                # Around the tolerance: some of these the dataset drops.
                st.sampled_from([1e-3, -1e-3, 0.999e-3, 1.001e-3, -1.001e-3, 0.0]),
            ),
            max_size=24,
        ),
        tolerance=st.sampled_from([1e-12, 1e-3]),
    )
    def test_partition_parts_equal_constructor_built_parts(self, weights, tolerance):
        """Parts are adopted, not re-validated — and come out as ``__init__``
        would have built them: same key order, rows, norm bits and tolerance."""
        dataset = WeightedDataset(weights, tolerance=tolerance)
        key = lambda record: record % 3  # noqa: E731

        expected: dict = {}
        for record, weight in dataset.items():
            expected.setdefault(key(record), {})[record] = weight
        expected = {
            part_key: WeightedDataset(part, tolerance=tolerance)
            for part_key, part in expected.items()
        }

        parts = dataset.partition_by(key)
        assert list(parts) == list(expected)
        for part_key, part in parts.items():
            reference = expected[part_key]
            assert list(part.items()) == list(reference.items())
            assert part.total_weight() == reference.total_weight()
            assert part.tolerance == reference.tolerance == tolerance
            assert len(part) > 0
