"""Unit tests for the eager stable transformations (Section 2.4–2.8).

Each transformation is checked against the worked examples in the paper and
against hand-computed weights.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core import WeightedDataset
from repro.core import transformations as xf


@pytest.fixture()
def a():
    return WeightedDataset({"1": 0.75, "2": 2.0, "3": 1.0})


@pytest.fixture()
def b():
    return WeightedDataset({"1": 3.0, "4": 2.0})


class TestSelect:
    def test_paper_parity_example(self, a):
        result = xf.select(a, lambda x: str(int(x) % 2))
        assert result.to_dict() == pytest.approx({"1": 1.75, "0": 2.0})

    def test_identity(self, a):
        assert xf.select(a, lambda x: x).distance(a) == 0.0

    def test_collision_accumulates(self):
        dataset = WeightedDataset({"x": 1.0, "y": 2.0})
        result = xf.select(dataset, lambda record: "all")
        assert result["all"] == 3.0

    def test_empty_input(self):
        assert xf.select(WeightedDataset.empty(), lambda x: x).is_empty()


class TestWhere:
    def test_paper_example(self, a):
        result = xf.where(a, lambda x: int(x) ** 2 < 5)
        assert result.to_dict() == pytest.approx({"1": 0.75, "2": 2.0})

    def test_keeps_weights(self, a):
        result = xf.where(a, lambda x: True)
        assert result.distance(a) == 0.0

    def test_rejects_all(self, a):
        assert xf.where(a, lambda x: False).is_empty()


class TestSelectMany:
    def test_paper_example(self, a):
        # f(x) = {1, ..., x} with unit weights.
        result = xf.select_many(a, lambda x: list(range(1, int(x) + 1)))
        assert result[1] == pytest.approx(0.75 + 1.0 + 1.0 / 3.0)
        assert result[2] == pytest.approx(1.0 + 1.0 / 3.0)
        assert result[3] == pytest.approx(1.0 / 3.0)

    def test_single_output_keeps_weight(self):
        dataset = WeightedDataset({"a": 0.4})
        result = xf.select_many(dataset, lambda x: [x.upper()])
        # One output record: norm 1, so no down-scaling below the input weight.
        assert result["A"] == pytest.approx(0.4)

    def test_output_weight_never_exceeds_input(self):
        dataset = WeightedDataset({"a": 2.0})
        result = xf.select_many(dataset, lambda x: ["x", "y", "z", "w"])
        assert result.total_weight() == pytest.approx(2.0)

    def test_empty_production(self):
        dataset = WeightedDataset({"a": 1.0})
        assert xf.select_many(dataset, lambda x: []).is_empty()

    def test_weighted_dataset_output(self):
        dataset = WeightedDataset({"a": 1.0})
        result = xf.select_many(dataset, lambda x: WeightedDataset({"u": 0.25, "v": 0.25}))
        # Produced norm 0.5 <= 1, so no scaling beyond the input weight.
        assert result["u"] == pytest.approx(0.25)
        assert result["v"] == pytest.approx(0.25)

    def test_mapping_output(self):
        dataset = WeightedDataset({"a": 1.0})
        result = xf.select_many(dataset, lambda x: {"u": 3.0, "v": 1.0})
        # Norm 4 > 1, scaled down to unit weight: 3/4 and 1/4.
        assert result["u"] == pytest.approx(0.75)
        assert result["v"] == pytest.approx(0.25)

    def test_explicit_weight_pairs(self):
        dataset = WeightedDataset({"a": 1.0})
        result = xf.select_many(dataset, lambda x: [("u", 0.5), ("v", 0.25)])
        assert result["u"] == pytest.approx(0.5)
        assert result["v"] == pytest.approx(0.25)


class TestNormalizeWeightedOutput:
    def test_plain_records(self):
        assert xf.normalize_weighted_output(["a", "b"]) == [("a", 1.0), ("b", 1.0)]

    def test_tuple_records_with_non_numeric_second_element(self):
        # Tuples whose second element is not a number are plain records.
        assert xf.normalize_weighted_output([("a", "b")]) == [(("a", "b"), 1.0)]

    def test_boolean_second_element_is_a_record(self):
        assert xf.normalize_weighted_output([("a", True)]) == [(("a", True), 1.0)]

    def test_weighted_pairs(self):
        assert xf.normalize_weighted_output([("a", 2.5)]) == [("a", 2.5)]


class TestGroupBy:
    def test_paper_example(self):
        c = WeightedDataset({"1": 0.75, "2": 2.0, "3": 1.0, "4": 2.0, "5": 2.0})
        result = xf.group_by(c, lambda x: int(x) % 2, reducer=lambda group: tuple(sorted(group)))
        expected = {
            (1, ("5",)): 0.5,
            (1, ("3", "5")): 0.125,
            (1, ("1", "3", "5")): 0.375,
            (0, ("2", "4")): 1.0,
        }
        assert result.to_dict() == pytest.approx(expected)

    def test_unit_weights_give_half_weight_groups(self):
        edges = WeightedDataset.from_records([("a", "b"), ("a", "c"), ("b", "c")])
        degrees = xf.group_by(edges, lambda e: e[0], reducer=len)
        assert degrees[("a", 2)] == pytest.approx(0.5)
        assert degrees[("b", 1)] == pytest.approx(0.5)

    def test_unit_weight_groups_emit_half_weight_each(self):
        edges = WeightedDataset.from_records([(i, i + 1) for i in range(10)])
        grouped = xf.group_by(edges, lambda e: e[0] % 3, reducer=len)
        # With unit-weight inputs each key emits exactly one record of weight
        # 0.5 (the full group); here there are three keys.
        assert grouped.total_weight() == pytest.approx(0.5 * 3)
        assert all(weight == pytest.approx(0.5) for _, weight in grouped.items())

    def test_default_reducer_is_tuple(self):
        data = WeightedDataset({"x": 1.0})
        grouped = xf.group_by(data, lambda r: "k")
        assert grouped[("k", ("x",))] == pytest.approx(0.5)


class TestShave:
    def test_paper_example(self, a):
        result = xf.shave(a, 1.0)
        expected = {("1", 0): 0.75, ("2", 0): 1.0, ("2", 1): 1.0, ("3", 0): 1.0}
        assert result.to_dict() == pytest.approx(expected)

    def test_select_is_inverse(self, a):
        shaved = xf.shave(a, 1.0)
        recovered = xf.select(shaved, lambda record: record[0])
        assert recovered.distance(a) < 1e-9

    def test_fractional_slices(self):
        dataset = WeightedDataset({"x": 1.2})
        result = xf.shave(dataset, 0.5)
        assert result[("x", 0)] == pytest.approx(0.5)
        assert result[("x", 1)] == pytest.approx(0.5)
        assert result[("x", 2)] == pytest.approx(0.2)

    def test_sequence_slices(self):
        dataset = WeightedDataset({"x": 2.0})
        result = xf.shave(dataset, [0.5, 1.0, 5.0])
        assert result[("x", 0)] == pytest.approx(0.5)
        assert result[("x", 1)] == pytest.approx(1.0)
        assert result[("x", 2)] == pytest.approx(0.5)

    def test_callable_slices(self):
        dataset = WeightedDataset({"x": 1.0, "yy": 1.0})
        result = xf.shave(dataset, lambda record: 0.5 * len(record))
        assert result[("x", 0)] == pytest.approx(0.5)
        assert result[("yy", 0)] == pytest.approx(1.0)

    def test_sequence_shorter_than_weight_truncates(self):
        dataset = WeightedDataset({"x": 5.0})
        result = xf.shave(dataset, [1.0])
        assert result.to_dict() == pytest.approx({("x", 0): 1.0})

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(ValueError):
            xf.shave(WeightedDataset({"x": 1.0}), 0.0)

    def test_negative_sequence_rejected(self):
        with pytest.raises(ValueError):
            xf.shave(WeightedDataset({"x": 1.0}), [-1.0])

    def test_negative_weight_records_ignored(self):
        dataset = WeightedDataset({"x": -1.0, "y": 1.0})
        result = xf.shave(dataset, 1.0)
        assert ("x", 0) not in result
        assert result[("y", 0)] == 1.0


class TestJoin:
    def test_paper_parity_example(self, a, b):
        result = xf.join(a, b, lambda x: int(x) % 2, lambda y: int(y) % 2)
        # Even part: {2: 2.0} x {4: 2.0} / (2 + 2) = 1.0.
        assert result[("2", "4")] == pytest.approx(1.0)
        # Odd part: {1: .75, 3: 1.0} x {1: 3.0} / (1.75 + 3.0).
        assert result[("1", "1")] == pytest.approx(0.75 * 3.0 / 4.75)
        assert result[("3", "1")] == pytest.approx(1.0 * 3.0 / 4.75)

    def test_no_matching_keys(self, a):
        other = WeightedDataset({"10": 1.0})
        result = xf.join(a, other, lambda x: "left", lambda y: "right")
        assert result.is_empty()

    def test_result_selector(self, a, b):
        result = xf.join(
            a, b, lambda x: 0, lambda y: 0, result_selector=lambda x, y: f"{x}-{y}"
        )
        assert all(isinstance(record, str) for record in result.records())

    def test_per_key_output_weight_bounded(self):
        # Output weight per key is ||A_k|| * ||B_k|| / (||A_k|| + ||B_k||),
        # which is at most min(||A_k||, ||B_k||).
        left = WeightedDataset({f"l{i}": 1.0 for i in range(5)})
        right = WeightedDataset({f"r{i}": 1.0 for i in range(3)})
        result = xf.join(left, right, lambda x: 0, lambda y: 0)
        assert result.total_weight() <= min(left.total_weight(), right.total_weight()) + 1e-9

    def test_length_two_paths_weight(self):
        # Symmetric triangle: every path (a, b, c) has weight 1/(2 d_b) = 0.25.
        edges = WeightedDataset.from_records(
            [(1, 2), (2, 1), (2, 3), (3, 2), (3, 1), (1, 3)]
        )
        paths = xf.join(
            edges,
            edges,
            lambda e: e[1],
            lambda e: e[0],
            result_selector=lambda x, y: (x[0], x[1], y[1]),
        )
        non_cycles = xf.where(paths, lambda p: p[0] != p[2])
        for record, weight in non_cycles.items():
            assert weight == pytest.approx(0.25)
        assert len(non_cycles) == 6


class TestSetOperators:
    def test_concat_paper_example(self, a, b):
        result = xf.concat(a, b)
        assert result.to_dict() == pytest.approx(
            {"1": 3.75, "2": 2.0, "3": 1.0, "4": 2.0}
        )

    def test_intersect_paper_example(self, a, b):
        assert xf.intersect(a, b).to_dict() == pytest.approx({"1": 0.75})

    def test_union_takes_max(self, a, b):
        result = xf.union(a, b)
        assert result["1"] == pytest.approx(3.0)
        assert result["2"] == pytest.approx(2.0)
        assert result["4"] == pytest.approx(2.0)

    def test_except_subtracts(self, a, b):
        result = xf.except_(a, b)
        assert result["1"] == pytest.approx(-2.25)
        assert result["4"] == pytest.approx(-2.0)
        assert result["2"] == pytest.approx(2.0)

    def test_intersect_with_empty_is_empty(self, a):
        assert xf.intersect(a, WeightedDataset.empty()).is_empty()

    def test_union_with_empty_is_identity(self, a):
        assert xf.union(a, WeightedDataset.empty()).distance(a) == 0.0

    def test_one_sided_negative_weights_survive(self):
        left = WeightedDataset({"x": 1.0, "y": -2.0})
        right = WeightedDataset({"z": -3.0, "w": 4.0})
        assert xf.intersect(left, right).to_dict() == {"y": -2.0, "z": -3.0}
        assert xf.union(left, right).to_dict() == {"x": 1.0, "w": 4.0}

    def test_output_does_not_depend_on_the_hash_seed(self):
        # String records hash differently in every process; neither the order
        # nor one bit of a norm or a released value may follow.
        probe = """
import random

from repro.core import PrivacySession, WeightedDataset
from repro.core import transformations as xf

draw = random.Random(5)
a = WeightedDataset({f"r{i}": draw.uniform(0.1, 2.0) for i in range(40)})
b = WeightedDataset({f"r{i}": draw.uniform(-0.5, 2.0) for i in range(20, 60)})
for op in (xf.union, xf.intersect):
    out = op(a, b)
    print(repr(list(out.items())), repr(out.total_weight()))
session = PrivacySession(seed=11)
left, right = session.protect("a", a), session.protect("b", b)
joined = left.union(right).join(
    right, lambda r: r[-1], lambda r: r[-1], lambda l, r: l[-1]
)
print(repr(list(joined.noisy_count(0.5).items())))
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        outputs = {
            subprocess.run(
                [sys.executable, "-c", probe],
                env={**env, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for hash_seed in ("0", "1")
        }
        assert len(outputs) == 1 and outputs.pop().count("\n") == 3
