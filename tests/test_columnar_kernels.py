"""Unit tests: every columnar kernel agrees with its eager transformation,
and every spec fast path agrees with the equivalent generic callable."""

from __future__ import annotations

import pytest

from repro.columnar import (
    ColumnarDataset,
    Constant,
    ExplodeFields,
    Field,
    FieldIs,
    FieldsDiffer,
    GroupSize,
    JoinFields,
    Permute,
    kernels,
)
from repro.core import WeightedDataset
from repro.core import transformations as xf

EDGES = [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1), (3, 4), (4, 3)]


@pytest.fixture()
def edges():
    return WeightedDataset.from_records(EDGES)


def encode(dataset: WeightedDataset) -> ColumnarDataset:
    return ColumnarDataset.from_weighted(dataset)


def assert_agrees(columnar: ColumnarDataset, eager: WeightedDataset):
    assert columnar.to_weighted().distance(eager) == pytest.approx(0.0, abs=1e-9)


# ----------------------------------------------------------------------
# Unary kernels
# ----------------------------------------------------------------------
class TestUnaryKernels:
    def test_select_generic(self, edges):
        mapper = lambda e: (e[1], e[0])
        assert_agrees(kernels.select(encode(edges), mapper), xf.select(edges, mapper))

    def test_select_permute_matches_lambda(self, edges):
        assert_agrees(
            kernels.select(encode(edges), Permute(1, 0)),
            xf.select(edges, lambda e: (e[1], e[0])),
        )

    def test_select_projection_accumulates_collisions(self, edges):
        # A non-bijective pick must merge colliding outputs, like eager Select.
        assert_agrees(
            kernels.select(encode(edges), Permute(0, 0)),
            xf.select(edges, lambda e: (e[0], e[0])),
        )

    def test_select_field_matches_lambda(self, edges):
        assert_agrees(
            kernels.select(encode(edges), Field(0)),
            xf.select(edges, lambda e: e[0]),
        )

    def test_select_constant_funnels_all_weight(self, edges):
        result = kernels.select(encode(edges), Constant("all")).to_weighted()
        assert result["all"] == pytest.approx(edges.total_weight())
        assert len(result) == 1

    def test_where_generic_and_specs(self, edges):
        assert_agrees(
            kernels.where(encode(edges), lambda e: e[0] < e[1]),
            xf.where(edges, lambda e: e[0] < e[1]),
        )
        assert_agrees(
            kernels.where(encode(edges), FieldsDiffer(0, 1)),
            xf.where(edges, lambda e: e[0] != e[1]),
        )
        assert_agrees(
            kernels.where(encode(edges), FieldIs(0, 3)),
            xf.where(edges, lambda e: e[0] == 3),
        )

    def test_where_field_is_unhashable_value_falls_back(self, edges):
        # An unhashable comparison value cannot be interned; the kernel must
        # fall back to per-record == like the eager backend.
        assert_agrees(
            kernels.where(encode(edges), FieldIs(0, [1, 2])),
            xf.where(edges, lambda e: e[0] == [1, 2]),
        )

    def test_select_many_explode_matches_lambda(self, edges):
        assert_agrees(
            kernels.select_many(encode(edges), ExplodeFields()),
            xf.select_many(edges, lambda e: [e[0], e[1]]),
        )

    def test_select_many_generic_weighted_outputs(self, edges):
        # ==-invariant mapper: columnar materialisation may hand the mapper
        # an ==-equal representative of the record, never a different value.
        mapper = lambda e: {(e[0], "lo"): 0.5, (e[1], "hi"): 2.0}
        assert_agrees(
            kernels.select_many(encode(edges), mapper), xf.select_many(edges, mapper)
        )

    def test_group_by_with_reducer(self, edges):
        assert_agrees(
            kernels.group_by(encode(edges), lambda e: e[0], len),
            xf.group_by(edges, lambda e: e[0], len),
        )

    def test_group_by_unequal_weights_emits_prefixes(self):
        data = WeightedDataset({("a", 1): 3.0, ("a", 2): 1.0, ("b", 9): 2.0})
        assert_agrees(
            kernels.group_by(encode(data), lambda r: r[0]),
            xf.group_by(data, lambda r: r[0]),
        )

    @pytest.mark.parametrize("bucket", [1, 2, 3])
    def test_group_sizes_array_path_matches_eager(self, bucket):
        """``Field`` key + ``GroupSize``: unequal, tied and negative weights."""
        data = WeightedDataset(
            {
                ("a", 1): 3.0, ("a", 2): 1.0, ("a", 3): 1.0, ("a", 4): 0.25,
                ("b", 9): 2.0, ("b", 8): 2.0,
                ("c", 5): 0.1 + 0.2, ("c", 6): 0.7, ("c", 7): -0.5,
                (1, "x"): 1.0, (1.0, "y"): 1.0,
            }
        )  # fmt: skip
        columnar = kernels.group_by(encode(data), Field(0), GroupSize(bucket))
        eager = xf.group_by(data, Field(0), GroupSize(bucket))
        assert columnar.arity == 2
        if bucket == 1:  # no two prefixes share a record: nothing is summed
            assert columnar.to_weighted().to_dict() == eager.to_dict()
        assert set(columnar.to_weighted().records()) == set(eager.records())
        assert_agrees(columnar, eager)

    def test_group_sizes_on_unit_edges_gives_half_weight_degrees(self, edges):
        degrees = kernels.group_by(encode(edges), Field(0), GroupSize())
        assert degrees.to_weighted().to_dict() == {
            (1, 2): 0.5, (2, 2): 0.5, (3, 3): 0.5, (4, 1): 0.5
        }  # fmt: skip

    def test_distinct_and_down_scale(self, edges):
        assert_agrees(kernels.distinct(encode(edges), 0.5), xf.distinct(edges, 0.5))
        assert_agrees(kernels.down_scale(encode(edges), 0.25), xf.down_scale(edges, 0.25))
        with pytest.raises(ValueError):
            kernels.distinct(encode(edges), 0.0)
        with pytest.raises(ValueError):
            kernels.down_scale(encode(edges), 1.5)

    @pytest.mark.parametrize("slices", [1.0, 0.75, [1.0, 0.5, 0.25]])
    def test_shave_matches_eager(self, slices):
        data = WeightedDataset({"a": 2.6, "b": 0.4, "c": 1.0, "d": -1.0})
        assert_agrees(kernels.shave(encode(data), slices), xf.shave(data, slices))

    def test_shave_callable_spec(self):
        data = WeightedDataset({"aa": 2.0, "b": 1.4})
        spec = lambda record: [1.0] * len(record)
        assert_agrees(kernels.shave(encode(data), spec), xf.shave(data, spec))

    def test_shave_integer_weights(self):
        # Exactly-divisible weights hit the ceil boundary; slices must agree.
        data = WeightedDataset({"a": 3.0, "b": 1.0})
        assert_agrees(kernels.shave(encode(data), 1.0), xf.shave(data, 1.0))


# ----------------------------------------------------------------------
# Join
# ----------------------------------------------------------------------
class TestJoinKernel:
    def eager_paths(self, edges):
        return xf.join(
            edges,
            edges,
            lambda e: e[1],
            lambda e: e[0],
            lambda a, b: (a[0], a[1], b[1]),
        )

    def test_fast_path_matches_eager(self, edges):
        result = kernels.join(
            encode(edges),
            encode(edges),
            Field(1),
            Field(0),
            JoinFields(("l", 0), ("l", 1), ("r", 1)),
        )
        assert_agrees(result, self.eager_paths(edges))

    def test_generic_path_matches_eager(self, edges):
        result = kernels.join(
            encode(edges),
            encode(edges),
            lambda e: e[1],
            lambda e: e[0],
            lambda a, b: (a[0], a[1], b[1]),
        )
        assert_agrees(result, self.eager_paths(edges))

    def test_weighted_inputs(self):
        left = WeightedDataset({(1, "k"): 0.5, (2, "k"): 1.5, (3, "j"): 1.0})
        right = WeightedDataset({("k", "x"): 2.0, ("k", "y"): 0.25, ("m", "z"): 1.0})
        eager = xf.join(left, right, lambda r: r[1], lambda r: r[0])
        columnar = kernels.join(
            encode(left), encode(right), Field(1), Field(0)
        )
        assert_agrees(columnar, eager)

    def test_cross_type_equal_join_keys_match(self):
        # Join keys 1 and 1.0 are dict-equal; eager matches them, so must we.
        left = WeightedDataset({(1, "a"): 1.0})
        right = WeightedDataset({(1.0, "b"): 1.0})
        eager = xf.join(left, right, lambda r: r[0], lambda r: r[0])
        columnar = kernels.join(encode(left), encode(right), Field(0), Field(0))
        assert not columnar.is_empty()
        assert_agrees(columnar, eager)

    def test_disjoint_keys_give_empty_output(self):
        left = WeightedDataset({(1, "a"): 1.0})
        right = WeightedDataset({("b", 2): 1.0})
        result = kernels.join(encode(left), encode(right), Field(1), Field(0))
        assert result.is_empty()

    def test_empty_inputs(self, edges):
        empty = ColumnarDataset.empty()
        assert kernels.join(empty, encode(edges), Field(0), Field(0)).is_empty()
        assert kernels.join(encode(edges), empty, Field(0), Field(0)).is_empty()


# ----------------------------------------------------------------------
# Binary set-like kernels
# ----------------------------------------------------------------------
class TestBinaryKernels:
    CASES = [
        ("union", kernels.union, xf.union),
        ("intersect", kernels.intersect, xf.intersect),
        ("concat", kernels.concat, xf.concat),
        ("except", kernels.except_, xf.except_),
    ]

    @pytest.mark.parametrize("name,kernel,eager", CASES, ids=[c[0] for c in CASES])
    def test_matches_eager_on_overlapping_supports(self, name, kernel, eager, edges):
        other = WeightedDataset({(1, 2): 0.5, (9, 9): 2.0, (3, 4): -1.0})
        assert_agrees(kernel(encode(edges), encode(other)), eager(edges, other))

    @pytest.mark.parametrize("name,kernel,eager", CASES, ids=[c[0] for c in CASES])
    def test_matches_eager_on_mixed_layouts(self, name, kernel, eager, edges):
        # One side opaque (scalar records) forces the whole-record alignment.
        other = WeightedDataset({(1, 2): 0.5, "scalar": 1.0})
        assert_agrees(kernel(encode(edges), encode(other)), eager(edges, other))

    @pytest.mark.parametrize("name,kernel,eager", CASES, ids=[c[0] for c in CASES])
    def test_cross_type_equal_records_match(self, name, kernel, eager, edges):
        # Dict semantics: (1, 'x') == (1.0, 'x') is one logical record, so
        # the code-based merge must match them exactly as eager does.
        left = WeightedDataset({(1, "x"): 1.0, (2, "y"): 2.0})
        right = WeightedDataset({(1.0, "x"): 0.5, (2.0, "z"): 3.0})
        assert_agrees(kernel(encode(left), encode(right)), eager(left, right))

    @pytest.mark.parametrize("name,kernel,eager", CASES, ids=[c[0] for c in CASES])
    def test_one_side_empty(self, name, kernel, eager, edges):
        empty_w = WeightedDataset.empty()
        assert_agrees(
            kernel(encode(edges), ColumnarDataset.empty()), eager(edges, empty_w)
        )
        assert_agrees(
            kernel(ColumnarDataset.empty(), encode(edges)), eager(empty_w, edges)
        )


# ----------------------------------------------------------------------
# Specs as plain callables (what the eager and dataflow backends run)
# ----------------------------------------------------------------------
class TestSpecCalls:
    def test_permute_returns_tuples_of_any_width(self):
        record = ["a", "b", "c"]
        assert Permute(1)(record) == ("b",)
        assert Permute(2, 0)(record) == ("c", "a")
        assert Permute(1, 1, -1)(record) == ("b", "b", "c")

    @pytest.mark.parametrize(
        "picks",
        [
            [("l", 0)],
            [("r", 1)],
            [("l", 0), ("r", 1)],
            [("l", 0), ("l", 1), ("l", 2), ("r", 1)],
            [("r", 0), ("r", 1), ("l", 1)],
            [("r", 2), ("l", 0), ("r", 0), ("l", 2), ("l", 0)],
        ],
    )
    def test_join_fields_picks_in_order(self, picks):
        left, right = ("a", "b", "c"), ["x", "y", "z"]
        expected = tuple((left if side == "l" else right)[i] for side, i in picks)
        assert JoinFields(*picks)(left, right) == expected

    def test_value_semantics_survive_the_compiled_getters(self):
        import copy
        import pickle

        rotate = Permute(1, 2, 0)
        corners = JoinFields(("r", 3), ("l", 3), ("l", 4))
        for spec in (rotate, corners):
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec and hash(clone) == hash(spec)
            assert copy.deepcopy(spec) == spec
            assert pickle.dumps(clone) == pickle.dumps(spec)  # plan fingerprints
        assert pickle.loads(pickle.dumps(rotate))((0, 1, 2)) == (1, 2, 0)
        assert pickle.loads(pickle.dumps(corners))((0, 1, 2, 3, 4), (5, 6, 7, 8)) == (8, 3, 4)
        assert repr(rotate) == "Permute(indices=(1, 2, 0))"
        assert repr(JoinFields(("l", 0))) == "JoinFields(picks=(('l', 0),))"
        assert Permute(1, 0) != Permute(0, 1)
