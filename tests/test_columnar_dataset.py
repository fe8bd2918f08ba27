"""Tests for the columnar dataset representation and the interner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnar import ColumnarDataset, Interner, global_interner
from repro.core import WeightedDataset


class TestInterner:
    def test_codes_are_stable_and_injective(self):
        interner = Interner()
        a = interner.code("a")
        b = interner.code((1, 2))
        assert interner.code("a") == a
        assert a != b
        assert interner.atom(a) == "a"
        assert interner.atom(b) == (1, 2)

    def test_bulk_roundtrip(self):
        interner = Interner()
        atoms = ["x", 3, (1, "y"), 3, "x"]
        codes = interner.codes(atoms)
        assert codes.dtype == np.int64
        assert interner.atoms(codes) == atoms
        assert codes[0] == codes[4] and codes[1] == codes[3]

    def test_global_interner_is_shared(self):
        assert global_interner() is global_interner()

    def test_equal_atoms_unify_like_dict_keys(self):
        # WeightedDataset is dict-keyed, so 1 == 1.0 == True are one record;
        # the encoding must unify them (first representative wins) or the
        # kernels would fail to match records the eager backend matches.
        interner = Interner()
        codes = {interner.code(atom) for atom in (True, 1, 1.0)}
        assert len(codes) == 1
        assert interner.atom(interner.code(1.0)) is True
        nested = {interner.code(atom) for atom in ((1.0, 3), (True, 3), (1, 3))}
        assert len(nested) == 1

    def test_mixed_numeric_records_roundtrip_as_equal_datasets(self):
        # (41.0, 3) and (41, 3) are one dict entry; the decoded dataset must
        # be ==-equal to the original even if the representative differs.
        data = WeightedDataset([((41.0, 3), 2.0), ((41, 3), 4.0), ((42, 2), 1.0)])
        assert len(data) == 2  # dict semantics already unified (41.0,3)/(41,3)
        columnar = ColumnarDataset.from_weighted(data)
        decoded = columnar.to_weighted()
        assert decoded.distance(data) == 0.0
        assert decoded[(41, 3)] == pytest.approx(6.0)


class TestColumnarDataset:
    def test_tuple_records_decompose(self):
        data = WeightedDataset({(1, 2): 1.0, (2, 3): 2.0})
        columnar = ColumnarDataset.from_weighted(data)
        assert columnar.decomposed and columnar.arity == 2
        assert len(columnar.columns) == 2
        assert columnar.to_weighted().distance(data) == 0.0

    def test_scalar_records_are_opaque(self):
        data = WeightedDataset({"a": 1.0, 7: 2.0})
        columnar = ColumnarDataset.from_weighted(data)
        assert not columnar.decomposed and columnar.arity is None
        assert columnar.to_weighted().distance(data) == 0.0

    def test_mixed_arity_records_are_opaque(self):
        data = WeightedDataset({(1, 2): 1.0, (1, 2, 3): 2.0, "x": 0.5})
        columnar = ColumnarDataset.from_weighted(data)
        assert columnar.arity is None
        assert columnar.to_weighted().distance(data) == 0.0

    def test_nested_tuples_roundtrip(self):
        data = WeightedDataset({((1, 2, 3), 4): 1.5, ((2, 3, 1), 9): 0.25})
        columnar = ColumnarDataset.from_weighted(data)
        assert columnar.arity == 2
        assert columnar.to_weighted().distance(data) == 0.0

    def test_from_pairs_accumulates_collisions(self):
        columnar = ColumnarDataset.from_pairs([(1, 2), (1, 2), (2, 3)], [1.0, 2.5, 1.0])
        assert len(columnar) == 2
        assert columnar.to_weighted()[(1, 2)] == pytest.approx(3.5)

    def test_tolerance_dust_is_dropped(self):
        columnar = ColumnarDataset.from_pairs(["a", "b"], [1.0, 1e-15])
        assert len(columnar) == 1
        assert columnar.to_weighted()["b"] == 0.0

    def test_cancellation_drops_record(self):
        columnar = ColumnarDataset.from_pairs(["a", "a", "b"], [1.0, -1.0, 2.0])
        assert len(columnar) == 1

    def test_record_codes_consistent_across_layouts(self):
        data = WeightedDataset({(1, 2): 1.0, (2, 3): 2.0})
        decomposed = ColumnarDataset.from_weighted(data)
        opaque = decomposed.as_opaque()
        assert opaque.arity is None
        assert sorted(decomposed.record_codes().tolist()) == sorted(
            opaque.record_codes().tolist()
        )
        assert opaque.to_weighted().distance(data) == 0.0

    def test_total_weight_matches_norm(self):
        data = WeightedDataset({(1, 2): 1.5, (3, 4): -2.0})
        columnar = ColumnarDataset.from_weighted(data)
        assert columnar.total_weight() == pytest.approx(data.total_weight())

    def test_empty_dataset(self):
        empty = ColumnarDataset.empty()
        assert empty.is_empty() and len(empty) == 0
        assert empty.to_weighted().is_empty()
        shaped = ColumnarDataset.empty(arity=3)
        assert shaped.arity == 3 and len(shaped.columns) == 3

    def test_namedtuples_survive_roundtrip(self):
        import collections

        Edge = collections.namedtuple("Edge", "src dst")
        data = WeightedDataset({Edge(1, 2): 1.0})
        columnar = ColumnarDataset.from_weighted(data)
        # A tuple subclass must not be decomposed (rebuilding would lose the
        # type), so it round-trips through the opaque layout.
        assert columnar.arity is None
        assert list(columnar.to_weighted().records()) == [Edge(1, 2)]

    def test_misaligned_pairs_rejected(self):
        with pytest.raises(ValueError):
            ColumnarDataset.from_pairs(["a"], [1.0, 2.0])

    def test_weights_for_vectorized_lookup(self):
        data = WeightedDataset({(1, 2): 1.5, (2, 3): -0.5, (3, 4): 2.0})
        columnar = ColumnarDataset.from_weighted(data)
        probes = [(2, 3), (9, 9), (1, 2), "not-a-tuple", (1, 2, 3)]
        looked_up = columnar.weights_for(probes)
        assert looked_up.tolist() == pytest.approx([-0.5, 0.0, 1.5, 0.0, 0.0])
        # Cross-type-equal probes match, exactly like dict lookups —
        # including tuple subclasses, which ==-equal plain-tuple rows.
        assert columnar.weights_for([(1.0, 2)]).tolist() == pytest.approx([1.5])
        import collections

        Edge = collections.namedtuple("Edge", "src dst")
        assert columnar.weights_for([Edge(1, 2)]).tolist() == pytest.approx([1.5])
        # Opaque layout and empty datasets behave too.
        opaque = ColumnarDataset.from_weighted(WeightedDataset({"a": 2.0}))
        assert opaque.weights_for(["a", "b"]).tolist() == pytest.approx([2.0, 0.0])
        assert ColumnarDataset.empty().weights_for(["a"]).tolist() == [0.0]

    def test_to_weighted_adopts_rows_exactly_as_the_validating_constructor(self):
        """Same insertion order, same norm, same values as ``WeightedDataset(...)``."""
        records = [(i % 7, i) for i in range(200)]
        weights = [0.1 * (i % 13) - 0.3 for i in range(200)]  # some zeros, some < 0
        columnar = ColumnarDataset.from_pairs(records, weights)
        adopted = columnar.to_weighted()
        validated = WeightedDataset(
            zip(columnar.records(), columnar.weights.tolist()), tolerance=columnar.tolerance
        )
        assert list(adopted.items()) == list(validated.items())
        assert adopted.total_weight() == validated.total_weight()
        assert adopted.tolerance == validated.tolerance

    def test_to_weighted_still_rejects_non_finite_weights(self):
        import numpy as np

        broken = ColumnarDataset(
            (np.array([0, 1]),), np.array([1.0, np.inf]), None, assume_unique=True
        )
        with pytest.raises(ValueError, match="finite"):
            broken.to_weighted()


class TestInternerBulkCodes:
    """``Interner.codes`` against interning the same atoms one at a time."""

    @staticmethod
    def both(known):
        """Two interners that already know ``known``."""
        bulk, single = Interner(), Interner()
        for interner in (bulk, single):
            for atom in known:
                interner.code(atom)
        return bulk, single

    @staticmethod
    def assert_same_state(bulk, single):
        assert len(bulk) == len(single)
        ours, theirs = bulk.atoms(range(len(bulk))), single.atoms(range(len(single)))
        assert ours == theirs
        assert [type(atom) for atom in ours] == [type(atom) for atom in theirs]

    @pytest.mark.parametrize(
        "known, atoms",
        [
            ((), ["a", "b", "a", "c", "b", "a"]),  # repeats, all new
            (("b", "x"), ["a", "b", "c", "x", "d", "b"]),  # new between known
            (("a", "b"), ["b", "a", "a", "b"]),  # all known: the one-pass path
            ((), [1, 1.0, True, 2, 2.0]),  # ==-equal atoms share the first's code
            ((1.0,), [True, 1, 0, False]),
            ((), [None, "a", None]),  # None is an atom, not "missing"
            ((None,), [None, None]),
            ((), []),
            ((), [(1, 2), (1.0, 2), ((3,), "x")]),
        ],
    )
    def test_codes_and_state_match_per_atom_interning(self, known, atoms):
        bulk, single = self.both(known)
        codes = bulk.codes(iter(atoms))
        assert codes.dtype == np.int64 and codes.shape == (len(atoms),)
        assert codes.tolist() == [single.code(atom) for atom in atoms]
        self.assert_same_state(bulk, single)

    @pytest.mark.parametrize("known", [(), ("a", "b")])
    def test_unhashable_atom_raises_where_it_stands(self, known):
        bulk, single = self.both(known)
        atoms = ["a", "new", "b", ["unhashable"], "later"]
        with pytest.raises(TypeError):
            bulk.codes(atoms)
        with pytest.raises(TypeError):
            for atom in atoms:
                single.code(atom)
        # The atoms before it keep the codes they were given; "later" got none.
        self.assert_same_state(bulk, single)
        assert bulk.atoms(range(len(bulk)))[-1] == ("b" if not known else "new")
