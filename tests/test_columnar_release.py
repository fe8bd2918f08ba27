"""A columnar result stays in columns until it is released.

``ColumnarDataset.to_weighted`` returns a ``WeightedDataset`` whose record
dict is built on first read, and ``ExactAnswer`` orders and weighs a release
from the code columns.  Both must be *exactly* what they replaced — the dict
``_from_unique`` builds of the decoded rows, and the stable sort of its items
by canonical token — so every test compares against those two, kept here as
the reference: (a) the release order over atoms that stress the token rule,
(b) the dataset's whole interface, (c) the ``measure`` path (which must never
build the dict), (d) the per-interner token memo, and the two hazards that
come with deferring a decode: the interner in force at creation, and codes
crossing a process boundary.
"""

from __future__ import annotations

import copy
import decimal
import fractions
import os
import pickle
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import analyses
from repro.analyses import protect_graph
from repro.columnar import ColumnarDataset, Field, Permute
from repro.columnar.dataset import ColumnBackedDataset
from repro.columnar.executor import VectorizedExecutor
from repro.columnar.interning import Interner, global_interner, use_interner
from repro.core.aggregation import ExactAnswer, _canonical_token
from repro.core.dataset import WeightedDataset
from repro.core.executor import create_executor
from repro.core.plan import DownScalePlan, SelectPlan, ShavePlan, SourcePlan
from repro.core.queryable import PrivacySession
from repro.graph.generators import social_graph
from repro.shard.executor import ShardedExecutor
from repro.shard.interner import ShardInterner


# ----------------------------------------------------------------------
# The replaced code, kept as the reference
# ----------------------------------------------------------------------
def eager_decode(columnar: ColumnarDataset) -> WeightedDataset:
    """``to_weighted`` as it was: the dict, built now (under the interner in
    force *now*, so call it where the columns were encoded)."""
    return WeightedDataset._from_unique(
        columnar.records(), columnar.weights.tolist(), columnar.tolerance
    )


def assert_same_answer(ours: ExactAnswer, reference: ExactAnswer) -> None:
    assert ours.records == reference.records
    # ``==`` unifies 1 / 1.0 / True: the representatives must be the same too.
    assert [repr(record) for record in ours.records] == [
        repr(record) for record in reference.records
    ]
    assert ours.weights.dtype == reference.weights.dtype
    assert ours.weights.tobytes() == reference.weights.tobytes()


@pytest.fixture()
def materialisations(monkeypatch):
    """Every build of a column-backed dataset's dict, as the slot that asked."""
    seen: list[str] = []
    build = ColumnBackedDataset.__getattr__

    def spy(self, name):
        if name in ("_weights", "_norm"):
            seen.append(name)
        return build(self, name)

    monkeypatch.setattr(ColumnBackedDataset, "__getattr__", spy)
    return seen


# ----------------------------------------------------------------------
# (a) the release order, from columns
# ----------------------------------------------------------------------
Point = namedtuple("Point", "x y")


class Handle:
    """Inherits ``object.__repr__``: its token is empty, so rows differing
    only in a handle tie and must keep row order."""


HANDLES = [Handle() for _ in range(4)]

#: Atoms that stress the token rule: ``==``-equal numbers of four types, signed
#: zero, integers beyond 2⁵³, exponent reprs, exact rationals, strings holding
#: the separators, tokens that are prefixes of one another, nested tuples.
ATOMS = [
    1, 1.0, True, np.int64(1), 0, -0.0, False, 12, 1.5, 120, -1, -12,
    2**53, 2**53 + 1, 2**70, -(2**70), 1e22, 1.5e-07, 1e300, float("inf"),
    fractions.Fraction(1, 3), fractions.Fraction(1, 2), fractions.Fraction(3, 1),
    decimal.Decimal("0.10"), decimal.Decimal("0.1"), decimal.Decimal("12"),
    "a", "a,b", "a)", "a,b)", "it's", 'say "hi"', "", "1", "1,2", "(1,2)", "'a'",
    (1, 2), (1, (2, 3)), ((1, 2), 3), (1,), (), Point(1, 2.0), Point("a", "a,b"),
    None, b"x", frozenset({1}),
    *HANDLES,
]  # fmt: skip

WEIGHTS = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False).filter(
    lambda weight: abs(weight) > 1e-6
)


@st.composite
def decomposed_rows(draw):
    width = draw(st.integers(1, 4))
    records = draw(
        st.lists(st.tuples(*[st.sampled_from(ATOMS)] * width), max_size=40)
    )
    return records, draw(st.lists(WEIGHTS, min_size=len(records), max_size=len(records)))


@st.composite
def opaque_rows(draw):
    whole = ATOMS + [(atom, other) for atom in ATOMS[:12] for other in ATOMS[26:34]]
    records = draw(st.lists(st.sampled_from(whole), max_size=40))
    return records, draw(st.lists(WEIGHTS, min_size=len(records), max_size=len(records)))


def release_both_ways(columnar: ColumnarDataset) -> None:
    assert_same_answer(ExactAnswer(columnar.to_weighted()), ExactAnswer(eager_decode(columnar)))


@settings(deadline=None, max_examples=300)
@given(decomposed_rows())
def test_decomposed_release_order_is_the_dict_order(rows):
    records, weights = rows
    with use_interner(Interner()):
        columnar = ColumnarDataset.from_pairs(records, weights)
        assert columnar.decomposed or not records
        release_both_ways(columnar)
        release_both_ways(columnar.as_opaque())


@settings(deadline=None, max_examples=300)
@given(opaque_rows())
def test_opaque_release_order_is_the_dict_order(rows):
    records, weights = rows
    with use_interner(Interner()):
        release_both_ways(ColumnarDataset.from_pairs(records, weights))


def test_token_ties_keep_row_order():
    """Four rows whose keys are all ``(,1)``: the release is in row order,
    which is code order — the order the handles were first seen in."""
    with use_interner(Interner()):
        shuffled = [HANDLES[2], HANDLES[0], HANDLES[3], HANDLES[1]]
        columnar = ColumnarDataset.from_pairs(
            [(handle, 1) for handle in shuffled], [1.0, 2.0, 3.0, 4.0]
        )
        answer = ExactAnswer(columnar.to_weighted())
        assert [record[0] for record in answer.records] == shuffled
        assert answer.weights.tolist() == [1.0, 2.0, 3.0, 4.0]
        release_both_ways(columnar)


def test_prefix_tokens_sort_as_joined_strings():
    """``1`` is a prefix of ``12`` and of ``1.5``, ``'a'`` of ``'a,b'``: the
    joined keys compare a separator against the longer token's next character,
    so the order is that of the whole strings, not of per-field ranks."""
    with use_interner(Interner()):
        records = [(1, 2), (12, 0), (1.5, 9), (1, 12), ("a", "b"), ("a,b", "")]
        columnar = ColumnarDataset.from_pairs(records, [1.0] * len(records))
        answer = ExactAnswer(columnar.to_weighted())
        assert list(answer.records) == sorted(records, key=_canonical_token)
        release_both_ways(columnar)


# ----------------------------------------------------------------------
# (b) the dataset behind the boundary is the dataset it was
# ----------------------------------------------------------------------
@pytest.fixture()
def pair():
    """``(deferred, eager)`` over 400 weighted rows, encoded against a fresh
    interner that is no longer installed when the test reads them."""
    rng = np.random.default_rng(11)
    records = [(int(a), str(b), float(c)) for a, b, c in rng.integers(0, 9, size=(400, 3))]
    with use_interner(Interner()):
        columnar = ColumnarDataset.from_pairs(records, rng.normal(size=400))
        return columnar.to_weighted(), eager_decode(columnar)


def test_len_tolerance_and_emptiness_answer_from_the_arrays(pair, materialisations):
    deferred, eager = pair
    assert type(deferred) is ColumnBackedDataset and isinstance(deferred, WeightedDataset)
    assert len(deferred) == len(eager) > 0
    assert deferred.tolerance == eager.tolerance
    assert deferred.is_empty() is False
    assert repr(deferred) == f"<ColumnBackedDataset rows={len(eager)}>"
    assert ExactAnswer(deferred).records == ExactAnswer(eager).records
    assert materialisations == []
    with use_interner(Interner()):
        empty = ColumnarDataset.empty(arity=2).to_weighted()
    assert len(empty) == 0 and empty.is_empty() and materialisations == []
    assert empty.to_dict() == {} and empty.total_weight() == 0


def test_first_read_builds_the_dict_once(pair, materialisations):
    deferred, eager = pair
    assert deferred.total_weight().hex() == eager.total_weight().hex()
    assert materialisations == ["_norm"]
    assert list(deferred.to_dict().items()) == list(eager.to_dict().items())
    assert list(deferred.items()) == list(eager.items())
    assert list(deferred.records()) == list(eager.records()) == list(deferred)
    assert materialisations == ["_norm"]
    assert repr(deferred) == repr(eager)


def test_every_reader_sees_the_eager_dataset(pair):
    deferred, eager = pair
    record = next(iter(eager))
    assert deferred == eager and eager == deferred and not deferred != eager
    assert deferred[record] == eager[record] and record in deferred
    assert deferred.weight("absent") == 0.0
    assert deferred.distance(eager) == 0.0 == eager.distance(deferred)
    assert deferred.norm() == eager.norm()
    for ours, theirs in (
        (deferred + eager, eager + eager),
        (eager + deferred, eager + eager),
        (deferred - eager, eager - eager),
        (deferred.scale(0.5), eager.scale(0.5)),
        (-deferred, -eager),
        (2 * deferred, 2 * eager),
        (deferred.restrict(lambda r: r[0] < 4), eager.restrict(lambda r: r[0] < 4)),
    ):
        assert type(ours) is WeightedDataset
        assert list(ours.items()) == list(theirs.items())
    assert deferred.top(5) == eager.top(5)
    ours, theirs = deferred.partition_by(lambda r: r[0]), eager.partition_by(lambda r: r[0])
    assert list(ours) == list(theirs)
    for key in theirs:
        assert list(ours[key].items()) == list(theirs[key].items())
        assert ours[key].total_weight().hex() == theirs[key].total_weight().hex()
    with pytest.raises(TypeError):
        hash(deferred)


def test_a_column_backed_source_encodes_like_the_eager_one(pair):
    deferred, eager = pair
    plan = SelectPlan(SourcePlan("rows"), Permute(2, 0))
    for name in ("eager", "vectorized"):
        ours = create_executor(name, {"rows": deferred}).evaluate(plan)
        theirs = create_executor(name, {"rows": eager}).evaluate(plan)
        assert list(ours.to_dict().items()) == list(theirs.to_dict().items())


def test_non_finite_weights_still_raise_at_to_weighted():
    with use_interner(Interner()):
        columnar = ColumnarDataset.from_pairs([(1, 2), (3, 4)], [1.0, 2.0])
        columnar.weights[1] = float("inf")
        with pytest.raises(ValueError, match="finite"):
            columnar.to_weighted()


# ----------------------------------------------------------------------
# Deferral's two hazards: the interner at creation, the process boundary
# ----------------------------------------------------------------------
def test_decode_and_release_use_the_interner_captured_at_creation():
    """Codes of a fresh interner, first read after its block: the process
    interner knows none of them (or worse, knows other atoms by them)."""
    records = [(f"fresh-{index}", index % 7) for index in range(60)]
    with use_interner(Interner()) as fresh:
        columnar = ColumnarDataset.from_pairs(records, np.arange(1.0, 61.0))
        reference = eager_decode(columnar)
        released, read = columnar.to_weighted(), columnar.to_weighted()
    assert global_interner() is not fresh
    assert_same_answer(ExactAnswer(released), ExactAnswer(reference))
    assert list(read.to_dict().items()) == list(reference.to_dict().items())
    assert fresh.stats()["tokens"] > 0


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda dataset: pickle.loads(pickle.dumps(dataset))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_no_code_crosses_a_copy_or_a_pickle(pair, clone):
    deferred, eager = pair
    cloned = clone(deferred)
    assert type(cloned) is WeightedDataset
    assert list(cloned.items()) == list(eager.items())
    assert cloned.total_weight().hex() == eager.total_weight().hex()
    assert cloned.tolerance == eager.tolerance
    payload = pickle.dumps(deferred)
    assert b"ColumnBackedDataset" not in payload and b"Interner" not in payload


def test_pool_mode_results_are_column_backed_too(materialisations):
    """Under a real start method (``REPRO_SHARD_START_METHOD`` in CI, ``fork``
    here) the merged shard outputs reach the caller undecoded, reconciled to
    the coordinator's interner, and release as the vectorized ones do."""
    rng = np.random.default_rng(3)
    edges = {(int(a), int(b)) for a, b in rng.integers(0, 300, size=(3000, 2)) if a != b}
    environment = {"edges": WeightedDataset.from_records(sorted(edges))}
    source = SourcePlan("edges")
    plans = [
        source,
        SelectPlan(source, Permute(1, 0)),
        SelectPlan(source, Field(0)),
        DownScalePlan(source, 0.5),
        SelectPlan(ShavePlan(source, 1.0), Field(1)),
    ]
    expected = [copy.copy(result) for result in VectorizedExecutor(environment).evaluate_many(plans)]
    materialisations.clear()
    start_method = os.environ.get("REPRO_SHARD_START_METHOD", "fork")
    with ShardedExecutor(environment, shards=2, min_rows=0, start_method=start_method) as executor:
        assert all(executor.backend_for(plan) == "sharded" for plan in plans)
        results = executor.evaluate_many(plans)
    assert [type(result) for result in results] == [ColumnBackedDataset] * 5
    for ours, theirs in zip(results, expected):
        assert_same_answer(ExactAnswer(ours), ExactAnswer(theirs))
    assert materialisations == []
    for ours, theirs in zip(results, expected):
        assert ours.to_dict() == theirs.to_dict()


# ----------------------------------------------------------------------
# (c) the measure path never builds the dict
# ----------------------------------------------------------------------
class DictBacked:
    """An executor whose results are plain dict-backed datasets — what every
    columnar executor returned before, releasing through the base order."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def evaluate(self, plan):
        return self.evaluate_many([plan])[0]

    def evaluate_many(self, plans):
        results = [copy.copy(result) for result in self.inner.evaluate_many(plans)]
        assert all(type(result) is WeightedDataset for result in results)
        return results

    def reset(self) -> None:
        self.inner.reset()


def sharded_inline(environment):
    return ShardedExecutor(environment, shards=2, pool=None, min_rows=0)


def analyst_batches(executor, hold: bool) -> list[list[list[tuple]]]:
    """Two batches of the five ``analyst_batch`` queries (the second reuses
    the held answers when ``hold``), released values as ``float.hex``."""
    with use_interner(Interner()):
        session = PrivacySession(seed=7, executor=executor)
        protected = protect_graph(session, social_graph(400, 4, rng=5), total_epsilon=float("inf"))
        assert len(session._datasets["edges"]) >= 2048  # "auto" routes to the kernels
        queries = [
            analyses.degree_ccdf_query(protected),
            analyses.wedges_query(protected),
            analyses.triangles_by_intersect_query(protected),
            analyses.joint_degree_query(protected),
            analyses.triangles_by_degree_query(protected),
        ]
        if hold:
            for query in queries:
                session.hold(query)
        batches = [session.measure(*[(query, 0.1) for query in queries]) for _ in range(2)]
        if hold:
            assert session.exact_stats() == {"held": 5, "computed": 5, "reused": 5}
    return [
        [[(record, value.hex()) for record, value in result.items()] for result in batch]
        for batch in batches
    ]


@pytest.mark.parametrize("hold", [False, True], ids=["unheld", "held"])
@pytest.mark.parametrize(
    "executor, dict_backed",
    [
        ("vectorized", lambda env: DictBacked(create_executor("vectorized", env))),
        ("auto", lambda env: DictBacked(create_executor("auto", env))),
        (sharded_inline, lambda env: DictBacked(sharded_inline(env))),
    ],
    ids=["vectorized", "auto", "sharded-inline"],
)
def test_measure_builds_no_dict_and_releases_the_same_bits(
    executor, dict_backed, hold, materialisations
):
    released = analyst_batches(executor, hold)
    assert materialisations == []
    reference = analyst_batches(dict_backed, hold)
    # The spy works: five plans, evaluated per batch unless held.
    assert len(materialisations) == (5 if hold else 10)
    assert released[0] != released[1]  # fresh noise either way
    assert released == reference
    assert sum(len(result) for result in released[0]) > 500


# ----------------------------------------------------------------------
# (d) the token memo
# ----------------------------------------------------------------------
def test_token_memo_is_lazy_exact_and_per_interner():
    first, second = Interner(), Interner()
    atoms = [atom for atom in ATOMS if atom not in HANDLES]
    with use_interner(first):
        columnar = ColumnarDataset.from_pairs([(atom, 0) for atom in atoms], [1.0] * len(atoms))
        assert first.stats()["tokens"] == 0  # encoding renders nothing
        dataset = columnar.to_weighted()
        assert first.stats()["tokens"] == 0  # nor does crossing the boundary
        ExactAnswer(dataset)
    held = first.stats()["tokens"]
    assert 0 < held == len(first) <= first.stats()["atoms"]
    for code in range(len(first)):
        assert first._tokens[code] == _canonical_token(first.atom(code))
    ExactAnswer(dataset)
    assert first.stats()["tokens"] == held  # a second release renders nothing new
    # Another interner hands the same codes to other atoms: nothing is shared.
    with use_interner(second):
        other = ColumnarDataset.from_pairs([("x", "y"), ("y", "z")], [1.0, 1.0]).to_weighted()
        assert ExactAnswer(other).records == (("x", "y"), ("y", "z"))
    assert second.stats()["tokens"] == 3 and first.stats()["tokens"] == held
    assert second._tokens[0] == "'x'" != first._tokens[0]
    assert "tokens" in global_interner().stats()


def test_tokens_of_part_of_the_table_fill_only_that_part():
    interner = Interner()
    codes = interner.codes(["a", "b", "c", "d"])
    assert interner.tokens(codes[[3, 1, 3]]) == ["'d'", "'b'", "'d'"]
    assert sorted(interner._tokens) == [1, 3]
    assert interner.tokens(codes) == ["'a'", "'b'", "'c'", "'d'"]


def test_a_shard_interner_memoises_nothing():
    """``take_extensions`` hands extension codes out again, so a token kept
    by code would go stale; a release under a shard interner renders afresh."""
    base = Interner()
    base.codes(["frozen"])
    shard = ShardInterner(0, borrow=base)
    with use_interner(shard):
        first = ColumnarDataset.from_pairs([("frozen", "b")], [1.0]).to_weighted()
        assert ExactAnswer(first).records == (("frozen", "b"),)
        assert shard.take_extensions() == ["b"]
        second = ColumnarDataset.from_pairs([("frozen", "a")], [1.0])
        assert second.columns[1].tolist() == first._columnar.columns[1].tolist()
        assert shard.tokens(second.columns[1]) == ["'a'"]
    assert shard.stats()["tokens"] == 0 == base.stats()["tokens"]
