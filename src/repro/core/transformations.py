"""Eager implementations of wPINQ's stable transformations.

Every function in this module maps one or two :class:`WeightedDataset` values
to a new :class:`WeightedDataset` and is *stable* in the sense of Definition 2
of the paper:

* unary  ``T``:  ``‖T(A) − T(A')‖ ≤ ‖A − A'‖``
* binary ``T``:  ``‖T(A, B) − T(A', B')‖ ≤ ‖A − A'‖ + ‖B − B'‖``

Stability is what lets a single differentially private aggregation at the end
of a pipeline certify the whole pipeline (Theorem 1), so these semantics are
the heart of the platform.  The property-based tests in
``tests/test_stability_properties.py`` check stability on randomly generated
datasets for every operator defined here.

These eager versions are used when a measurement is taken against the real
protected dataset, and serve as the ground truth the incremental dataflow
operators (:mod:`repro.dataflow.operators`) are tested against.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any, Callable

from .dataset import WeightedDataset

__all__ = [
    "select",
    "where",
    "select_many",
    "group_by",
    "shave",
    "join",
    "union",
    "intersect",
    "concat",
    "except_",
    "distinct",
    "down_scale",
    "normalize_weighted_output",
    "group_prefixes",
]


# ----------------------------------------------------------------------
# Per-record transformations
# ----------------------------------------------------------------------
def select(dataset: WeightedDataset, mapper: Callable[[Any], Any]) -> WeightedDataset:
    """Apply ``mapper`` to every record, accumulating weights of collisions.

    ``Select(A, f)(x) = Σ_{y : f(y) = x} A(y)``.  Stability is immediate:
    moving weight between records cannot increase total absolute change.
    """
    output: dict[Any, float] = {}
    for record, weight in dataset.items():
        mapped = mapper(record)
        output[mapped] = output.get(mapped, 0.0) + weight
    return WeightedDataset(output, tolerance=dataset.tolerance)


def where(dataset: WeightedDataset, predicate: Callable[[Any], bool]) -> WeightedDataset:
    """Keep only records satisfying ``predicate``.

    ``Where(A, p)(x) = p(x) · A(x)``.
    """
    return WeightedDataset(
        {record: weight for record, weight in dataset.items() if predicate(record)},
        tolerance=dataset.tolerance,
    )


def distinct(dataset: WeightedDataset, cap: float = 1.0) -> WeightedDataset:
    """Cap every record's weight at ``cap`` (PINQ's ``Distinct``).

    ``Distinct(A, c)(x) = min(A(x), c)``.  The per-record map ``w ↦ min(w, c)``
    is 1-Lipschitz, so the transformation is stable.  With the default
    ``cap=1.0`` this recovers the multiset "distinct" semantics: any record
    that appears with weight at least one is reported exactly once.  The cap
    must be positive (a non-positive cap would simply erase the dataset while
    still charging privacy budget for measurements of an all-zero output).
    """
    cap = float(cap)
    if cap <= 0:
        raise ValueError("Distinct cap must be positive")
    return WeightedDataset(
        {record: min(weight, cap) for record, weight in dataset.items()},
        tolerance=dataset.tolerance,
    )


def down_scale(dataset: WeightedDataset, factor: float) -> WeightedDataset:
    """Uniformly scale every weight by ``factor`` with ``0 < factor ≤ 1``.

    ``DownScale(A, s)(x) = s · A(x)``.  Scaling all records *down* by the same
    constant is stable (``|s·w − s·w'| = s·|w − w'| ≤ |w − w'|``) and is
    exactly the uniform rescaling the paper contrasts with wPINQ's
    data-dependent rescaling (Section 1.1, and the Fuzz/Reed–Pierce ``!``
    operator in Section 6): it is equivalent to scaling the noise *up* by
    ``1/s``.  It is provided so that analyses can trade accuracy between
    sub-queries explicitly and so the benchmarks can compare uniform against
    data-dependent scaling.
    """
    factor = float(factor)
    if not 0.0 < factor <= 1.0:
        raise ValueError("DownScale factor must satisfy 0 < factor <= 1")
    return dataset.scale(factor)


def normalize_weighted_output(produced: Any) -> list[tuple[Any, float]]:
    """Normalise the output of a ``SelectMany`` mapper to weighted pairs.

    The mapper may return a :class:`WeightedDataset`, a mapping
    ``record -> weight``, an iterable of ``(record, weight)`` pairs, or a
    plain iterable of records (interpreted as unit weights).  The ambiguity
    between "iterable of pairs" and "iterable of records that happen to be
    2-tuples" is resolved in favour of plain records unless the second element
    is a real number, which matches how the examples in the paper are written
    (lists of plain records).
    """
    if isinstance(produced, WeightedDataset):
        return list(produced.items())
    if isinstance(produced, Mapping):
        return [(record, float(weight)) for record, weight in produced.items()]
    items = list(produced)
    weighted: list[tuple[Any, float]] = []
    for item in items:
        if (
            isinstance(item, tuple)
            and len(item) == 2
            and isinstance(item[1], (int, float))
            and not isinstance(item[1], bool)
        ):
            weighted.append((item[0], float(item[1])))
        else:
            weighted.append((item, 1.0))
    return weighted


def select_many(
    dataset: WeightedDataset, mapper: Callable[[Any], Any]
) -> WeightedDataset:
    """One-to-many mapping with data-dependent down-scaling (Section 2.4).

    Each input record ``x`` produces the weighted collection ``f(x)``, scaled
    so that it carries at most unit weight, then multiplied by ``A(x)``::

        SelectMany(A, f) = Σ_x  A(x) · f(x) / max(1, ‖f(x)‖)

    The scaling depends only on what *this* record produces, not on any
    worst-case bound over all possible records — the central wPINQ idea of
    calibrating data (rather than noise) to sensitivity.
    """
    output: dict[Any, float] = {}
    for record, weight in dataset.items():
        produced = normalize_weighted_output(mapper(record))
        produced_norm = sum(abs(w) for _, w in produced)
        scale = weight / max(1.0, produced_norm)
        for out_record, out_weight in produced:
            output[out_record] = output.get(out_record, 0.0) + out_weight * scale
    return WeightedDataset(output, tolerance=dataset.tolerance)


# ----------------------------------------------------------------------
# GroupBy
# ----------------------------------------------------------------------
def group_prefixes(part: WeightedDataset) -> list[tuple[tuple[Any, ...], float]]:
    """Return the weighted prefixes GroupBy emits for one key's part.

    Records are ordered by non-increasing weight (ties broken by ``repr`` for
    determinism).  For each ``i`` the prefix ``{x_0, ..., x_i}`` is emitted
    with weight ``(A_k(x_i) − A_k(x_{i+1})) / 2`` where ``A_k(x_{|part|}) = 0``
    (Section 2.5).  When every record has the same weight ``w`` only the full
    group survives, with weight ``w / 2``.
    """
    ordered = sorted(part.items(), key=lambda item: (-item[1], repr(item[0])))
    prefixes: list[tuple[tuple[Any, ...], float]] = []
    for index, (_, weight) in enumerate(ordered):
        next_weight = ordered[index + 1][1] if index + 1 < len(ordered) else 0.0
        prefix_weight = (weight - next_weight) / 2.0
        if prefix_weight != 0.0:
            members = tuple(record for record, _ in ordered[: index + 1])
            prefixes.append((members, prefix_weight))
    return prefixes


def group_by(
    dataset: WeightedDataset,
    key: Callable[[Any], Any],
    reducer: Callable[[Sequence[Any]], Any] = tuple,
) -> WeightedDataset:
    """Group records by ``key`` and reduce each group (Section 2.5).

    The output records are ``(key, reducer(members))`` pairs.  With unit
    weight inputs every key contributes a single output record of weight 0.5,
    which is exactly how node degrees are computed in the paper::

        degrees = group_by(edges, key=lambda e: e[0], reducer=len)

    For general weights the prefix construction of :func:`group_prefixes`
    applies; its stability proof is Theorem 5 in the paper's appendix.
    """
    output: dict[Any, float] = {}
    for part_key, part in dataset.partition_by(key).items():
        for members, weight in group_prefixes(part):
            out_record = (part_key, reducer(list(members)))
            output[out_record] = output.get(out_record, 0.0) + weight
    return WeightedDataset(output, tolerance=dataset.tolerance)


# ----------------------------------------------------------------------
# Shave
# ----------------------------------------------------------------------
def _weight_sequence(spec: Any, record: Any) -> Callable[[int], float]:
    """Turn a Shave specification into an indexable weight sequence.

    ``spec`` may be a positive constant (every slice has that weight), a
    sequence of weights, or a callable ``record -> constant | sequence``.
    """
    value = spec(record) if callable(spec) else spec
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        constant = float(value)
        if constant <= 0:
            raise ValueError("Shave slice weight must be positive")
        return lambda index: constant
    weights = [float(w) for w in value]
    if any(w < 0 for w in weights):
        raise ValueError("Shave slice weights must be non-negative")

    def lookup(index: int) -> float:
        return weights[index] if index < len(weights) else 0.0

    return lookup


def shave(dataset: WeightedDataset, slice_weights: Any = 1.0) -> WeightedDataset:
    """Break heavy records into multiple indexed slices (Section 2.8).

    Each record ``x`` with weight ``A(x)`` becomes records ``(x, 0), (x, 1),
    ...`` whose weights follow the supplied slice sequence until ``A(x)`` is
    exhausted; the final slice may be partial::

        Shave(A, f)((x, i)) = max(0, min(f(x)_i, A(x) − Σ_{j<i} f(x)_j))

    ``Select`` with ``(x, i) -> x`` is the functional inverse.
    """
    output: dict[Any, float] = {}
    for record, weight in dataset.items():
        if weight <= 0:
            continue
        sequence = _weight_sequence(slice_weights, record)
        consumed = 0.0
        index = 0
        # A zero-weight slice would never make progress; the constant form is
        # validated above and the sequence form simply stops at its end.
        while consumed < weight - dataset.tolerance:
            slice_weight = sequence(index)
            if slice_weight <= 0.0:
                break
            emitted = min(slice_weight, weight - consumed)
            out_record = (record, index)
            output[out_record] = output.get(out_record, 0.0) + emitted
            consumed += emitted
            index += 1
    return WeightedDataset(output, tolerance=dataset.tolerance)


# ----------------------------------------------------------------------
# Join
# ----------------------------------------------------------------------
def join(
    left: WeightedDataset,
    right: WeightedDataset,
    left_key: Callable[[Any], Any],
    right_key: Callable[[Any], Any],
    result_selector: Callable[[Any, Any], Any] = lambda a, b: (a, b),
) -> WeightedDataset:
    """wPINQ's stable Join (Section 2.7, stability proved in Theorem 4).

    For each join key ``k`` let ``A_k`` and ``B_k`` be the records mapping to
    ``k``.  Every pair ``(a, b)`` with ``a ∈ A_k`` and ``b ∈ B_k`` is emitted
    through ``result_selector`` with weight::

        A_k(a) · B_k(b) / (‖A_k‖ + ‖B_k‖)

    Unlike the SQL equi-join, the total output weight per key is bounded, so
    the presence or absence of a single input record perturbs the output by at
    most its own weight — this is what makes graph queries (paths, triangles,
    motifs) expressible without worst-case noise.
    """
    left_parts = left.partition_by(left_key)
    right_parts = right.partition_by(right_key)
    output: dict[Any, float] = {}
    for key, left_part in left_parts.items():
        right_part = right_parts.get(key)
        if right_part is None:
            continue
        denominator = left_part.total_weight() + right_part.total_weight()
        if denominator <= 0:
            continue
        for left_record, left_weight in left_part.items():
            for right_record, right_weight in right_part.items():
                weight = left_weight * right_weight / denominator
                if weight == 0.0:
                    continue
                out_record = result_selector(left_record, right_record)
                output[out_record] = output.get(out_record, 0.0) + weight
    return WeightedDataset(output, tolerance=left.tolerance)


# ----------------------------------------------------------------------
# Set-like binary operators
# ----------------------------------------------------------------------
def _elementwise(
    left: WeightedDataset, right: WeightedDataset, pick: Callable[[float, float], float]
) -> WeightedDataset:
    """``pick`` of the two weights per record of either input.

    Output order is left's records in left's order, then right's unseen
    records in right's order — never ``set`` iteration order, which for
    records holding strings changes with ``PYTHONHASHSEED`` and would carry
    into the norm and every downstream float sum (hence into releases).
    Weights may be negative, so a one-sided record still meets ``pick``.
    """
    output = {
        record: pick(weight, right.weight(record)) for record, weight in left.items()
    }
    for record, weight in right.items():
        if record not in output:
            output[record] = pick(0.0, weight)
    return WeightedDataset(output, tolerance=left.tolerance)


def union(left: WeightedDataset, right: WeightedDataset) -> WeightedDataset:
    """Element-wise maximum of weights: ``Union(A, B)(x) = max(A(x), B(x))``."""
    return _elementwise(left, right, max)


def intersect(left: WeightedDataset, right: WeightedDataset) -> WeightedDataset:
    """Element-wise minimum of weights: ``Intersect(A, B)(x) = min(A(x), B(x))``."""
    return _elementwise(left, right, min)


def concat(left: WeightedDataset, right: WeightedDataset) -> WeightedDataset:
    """Element-wise addition: ``Concat(A, B)(x) = A(x) + B(x)``."""
    return left + right


def except_(left: WeightedDataset, right: WeightedDataset) -> WeightedDataset:
    """Element-wise subtraction: ``Except(A, B)(x) = A(x) − B(x)``."""
    return left - right
