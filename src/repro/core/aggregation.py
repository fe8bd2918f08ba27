"""Differentially private aggregations.

The workhorse is :class:`NoisyCountResult`, the object returned by
``Queryable.noisy_count(ε)``.  It realises the "noisy histogram" of
Section 2.2: every record of the (transformed) dataset is released with
independent ``Laplace(1/ε)`` noise added to its weight.  Two details matter:

* the noise scale is *not* a function of query sensitivity — the stable
  transformations already re-scaled record weights so unit-scale noise
  suffices;
* to remain private, a value must be available for *every* record in the
  (unbounded) domain, including records with zero weight.  The result object
  therefore materialises noisy values for the records that actually carry
  weight, and lazily draws — then memoises — fresh noise for any other record
  the analyst (or the MCMC scorer) asks about.

Noisy sums/averages and the exponential mechanism, which the paper notes
generalise directly to weighted datasets, are also provided.
"""

from __future__ import annotations

import decimal
import math
import numbers
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .dataset import WeightedDataset
from .laplace import LaplaceNoise, validate_epsilon

__all__ = [
    "ExactAnswer",
    "NoisyCountResult",
    "noisy_sum",
    "noisy_average",
    "noisy_median",
    "exponential_mechanism",
]


def _canonical_token(value: Any) -> str:
    """Content-stable token for the canonical noise-draw order.

    Three normalisations make the token a function of record *equality*
    rather than of any particular representative object or memory layout:

    * real numbers — ``bool``/``int``/``float`` and their NumPy kin, matched
      through the :mod:`numbers` ABCs because all of them dict-unify — render
      integral values as exact integer text (no precision loss for ints
      beyond 2⁵³) and everything else as the float repr, so the ``==``-equal
      ``1``/``1.0``/``True``/``np.int64(1)`` — a single dict entry whichever
      representative a backend happened to keep — always sort identically;
    * tuples (including subclasses such as namedtuples, which ``==``-equal
      plain tuples) recurse, so the rule reaches nested fields;
    * a value whose class inherits ``object.__repr__`` has an address-based
      repr that changes between runs, so it contributes no content — such
      records keep their backend iteration order (the tied key plus Python's
      stable sort), exactly the pre-canonicalisation behaviour.
    """
    if isinstance(value, tuple):
        return "(" + ",".join(_canonical_token(element) for element in value) + ")"
    if isinstance(value, numbers.Integral):
        return repr(int(value))
    if isinstance(value, (numbers.Real, decimal.Decimal)):
        # Use the float token only when the value ==-unifies with that float
        # (exactly representable); exact rationals beyond float precision —
        # Fraction(1, 3), Decimal('0.1') — are NOT ==-equal to their float
        # approximations and must not share its token.
        try:
            as_float = float(value)
        except OverflowError:
            as_float = None
        if as_float is not None and value == as_float:
            return (
                repr(int(as_float)) if as_float.is_integer() else repr(as_float)
            )
        if isinstance(value, decimal.Decimal):
            # ==-equal Decimals can differ in repr (0.10 vs 0.1): normalise.
            return f"Decimal:{value.normalize()}"
        return repr(value)
    if type(value).__repr__ is object.__repr__:
        return ""
    return repr(value)


def _canonical_sort_key(item: tuple[Any, float]) -> str:
    return _canonical_token(item[0])


class ExactAnswer:
    """An exact output ``Q(A)`` in release-ready form, and nothing else of it.

    A measurement is ``Q(A) + noise`` and only the noise depends on ε, so this
    is everything a release needs of the evaluation: :attr:`records`, the
    support of ``Q(A)`` in the canonical noise-draw order, and
    :attr:`weights`, the aligned exact weights as one float vector.  The
    dataset says what that order is (:meth:`~repro.core.dataset
    .WeightedDataset.in_canonical_order`), so an output still held as code
    columns is ordered and weighed from them and never becomes a dict.  It is
    what :meth:`~repro.core.queryable.PrivacySession.hold` retains per held
    plan — protected data, so it never leaves the session and its repr shows
    a record count only.
    """

    __slots__ = ("records", "weights")

    def __init__(self, exact: WeightedDataset) -> None:
        # Noise is drawn in a canonical (repr-sorted) record order rather than
        # the dataset's iteration order.  Iteration order is an artifact of
        # how a backend materialised Q(A) — eager dict insertion vs columnar
        # code order — so sorting makes the record→noise assignment a function
        # of the record *set* alone: under a fixed seed every execution
        # backend releases identical measurements.
        self.records, weights = exact.in_canonical_order()
        self.weights = np.asarray(weights, dtype=float)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"<ExactAnswer records={len(self.records)}>"


class NoisyCountResult:
    """Released noisy weights for a wPINQ query.

    The protected data is consulted exactly once, at construction time, to
    read the true weights of records with non-zero weight.  After that the
    object is safe to share: values for unseen records are pure noise
    (true weight zero) drawn on demand and memoised so repeated queries for
    the same record are answered consistently.

    Parameters
    ----------
    exact:
        The exact transformed dataset ``Q(A)`` (only consulted at
        construction), or the :class:`ExactAnswer` already made of it — the
        released values are the same either way.
    epsilon:
        Noise parameter; each value receives ``Laplace(1/ε)`` noise.
    noise:
        The noise source to draw from.
    plan, query_name:
        Optional metadata recorded so that downstream probabilistic inference
        can re-evaluate the same query on synthetic data.
    """

    __slots__ = ("_epsilon", "_noise", "_plan", "query_name", "_values")

    def __init__(
        self,
        exact: "WeightedDataset | ExactAnswer",
        epsilon: float,
        noise: LaplaceNoise | None = None,
        plan=None,
        query_name: str = "",
    ) -> None:
        self._epsilon = validate_epsilon(epsilon)
        self._noise = noise if noise is not None else LaplaceNoise()
        self._plan = plan
        self.query_name = query_name
        if not isinstance(exact, ExactAnswer):
            exact = ExactAnswer(exact)
        # One vector draw: the same values, and the same generator state
        # afterwards, as one scalar draw per record in this order.
        draws = self._noise.sample_many(self._epsilon, len(exact))
        self._values: dict[Any, float] = dict(
            zip(exact.records, (exact.weights + draws).tolist())
        )

    @classmethod
    def from_released(
        cls,
        values: "dict[Any, float] | list[tuple[Any, float]]",
        epsilon: float,
        noise: LaplaceNoise | None = None,
        plan=None,
        query_name: str = "",
    ) -> "NoisyCountResult":
        """Rehydrate a previously *released* measurement without data access.

        Used by the durable answer store: the noisy values were drawn and
        published by an earlier incarnation of the service, so replaying them
        verbatim reveals nothing new and costs no budget.  The protected data
        is never consulted — values for records outside ``values`` are pure
        noise drawn on demand, exactly as for a live result.
        """
        result = cls.__new__(cls)
        result._epsilon = validate_epsilon(epsilon)
        result._noise = noise if noise is not None else LaplaceNoise()
        result._plan = plan
        result.query_name = query_name
        result._values = dict(values)
        return result

    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """The ε used for this measurement."""
        return self._epsilon

    @property
    def plan(self):
        """The logical plan this measurement was taken over (may be None)."""
        return self._plan

    def value(self, record: Any) -> float:
        """Noisy weight of ``record`` (drawing fresh noise if never seen)."""
        if record not in self._values:
            self._values[record] = self._noise.sample(self._epsilon)
        return self._values[record]

    def __getitem__(self, record: Any) -> float:
        return self.value(record)

    def __contains__(self, record: Any) -> bool:
        return record in self._values

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def observed_records(self) -> set[Any]:
        """Records whose value has been released so far.

        Contains the support of the measured dataset plus any additional
        records the analyst explicitly asked about.
        """
        return set(self._values)

    def items(self) -> Iterator[tuple[Any, float]]:
        """Iterate over ``(record, noisy weight)`` pairs released so far."""
        return iter(self._values.items())

    def to_dict(self) -> dict[Any, float]:
        """Copy of the released values."""
        return dict(self._values)

    def total(self) -> float:
        """Sum of all released noisy weights (a common post-processing step)."""
        return sum(self._values.values())

    def as_weighted_dataset(self) -> WeightedDataset:
        """The released values viewed as a (noisy, possibly negative) dataset."""
        return WeightedDataset(self._values)

    def l1_distance_to(self, candidate: WeightedDataset) -> float:
        """``‖Q(synthetic) − m‖₁`` over the union of supports.

        Used by probabilistic inference (Section 4.1): records present in the
        candidate output but never measured are compared against a freshly
        drawn (then memoised) noisy zero, exactly as the platform would have
        answered had the analyst asked for them.
        """
        total = 0.0
        for record, weight in candidate.items():
            total += abs(weight - self.value(record))
        for record, value in self._values.items():
            if record not in candidate:
                total += abs(value)
        return total

    def __repr__(self) -> str:
        name = f" {self.query_name!r}" if self.query_name else ""
        return (
            f"<NoisyCountResult{name} epsilon={self._epsilon:g} "
            f"records={len(self._values)}>"
        )


def noisy_sum(
    dataset: WeightedDataset | ExactAnswer,
    epsilon: float,
    value_selector: Callable[[Any], float] = lambda record: 1.0,
    clamp: float = 1.0,
    noise: LaplaceNoise | None = None,
) -> float:
    """ε-DP weighted sum ``Σ_x A(x) · clip(f(x), ±clamp)`` + ``Laplace(clamp/ε)``.

    A unit change in the weight of any record changes the true sum by at most
    ``clamp``, so Laplace noise of scale ``clamp/ε`` provides ε-differential
    privacy with respect to ``‖A − A'‖``.  The sum is ``math.fsum``'s, which
    does not depend on the order of the terms, so ``Q(A)`` held as an
    :class:`ExactAnswer` releases the same value as the dataset it was made of.
    """
    epsilon = validate_epsilon(epsilon)
    clamp = float(clamp)
    if clamp <= 0:
        raise ValueError("clamp must be positive")
    noise = noise if noise is not None else LaplaceNoise()
    if isinstance(dataset, ExactAnswer):
        items = zip(dataset.records, dataset.weights.tolist())
    else:
        items = dataset.items()
    total = math.fsum(
        weight * max(-clamp, min(clamp, float(value_selector(record))))
        for record, weight in items
    )
    return total + noise.sample(epsilon / clamp)


def noisy_average(
    dataset: WeightedDataset,
    epsilon: float,
    value_selector: Callable[[Any], float],
    clamp: float = 1.0,
    noise: LaplaceNoise | None = None,
) -> float:
    """ε-DP average of clamped record values.

    The budget is split evenly between a noisy numerator (clamped weighted
    sum) and a noisy denominator (total weight); the denominator is floored at
    a small positive constant so the ratio is always defined.
    """
    epsilon = validate_epsilon(epsilon)
    noise = noise if noise is not None else LaplaceNoise()
    numerator = noisy_sum(dataset, epsilon / 2.0, value_selector, clamp=clamp, noise=noise)
    denominator = noisy_sum(dataset, epsilon / 2.0, lambda record: 1.0, clamp=1.0, noise=noise)
    return numerator / max(denominator, 1e-6)


def noisy_median(
    dataset: WeightedDataset,
    epsilon: float,
    value_selector: Callable[[Any], float] = lambda record: float(record),
    candidates: Sequence[float] | None = None,
    rng: np.random.Generator | int | None = None,
) -> float:
    """ε-DP weighted median via the exponential mechanism.

    The utility of a candidate value ``c`` is the negated absolute difference
    between the total weight of records whose value falls below ``c`` and the
    total weight of those above it.  A unit change in any record's weight
    moves either side of that difference by at most one, so the utility is
    1-Lipschitz in ``‖·‖`` and the exponential mechanism applies directly —
    this is one of the aggregations the paper notes "generalize easily to
    weighted datasets" (Section 2.2).

    ``candidates`` defaults to the distinct values observed in the dataset;
    supplying an explicit, data-independent grid gives a cleaner privacy story
    when the value domain is known a priori.
    """
    values = {record: float(value_selector(record)) for record in dataset.records()}
    if candidates is None:
        candidate_values = sorted(set(values.values()))
    else:
        candidate_values = sorted(float(candidate) for candidate in candidates)
    if not candidate_values:
        raise ValueError("noisy_median requires at least one candidate value")

    def utility(candidate: float, data: WeightedDataset) -> float:
        below = sum(
            weight for record, weight in data.items() if values.get(record, float(value_selector(record))) < candidate
        )
        above = sum(
            weight for record, weight in data.items() if values.get(record, float(value_selector(record))) > candidate
        )
        return -abs(below - above)

    return float(
        exponential_mechanism(dataset, candidate_values, utility, epsilon, rng=rng)
    )


def exponential_mechanism(
    dataset: WeightedDataset,
    candidates: Sequence[Any],
    score: Callable[[Any, WeightedDataset], float],
    epsilon: float,
    rng: np.random.Generator | int | None = None,
) -> Any:
    """Select a candidate with probability ``∝ exp(ε · score / 2)``.

    ``score(candidate, dataset)`` must be 1-Lipschitz in the dataset with
    respect to ``‖·‖`` (the paper's generalisation of the McSherry–Talwar
    mechanism to weighted data).  Scores are shifted by their maximum before
    exponentiation for numerical stability.
    """
    epsilon = validate_epsilon(epsilon)
    candidates = list(candidates)
    if not candidates:
        raise ValueError("exponential_mechanism requires at least one candidate")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    scores = np.array([float(score(candidate, dataset)) for candidate in candidates])
    logits = (epsilon / 2.0) * scores
    logits -= logits.max()
    probabilities = np.exp(logits)
    probabilities /= probabilities.sum()
    index = int(rng.choice(len(candidates), p=probabilities))
    return candidates[index]
