"""Columnar weighted datasets: interned-code arrays plus a weight vector.

A :class:`ColumnarDataset` holds the same mathematical object as
:class:`~repro.core.dataset.WeightedDataset` — a finite-support function from
records to real weights — but stores it as NumPy arrays:

* ``columns`` — one ``int64`` code array per record *field* when every record
  is a ``k``-tuple (``arity == k``, the *decomposed* layout), or a single code
  array of whole-record codes otherwise (``arity is None``, the *opaque*
  layout).  Codes come from the process-wide
  :func:`~repro.columnar.interning.global_interner`, so they are comparable
  across datasets.
* ``weights`` — an aligned ``float64`` vector.

Invariants: rows are unique (one row per record with non-zero weight) and
every weight satisfies ``|w| > tolerance``, mirroring ``WeightedDataset``.
Datasets are value objects — kernels never mutate ``columns``/``weights`` of
an existing dataset (the MCMC engine's mutable sources build *snapshots*).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from ..core.dataset import DEFAULT_TOLERANCE, WeightedDataset
from .interning import Interner, global_interner

__all__ = ["ColumnarDataset", "consolidate", "row_groups", "encode_query_rows"]


def encode_query_rows(
    records: Sequence[Any], width: int, arity: int | None
) -> np.ndarray:
    """Encode probe records as an ``(n, width)`` code matrix for one layout.

    Rows that cannot match the layout (non-tuples, wrong arity) are filled
    with the ``-1`` sentinel, which never equals a real code.  The matrix
    stays valid as long as the probed datasets keep that layout, so callers
    probing a fixed record set every MCMC step encode once and reuse it.
    """
    queries = np.full((len(records), width), -1, dtype=np.int64)
    interner = global_interner()
    for position, record in enumerate(records):
        if arity is None:
            queries[position, 0] = interner.code(record)
        elif isinstance(record, tuple) and len(record) == arity:
            # isinstance, not an exact type check: a namedtuple probe is
            # ==-equal to the plain-tuple rows and must match them.
            for column, field in enumerate(record):
                queries[position, column] = interner.code(field)
    return queries


#: Packed row keys, and sort keys carrying a row number, stay below this.
_WORD = 1 << 63


def packing_plan(spans: Sequence[int], rows: int) -> tuple[list[list[int]], bool]:
    """How columns whose values span ``spans`` pack into ``int64`` words.

    Returns each word's column indices, most significant first (a column
    joins the current word while the product of its spans stays below 2⁶³),
    and whether a row number fits too: one word whose product, shifted left
    by the bits of ``rows - 1``, stays below 2⁶³.
    """
    words: list[list[int]] = []
    product = _WORD  # no word open yet: the first column starts one
    for index, span in enumerate(spans):
        if product * span < _WORD:
            words[-1].append(index)
            product *= span
        else:
            words.append([index])
            product = span
    return words, len(words) == 1 and product << (rows - 1).bit_length() < _WORD


def pack_rows(*sides: Sequence[np.ndarray]) -> tuple[list[list[np.ndarray]], bool]:
    """Pack each of the aligned, non-empty column tuples ``sides`` into the
    words of one :func:`packing_plan`; its row verdict comes back with them.

    Columns are shifted to zero by their minimum over *all* sides and
    combined most significant first, so rows' words order and compare as the
    rows do, within a side and across sides.  Codes lie within ±2⁶² (interner
    codes are far below), so no shift wraps.
    """
    width = range(len(sides[0]))
    lows = [min(int(side[index].min()) for side in sides) for index in width]
    spans = [
        max(int(side[index].max()) for side in sides) - lows[index] + 1
        for index in width
    ]
    plan, fits_rows = packing_plan(spans, max(side[0].shape[0] for side in sides))

    def pack(columns: Sequence[np.ndarray], first: int, *rest: int) -> np.ndarray:
        word = columns[first] - lows[first]
        for index in rest:
            word *= spans[index]
            word += columns[index]
            word -= lows[index]
        return word

    return [[pack(side, *indices) for indices in plan] for side in sides], fits_rows


def sorted_runs(
    words: Sequence[np.ndarray], fits_rows: bool
) -> tuple[np.ndarray | None, np.ndarray | None, list[np.ndarray]]:
    """Sort rows held as ``int64`` words, most significant first: their stable
    lexicographic order, where each run of equal rows starts in it, and the
    words sorted.  ``None`` stands for ``arange(rows)`` in either of the first
    two — rows already in order, every row a run of its own — so no caller
    gathers through an identity or counts runs of one.

    One word that is already non-decreasing — a consolidated dataset's rows,
    packed under any :func:`pack_rows` plan — is its own stable order, so
    nothing is sorted.  Otherwise ``fits_rows`` (from :func:`pack_rows`)
    promises one word that keeps ``word << b | row`` in ``[0, 2⁶³)``, ``b``
    the bits of the largest row number.  Those keys are all distinct, so
    *any* sort of them is the stable order of ``word``: NumPy's vectorised
    sort instead of a merge sort per word and a gather, and a mask and a
    shift split the sorted keys.
    """
    count = words[0].shape[0]
    if len(words) == 1 and not (words[0][1:] < words[0][:-1]).any():
        order = None
    elif fits_rows:
        shift = (count - 1).bit_length()
        keys = words[0] << shift
        keys |= np.arange(count)
        keys = np.sort(keys)
        order = keys & ((1 << shift) - 1)
        keys >>= shift
        words = [keys]
    else:
        order = np.lexsort(words[::-1])
        words = [word[order] for word in words]
    boundary = np.ones(count, dtype=bool)
    np.not_equal(words[0][1:], words[0][:-1], out=boundary[1:])
    for word in words[1:]:
        boundary[1:] |= word[1:] != word[:-1]
    return order, None if boundary.all() else np.flatnonzero(boundary), words


def run_index(starts: np.ndarray, count: int) -> np.ndarray:
    """The run number of each of ``count`` sorted rows whose runs begin at
    ``starts`` (:func:`sorted_runs`)."""
    return np.repeat(np.arange(starts.shape[0]), np.diff(starts, append=count))


def row_groups(
    columns: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lexicographically sort rows and detect equal-row groups.

    Returns ``(order, group_index, representatives)``: ``order`` is the
    lexsort permutation (stable, first column most significant),
    ``group_index[i]`` numbers the group of sorted row ``i`` and
    ``representatives`` holds the sorted-row position of each group's first
    row, so ``column[order[representatives]]`` is one row per group.  Zero
    rows give three empty arrays.  When every row is distinct, sorted row
    ``i`` is group ``i``: ``group_index`` and ``representatives`` are then the
    same ``arange``, and callers compare group and row counts to tell.

    Rows are packed into one ``int64`` word each (:func:`pack_rows`), whose
    stable order *is* that permutation; only ranges that overflow a word —
    two or more columns mixing snapshot codes with worker-namespace ones
    ``≥ 1 << 40`` — take several.  :func:`consolidate`, the binary kernels and
    an overflowing composite join key share this one row-merge primitive, so
    all agree on row ordering by construction.
    """
    count = columns[0].shape[0]
    if count == 0:
        return (np.empty(0, dtype=np.int64),) * 3
    (words,), fits_rows = pack_rows(columns)
    order, starts, _ = sorted_runs(words, fits_rows)
    if order is None:
        order = np.arange(count)
    if starts is None:
        starts = np.arange(count)
        return order, starts, starts
    return order, run_index(starts, count), starts


def consolidate(
    columns: Sequence[np.ndarray],
    weights: np.ndarray,
    tolerance: float,
    assume_unique: bool = False,
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Merge duplicate rows (summing weights) and drop sub-tolerance dust.

    The row order of the result is the lexicographic code order and a merged
    row adds its duplicates in input order (:func:`sorted_runs` sorts
    stably): both deterministic for a fixed interner state.  Rows already in
    that order are neither re-sorted nor copied, and when every row is
    distinct there is nothing to add — a group of one would sum to
    ``0.0 + w``, which is ``w`` for every weight the tolerance keeps — so no
    ``bincount`` runs.  ``assume_unique`` skips the sort/merge when the caller
    guarantees rows are already distinct.
    """
    weights = np.asarray(weights, dtype=np.float64)
    count = weights.shape[0]
    if not assume_unique and count:
        (words,), fits_rows = pack_rows(columns)
        order, starts, _ = sorted_runs(words, fits_rows)
        if order is not None:
            weights = weights[order]
        if starts is not None:
            weights = np.bincount(run_index(starts, count), weights=weights)
            order = starts if order is None else order[starts]
        if order is not None:
            columns = [column[order] for column in columns]
    keep = np.abs(weights) > tolerance
    if not keep.all():
        columns = [column[keep] for column in columns]
        weights = weights[keep]
    return tuple(columns), weights


def decode_rows(
    interner: Interner, columns: Sequence[np.ndarray], arity: int | None
) -> list[Any]:
    """The records that the code ``columns`` of one layout stand for."""
    fields = [interner.atoms(column) for column in columns]
    return fields[0] if arity is None else list(zip(*fields))


class ColumnarDataset:
    """An immutable weighted dataset in columnar, dictionary-encoded form."""

    __slots__ = (
        "columns",
        "weights",
        "arity",
        "tolerance",
        "_record_codes",
        "_records",
        "_norm",
    )

    def __init__(
        self,
        columns: Sequence[np.ndarray],
        weights: np.ndarray,
        arity: int | None,
        tolerance: float = DEFAULT_TOLERANCE,
        assume_unique: bool = False,
    ) -> None:
        columns, weights = consolidate(columns, weights, tolerance, assume_unique)
        expected = 1 if arity is None else arity
        if len(columns) != expected:
            raise ValueError(
                f"expected {expected} columns for arity {arity!r}, got {len(columns)}"
            )
        self.columns = columns
        self.weights = weights
        self.arity = arity
        self.tolerance = float(tolerance)
        self._record_codes: np.ndarray | None = (
            columns[0] if arity is None else None
        )
        self._records: list | None = None
        self._norm: float | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls, tolerance: float = DEFAULT_TOLERANCE, arity: int | None = None
    ) -> "ColumnarDataset":
        """The empty dataset in the given layout."""
        width = 1 if arity is None else arity
        columns = tuple(np.empty(0, dtype=np.int64) for _ in range(width))
        return cls(columns, np.empty(0, dtype=np.float64), arity, tolerance, True)

    @classmethod
    def from_pairs(
        cls,
        records: Iterable[Any],
        weights: Iterable[float] | np.ndarray,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> "ColumnarDataset":
        """Build from aligned records and weights, detecting the layout.

        Records that are all plain tuples of one common length decompose into
        per-field columns (the layout the vectorized join/filter fast paths
        need); anything else — scalars, strings, mixed arities, namedtuples —
        is stored opaquely as whole-record codes.  ``type(r) is tuple`` is
        checked exactly so tuple subclasses survive round-trips intact.
        """
        records = list(records)
        weights = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights, dtype=np.float64)
        if len(records) != weights.shape[0]:
            raise ValueError("records and weights must be aligned")
        interner = global_interner()
        if records and all(type(record) is tuple for record in records):
            width = len(records[0])
            if width >= 1 and all(len(record) == width for record in records):
                columns = tuple(
                    interner.codes([record[index] for record in records])
                    for index in range(width)
                )
                return cls(columns, weights, width, tolerance)
        return cls((interner.codes(records),), weights, None, tolerance)

    @classmethod
    def from_weighted(
        cls, dataset: WeightedDataset, tolerance: float | None = None
    ) -> "ColumnarDataset":
        """Encode a :class:`WeightedDataset` (records unique by construction).

        Records and weights are read off one copy of its mapping, in its
        order, not looked up one record at a time.
        """
        weights_by_record = dataset.to_dict()
        records = list(weights_by_record)
        weights = np.fromiter(
            weights_by_record.values(), dtype=np.float64, count=len(records)
        )
        return cls.from_pairs(
            records,
            weights,
            dataset.tolerance if tolerance is None else tolerance,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Support size (rows with non-zero weight)."""
        return int(self.weights.shape[0])

    def is_empty(self) -> bool:
        return self.weights.shape[0] == 0

    @property
    def decomposed(self) -> bool:
        """True when records are stored as per-field columns."""
        return self.arity is not None

    def total_weight(self) -> float:
        """``‖A‖ = Σ_x |A(x)|``."""
        if self._norm is None:
            self._norm = float(np.abs(self.weights).sum())
        return self._norm

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def record_codes(self) -> np.ndarray:
        """Whole-record codes (decomposed layouts intern their tuples once)."""
        if self._record_codes is None:
            self._record_codes = global_interner().codes(self.records())
        return self._record_codes

    def records(self) -> list[Any]:
        """The record objects, row-aligned with :attr:`weights` (cached)."""
        if self._records is None:
            self._records = decode_rows(global_interner(), self.columns, self.arity)
        return self._records

    def weights_for(self, records: Sequence[Any]) -> np.ndarray:
        """Vectorized weight lookup: ``[A(r) for r in records]`` (0 if absent).

        Encoding the (typically few) query records is per-record Python, but
        the dataset side stays columnar: rows are packed and binary-searched,
        so the cost is O(rows · log rows) array work instead of decoding the
        whole support into Python objects.  This is the read primitive of the
        MCMC scorer, which probes a fixed released-record set against a large
        query output every step — and caches the encoded query matrix across
        steps via :func:`encode_query_rows` / :meth:`weights_for_codes`.
        """
        records = list(records)
        return self.weights_for_codes(
            encode_query_rows(records, len(self.columns), self.arity)
        )

    def weights_for_codes(self, queries: np.ndarray) -> np.ndarray:
        """Like :meth:`weights_for` for a pre-encoded ``(n, width)`` query
        matrix (as produced by :func:`encode_query_rows` for this layout)."""
        width = len(self.columns)
        out = np.zeros(queries.shape[0], dtype=np.float64)
        if self.is_empty() or not queries.shape[0]:
            return out
        rows = np.column_stack(self.columns)
        order = np.lexsort(tuple(self.columns)[::-1])
        rows = rows[order]
        positions = np.searchsorted(
            rows.view([("", np.int64)] * width).ravel(),
            np.ascontiguousarray(queries).view([("", np.int64)] * width).ravel(),
        )
        positions = np.minimum(positions, rows.shape[0] - 1)
        hits = (rows[positions] == queries).all(axis=1)
        out[hits] = self.weights[order][positions[hits]]
        return out

    def as_opaque(self) -> "ColumnarDataset":
        """This dataset re-encoded with one whole-record code column."""
        if self.arity is None:
            return self
        return ColumnarDataset(
            (self.record_codes(),), self.weights, None, self.tolerance, True
        )

    def to_weighted(self) -> WeightedDataset:
        """This dataset as a :class:`WeightedDataset`, decoded when first read.

        The class invariants (unique rows, ``|w| > tolerance``) are the ones
        ``WeightedDataset`` would re-establish record by record, so the rows
        are adopted as they are; only finiteness is checked, here and now.
        The result (:class:`ColumnBackedDataset`) keeps these columns and the
        interner installed at this moment: a release is ordered and weighed
        from them, and the record dict is built only for a caller that reads
        it.
        """
        if not np.isfinite(self.weights).all():
            raise ValueError("dataset weights must be finite floats")
        return ColumnBackedDataset(self, global_interner())

    def __repr__(self) -> str:
        # Sanctioned debug affordance (as in WeightedDataset.__repr__): the
        # norm is shown for interactive use only, never logged on release.
        layout = "opaque" if self.arity is None else f"arity={self.arity}"
        return (
            f"ColumnarDataset(rows={len(self)}, {layout}, "
            f"norm={self.total_weight():.6g})"
        )


class ColumnBackedDataset(WeightedDataset):
    """A :class:`WeightedDataset` still held as the columns it was computed in.

    What :meth:`ColumnarDataset.to_weighted` returns.  Most query outputs are
    read by nothing but the release, and a release is ordered and weighed
    from the code columns (:meth:`in_canonical_order`), so the record dict is
    built on the first read of ``_weights`` / ``_norm`` — the two slots every
    inherited method goes through — and is then exactly the dict and norm
    ``_from_unique`` builds of the decoded rows.  Unlocked: a session
    serialises its measurements, and two racing builds store equal values.

    Codes mean nothing apart from the interner that assigned them, so the one
    installed when the dataset was made is kept and decodes it ever after;
    a pickle or copy is a plain ``WeightedDataset`` of the rows, never codes.
    """

    __slots__ = ("_columnar", "_interner")

    def __init__(self, columnar: ColumnarDataset, interner: Interner) -> None:
        self._tolerance = columnar.tolerance
        self._columnar = columnar
        self._interner = interner

    def __getattr__(self, name: str) -> Any:
        # Python asks only while the slot is unset: build the dict, once.
        if name not in ("_weights", "_norm"):
            raise AttributeError(name)
        columnar = self._columnar
        decoded = WeightedDataset._from_unique(
            decode_rows(self._interner, columnar.columns, columnar.arity),
            columnar.weights.tolist(),
            self._tolerance,
        )
        self._weights, self._norm = decoded._weights, decoded._norm
        return getattr(decoded, name)

    def __len__(self) -> int:
        return len(self._columnar)

    def is_empty(self) -> bool:
        return self._columnar.is_empty()

    def in_canonical_order(self) -> tuple[tuple, np.ndarray]:
        """The base class's order, from per-code tokens and without the dict.

        A row's key is assembled from its fields' memoised tokens exactly as
        ``_canonical_token`` renders a plain tuple (an opaque row's is its
        record's own token), and the same stable sort runs over rows in row
        order — the dict's insertion order — so ties fall the same way.  Only
        the sorted rows are decoded.
        """
        columnar, interner = self._columnar, self._interner
        tokens = [interner.tokens(column) for column in columnar.columns]
        if columnar.arity is None:
            keys = tokens[0]
        else:
            keys = ["(" + ",".join(row) + ")" for row in zip(*tokens)]
        order = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)
        records = decode_rows(
            interner, [column[order] for column in columnar.columns], columnar.arity
        )
        return tuple(records), columnar.weights[order]

    def __reduce__(self) -> tuple:
        return WeightedDataset, (self.to_dict(), self._tolerance)

    def __repr__(self) -> str:
        try:
            object.__getattribute__(self, "_weights")
        except AttributeError:  # still columns: nothing decoded to preview
            return f"<ColumnBackedDataset rows={len(self)}>"
        return super().__repr__()
