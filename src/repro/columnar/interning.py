"""Dictionary-encoding of records and atoms into integer codes.

The columnar backend stores a weighted dataset as NumPy arrays of *codes*
rather than Python objects: every distinct atom (a vertex id, a degree, a
whole record) is assigned a small integer once, and from then on all
comparisons, sorts, joins and group-bys operate on ``int64`` arrays.  Because
the encoding is injective, code equality is record equality — which is what
lets :mod:`repro.columnar.kernels` replace per-record Python loops with
packed-word sorts / ``np.bincount`` / fancy indexing.

A single process-wide :class:`Interner` is shared by every
:class:`~repro.columnar.dataset.ColumnarDataset`, so codes produced by one
dataset are directly comparable with codes produced by any other (the binary
kernels rely on this).  Atoms unify exactly as ``dict`` keys do — ``1``,
``1.0`` and ``True`` share one code — because
:class:`~repro.core.dataset.WeightedDataset` is dictionary-backed and the
kernels must match records precisely when the eager backend would.  The
stored representative of a code is the first object ever interned for it,
process-wide, whereas a dict keeps the first key *per dataset*: datasets
mixing ``==``-equal atoms of different types may therefore materialise an
equal-but-differently-typed record (``(True, 3)`` for ``(1.0, 3)``), which
only a mapper that distinguishes ``==``-equal values (``str``, ``repr``,
``type``) can observe.  Weights, merges and joins are unaffected.

The table is append-only: codes are never reused or invalidated, so cached
code arrays stay valid for the life of the process.  Memory therefore grows
with the number of distinct atoms ever seen — protected records, but also
every distinct *intermediate* record the kernels produce (group-by prefix
tuples, shave slices); a long vectorized MCMC run grows the vocabulary
monotonically with the distinct intermediates its proposals generate, a
deliberate trade of memory for cross-dataset code compatibility.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..core.aggregation import _canonical_token
from ..sanitize import ordered_lock

__all__ = [
    "Interner",
    "global_interner",
    "set_global_interner",
    "use_interner",
]


class Interner:
    """An append-only bijection between hashable atoms and ``int64`` codes.

    Lookup uses plain dictionary equality, so atoms that are ``==``-equal
    (``1``/``1.0``/``True``) share a single code and decode to the
    first-interned representative — the same unification a dict-backed
    :class:`~repro.core.dataset.WeightedDataset` performs on its keys, which
    keeps columnar record matching (joins, intersections, ``FieldIs``)
    agreeing with the eager backend.  See the module docstring for the
    representative caveat on mixed-type data.

    The interner also owns the memo of its atoms' canonical release-order
    tokens (:meth:`tokens`), one per code and filled as releases ask: a code
    never changes its atom, so a token never goes stale, and a release renders
    each distinct atom once however many rows carry it.  The tokens are
    ``repr`` text of protected atoms and are as protected as the atoms.
    """

    __slots__ = ("_codes", "_atoms", "_tokens", "_lock")

    def __init__(self) -> None:
        self._codes: dict[Any, int] = {}
        self._atoms: list[Any] = []
        self._tokens: dict[int, str] = {}
        # Assigning a fresh code is a read-len/write-dict/append sequence; the
        # lock keeps it atomic so parallel synthesis chains (repro.inference
        # .parallel runs N chains in threads) cannot assign one code to two
        # atoms.  Reads of existing codes stay lock-free: the dict is
        # append-only, so a hit is always a committed, final value.
        self._lock = ordered_lock("columnar.interner", 75)

    def __len__(self) -> int:
        return len(self._atoms)

    def stats(self) -> dict[str, int]:
        """Observability for the documented monotonic-growth trade-off.

        ``atoms`` is the vocabulary size (every distinct atom ever seen,
        including intermediates the kernels produce), ``tokens`` how many of
        them a release has rendered and memoised (:meth:`tokens`, ≈ 50 B of
        text each) and ``table_bytes`` an estimate of the resident encoding
        state — the dict and list overhead, not the atoms' own payloads.
        Sampling this before/after a workload
        turns "the interner grows monotonically" from a docstring warning into
        a number (the end-to-end benchmark reports ``columnar.interner.atoms``).
        """
        return {
            "atoms": len(self._atoms),
            "tokens": len(self._tokens),
            "table_bytes": sys.getsizeof(self._codes) + sys.getsizeof(self._atoms),
        }

    # ------------------------------------------------------------------
    def code(self, atom: Any) -> int:
        """Return the code for ``atom``, assigning a fresh one if needed."""
        code = self._codes.get(atom)
        if code is None:
            with self._lock:
                code = self._codes.get(atom)
                if code is None:
                    code = len(self._atoms)
                    self._atoms.append(atom)
                    self._codes[atom] = code
        return code

    def codes(self, atoms: Iterable[Any]) -> np.ndarray:
        """Encode an iterable of atoms as an ``int64`` array: one lock-free
        pass when every atom is known, else :meth:`code` atom by atom, in order
        (so an unhashable atom raises after those before it got their codes)."""
        atoms = list(atoms)
        try:
            codes = list(map(self._codes.get, atoms))
        except TypeError:  # unhashable: let the ordered walk raise it in place
            codes = [None]
        if None in codes:
            codes = [self.code(atom) for atom in atoms]
        return np.array(codes, dtype=np.int64)

    # ------------------------------------------------------------------
    def atom(self, code: int) -> Any:
        """Return the atom a code stands for."""
        return self._atoms[code]

    def atoms(self, codes: Sequence[int] | np.ndarray) -> list[Any]:
        """Decode an array of codes back into their atoms."""
        table = self._atoms
        if isinstance(codes, np.ndarray):
            codes = codes.tolist()
        return [table[code] for code in codes]

    def tokens(self, codes: np.ndarray) -> list[str]:
        """The canonical release-order token of each code's atom, memoised.

        Unlocked: two racing fills store equal strings under equal keys.
        """
        memo = self._tokens
        codes = codes.tolist()
        for code in set(codes).difference(memo):
            memo[code] = _canonical_token(self._atoms[code])
        return list(map(memo.__getitem__, codes))


#: The process-wide interner every ColumnarDataset encodes against.
_GLOBAL = Interner()


def global_interner() -> Interner:
    """The shared interner (one encoding per process, so codes compose)."""
    return _GLOBAL


def set_global_interner(interner: Interner) -> Interner:
    """Replace the process-wide interner, returning the previous one.

    The seam :mod:`repro.shard` uses: a worker process installs its
    :class:`~repro.shard.interner.ShardInterner` once at startup so every
    dataset it builds encodes against the frozen snapshot + its private
    extension namespace.  Codes encoded against different interners are *not*
    comparable — swapping mid-stream invalidates every cached code array, so
    callers must only swap at process start or around a fully self-contained
    execution (see :func:`use_interner`).
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = interner
    return previous


@contextmanager
def use_interner(interner: Interner) -> Iterator[Interner]:
    """Run a block with ``interner`` installed as the process-wide interner.

    Used by the inline (single-process) shard path and by tests.  Not safe
    under concurrency: the swap is process-global, so the block must not run
    alongside other threads encoding datasets.
    """
    previous = set_global_interner(interner)
    try:
        yield interner
    finally:
        set_global_interner(previous)
