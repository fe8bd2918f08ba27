"""A shardable interner: frozen snapshot + disjoint worker extensions.

The columnar backend's correctness rests on one process-wide
:class:`~repro.columnar.interning.Interner` so codes compose across
datasets.  Worker processes cannot share that table, so sharded execution
splits it in three:

* **Frozen snapshot** — the coordinator's table up to a version (a plain
  length).  It is broadcast to workers incrementally: each request carries
  the delta of atoms interned since the worker last heard, so steady-state
  requests ship only what is new.  Frozen codes are identical in every
  process — any code the coordinator encoded into a shard's columns
  decodes to the same atom in the worker.
* **Worker-local extensions** — atoms a worker's kernels produce that are
  not in its frozen table (group-by results, shave slice tuples…).  They
  are assigned codes in a namespace disjoint from every other worker *and*
  from any future frozen growth: worker ``w``'s ``k``-th extension gets
  ``EXTENSION_OFFSET + w·EXTENSION_STRIDE + k``.  Extension codes never
  collide, so even un-remapped arrays from different workers cannot alias.
* **Deterministic reconciliation** — a response carries the worker's
  extension atoms (in assignment order); the coordinator interns them into
  its own table and rewrites extension codes in the returned arrays via
  :func:`merge_extensions` / :func:`remap_codes`.  Responses are reconciled
  in shard order, not completion order, so the coordinator's table evolves
  identically run to run.  Code *values* never influence weights or noise
  (weights merge positionally, noise draws in canonical record order), so
  reconciliation order is about reproducible internal state, not about
  released values.

Extensions are ephemeral — :meth:`ShardInterner.take_extensions` drains
them after each request — so a worker's persistent state is exactly its
frozen table, and the coordinator tracks one integer (atoms sent) per
worker incarnation.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from ..columnar.interning import Interner
from ..core.aggregation import _canonical_token

__all__ = [
    "EXTENSION_OFFSET",
    "EXTENSION_STRIDE",
    "ShardInterner",
    "merge_extensions",
    "remap_codes",
]

#: First extension code.  Far above any realistic frozen-table size (2^40
#: atoms would already exhaust memory), so frozen and extension ranges can
#: never meet.
EXTENSION_OFFSET = 1 << 40
#: Namespace width per worker: worker ``w`` owns
#: ``[OFFSET + w·STRIDE, OFFSET + (w+1)·STRIDE)``.
EXTENSION_STRIDE = 1 << 32


class ShardInterner(Interner):
    """An :class:`Interner` over a frozen snapshot plus a private namespace.

    Two construction modes share one lookup path:

    * **worker mode** (``borrow=None``) — owns an initially empty frozen
      table fed by :meth:`extend_frozen` deltas;
    * **inline mode** (``borrow=interner``) — borrows the coordinator's
      live table *read-only* up to ``len(borrow)`` at construction time
      (the version), so single-process sharded execution exercises the
      same namespace/reconciliation machinery without copying the table.
      Codes the borrowed table assigns after construction are ignored
      (version-gated), exactly as a worker would not know them.
    """

    __slots__ = ("worker_index", "_version", "_local_codes", "_local_atoms", "_borrowed")

    def __init__(self, worker_index: int, borrow: Interner | None = None) -> None:
        super().__init__()
        if not 0 <= worker_index < EXTENSION_OFFSET // EXTENSION_STRIDE:
            raise ValueError(f"worker_index {worker_index} out of namespace range")
        self.worker_index = int(worker_index)
        self._borrowed = borrow is not None
        if borrow is not None:
            # Share the dict/list (append-only, so shared reads are safe);
            # the version gate makes the view a stable snapshot.
            self._codes = borrow._codes
            self._atoms = borrow._atoms
            self._version = len(borrow._atoms)
        else:
            self._version = 0
        self._local_codes: dict[Any, int] = {}
        self._local_atoms: list[Any] = []

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Length of the frozen prefix this interner recognises."""
        return self._version

    def _base(self) -> int:
        return EXTENSION_OFFSET + self.worker_index * EXTENSION_STRIDE

    def __len__(self) -> int:
        return self._version + len(self._local_atoms)

    def stats(self) -> dict[str, int]:
        stats = super().stats()
        stats["atoms"] = len(self)
        stats["frozen_atoms"] = self._version
        stats["extension_atoms"] = len(self._local_atoms)
        return stats

    # ------------------------------------------------------------------
    def code(self, atom: Any) -> int:
        code = self._codes.get(atom)
        if code is not None and code < self._version:
            return code
        code = self._local_codes.get(atom)
        if code is None:
            code = self._base() + len(self._local_atoms)
            self._local_atoms.append(atom)
            self._local_codes[atom] = code
        return code

    def codes(self, atoms: Iterable[Any]) -> np.ndarray:
        atoms = list(atoms)
        out = np.empty(len(atoms), dtype=np.int64)
        for index, atom in enumerate(atoms):
            out[index] = self.code(atom)
        return out

    def atom(self, code: int) -> Any:
        if code >= EXTENSION_OFFSET:
            return self._local_atoms[code - self._base()]
        if code >= self._version:
            raise KeyError(f"code {code} is beyond this shard's frozen snapshot")
        return self._atoms[code]

    def atoms(self, codes: Sequence[int] | np.ndarray) -> list[Any]:
        if isinstance(codes, np.ndarray):
            codes = codes.tolist()
        return [self.atom(code) for code in codes]

    def tokens(self, codes: np.ndarray) -> list[str]:
        # Not memoised: take_extensions() hands extension codes out again.
        return [_canonical_token(atom) for atom in self.atoms(codes)]

    # ------------------------------------------------------------------
    def extend_frozen(self, atoms: Sequence[Any]) -> None:
        """Apply a coordinator delta (worker mode only)."""
        if self._borrowed:
            raise ValueError("inline ShardInterner borrows a live table; no deltas")
        for atom in atoms:
            if atom not in self._codes:
                self._codes[atom] = len(self._atoms)
                self._atoms.append(atom)
        self._version = len(self._atoms)

    def take_extensions(self) -> list[Any]:
        """Drain and return this request's extension atoms, in code order."""
        atoms = self._local_atoms
        self._local_atoms = []
        self._local_codes = {}
        return atoms


def merge_extensions(interner: Interner, extension_atoms: Sequence[Any]) -> np.ndarray:
    """Intern a worker's extension atoms; return local-index → global code.

    Deterministic: atoms are interned in the worker's assignment order, so
    for a fixed sequence of reconciliations the coordinator's table is a
    pure function of the workloads, not of scheduling.
    """
    return interner.codes(extension_atoms)


def remap_codes(
    array: np.ndarray, worker_index: int, mapping: np.ndarray
) -> np.ndarray:
    """Rewrite worker ``worker_index``'s extension codes to coordinator codes.

    Frozen codes pass through untouched (they are already global).  Returns
    the input array unchanged (no copy) when it contains no extension codes.
    """
    extension = array >= EXTENSION_OFFSET
    if not extension.any():
        return array
    base = EXTENSION_OFFSET + worker_index * EXTENSION_STRIDE
    out = array.copy()
    out[extension] = mapping[array[extension] - base]
    return out
