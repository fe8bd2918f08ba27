"""Timing spans recorded from outside the program.

The benchmark may not change anything under ``src/``, so per-layer numbers
come from wrappers this module installs around the program's public callables
(``Tracer.wrap("repro.persistence.wal:LedgerStore.charge", "persistence.charge")``)
for the length of one traced phase and removes again.  A span is
``[name, start, end, parent, rid]``: ``parent`` is the index of the enclosing
span on the same thread (-1 for none) and ``rid`` is whatever identifies the
request or step the span belongs to, so spans of one request that ran on
different threads (HTTP handler, scheduler drain) can be joined afterwards.

Spans stay in memory (one list per thread, no lock on the hot path) and are
written out by :meth:`Tracer.dump` after the timed window.  A span's *self
time* is its duration minus the duration of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from typing import Any, Callable, Iterator

NAME, START, END, PARENT, RID = range(5)


class _ThreadSpans:
    __slots__ = ("spans", "top", "active")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.top = -1
        self.active: set[str] = set()


class Tracer:
    """Installs and removes timing wrappers; keeps the spans they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_ThreadSpans] = []
        self._installed: list[tuple[Any, str, Any, bool]] = []
        self._wrapped: set[str] = set()
        self._missing: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    @property
    def unavailable(self) -> dict[str, str]:
        """Span name -> why none of its targets could be wrapped.  A backend a
        later change deletes must yield "no number, and the reason", never a
        crash."""
        return {
            name: "; ".join(reasons)
            for name, reasons in self._missing.items()
            if name not in self._wrapped
        }

    def _spans(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadSpans()
            with self._lock:
                self.threads.append(state)
        return state

    def wrap(
        self,
        target: str,
        name: str,
        rid: Callable[..., Any] | None = None,
        after: Callable[[list, Any], None] | None = None,
    ) -> bool:
        """Time every call of ``module:attr.path`` as a span called ``name``.

        ``rid(*args, **kwargs)`` labels the span before the call and
        ``after(span, result)`` may relabel it from the result.  A nested call
        under a span of the same name on the same thread is passed through
        unrecorded, so one name never counts an interval twice.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError) as exc:
            self._missing.setdefault(name, []).append(f"{target}: {exc}")
            return False
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        original = raw.__func__ if kind else raw
        tracer = self

        def timed(*args, **kwargs):
            state = tracer._spans()
            if name in state.active:
                return original(*args, **kwargs)
            span = [name, 0.0, 0.0, state.top, rid(*args, **kwargs) if rid else None]
            previous = state.top
            state.top = len(state.spans)
            state.spans.append(span)
            state.active.add(name)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                state.top = previous
                state.active.discard(name)
            if after is not None:
                after(span, result)
            return result

        timed.__wrapped__ = original  # type: ignore[attr-defined]
        own = attr in vars(owner)
        setattr(owner, attr, kind(timed) if kind else timed)
        self._installed.append((owner, attr, raw, own))
        self._wrapped.add(name)
        return True

    def uninstall(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._installed:
            owner, attr, raw, own = self._installed.pop()
            if own:
                setattr(owner, attr, raw)
            else:  # the attribute was inherited: drop our override
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def spans(self, name: str | None = None) -> Iterator[list]:
        for state in list(self.threads):
            for span in state.spans:
                if name is None or span[NAME] == name:
                    yield span

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total duration, total self time)`` in seconds."""
        out: dict[str, list] = {}
        for state in list(self.threads):
            child_time = [0.0] * len(state.spans)
            for span in state.spans:
                if span[PARENT] >= 0:
                    child_time[span[PARENT]] += span[END] - span[START]
            for span, covered in zip(state.spans, child_time):
                duration = span[END] - span[START]
                entry = out.setdefault(span[NAME], [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - covered
        return {name: (calls, total, own) for name, (calls, total, own) in out.items()}

    def children(self, parent_name: str) -> Iterator[tuple[list, list[list]]]:
        """Each span called ``parent_name`` with its direct children, in order."""
        for state in list(self.threads):
            grouped: dict[int, list[list]] = {}
            for span in state.spans:
                if span[PARENT] >= 0:
                    grouped.setdefault(span[PARENT], []).append(span)
            for index, span in enumerate(state.spans):
                if span[NAME] == parent_name:
                    yield span, grouped.get(index, [])

    def dump(self, handle, phase: str) -> int:
        """Append every span to an open JSON-lines file; returns the count."""
        written = 0
        for thread_index, state in enumerate(list(self.threads)):
            for index, span in enumerate(state.spans):
                handle.write(
                    json.dumps(
                        {
                            "phase": phase,
                            "thread": thread_index,
                            "id": index,
                            "parent": span[PARENT],
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "rid": span[RID],
                        },
                        default=repr,
                    )
                    + "\n"
                )
                written += 1
        return written
