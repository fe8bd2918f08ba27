"""Static lock-order and blocking-under-lock analysis (R008, R009).

This is the whole-repo half of the lock-hierarchy contract whose runtime
half lives in :mod:`repro.sanitize`:

* every lock is *declared* — created through ``ordered_lock`` /
  ``ordered_rlock``, whose literal name, level and ``peers`` / ``io_ok``
  keywords are the declaration, or, for a bootstrap lock, a raw
  ``threading`` primitive with a ``# lock-order:`` comment;
* every *acquisition* (``with`` items, ``ExitStack.enter_context``,
  explicit ``.acquire()``) is resolved back to its declaration through the
  :class:`~repro.lint.model.RepoModel` type/alias machinery;
* calls made while a lock is held are resolved interprocedurally, and each
  function's transitive acquisition set and blocking-operation set are
  computed to a fixpoint over the call graph.

Findings:

* **R008 lock-hierarchy** — an acquisition that contradicts the declared
  levels (must be strictly increasing inward, with carve-outs for
  re-entrant re-acquisition and declared same-level ``peers``), a
  ``peers`` lock held past a loop (``ExitStack.enter_context``,
  ``acquire()``) whose iterable is not ``sorted(...)`` — sibling budgets
  taken in two orders deadlock — an undeclared or ill-declared lock, or a
  lock-like acquisition the analyzer cannot resolve (add an inline
  ``# lock: <key>`` comment to resolve ambiguity).
* **R009 blocking-under-lock** — a blocking operation (sleep, sqlite I/O,
  pipe/socket I/O, an HTTP round trip, pool dispatch, ``wait()`` without
  timeout, process join) performed, directly or via calls, while holding a lock that is
  not declared ``io-ok``.

A cycle in the may-hold graph (a potential deadlock) always contains an edge
against the declared levels, so it is an R008 finding too; ``repro locks``
prints the cycles themselves (:func:`lock_cycles`).

The raw-lock annotation grammar::

    # lock-order: <level> [<name.with.dot>] [io-ok] [peers] [reentrant]
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .engine import LintIssue, ModuleSource, load_modules, sort_issues, unsuppressed
from .model import FunctionInfo, RepoModel, TypeEnv, dotted_name

__all__ = [
    "ConcurrencyAnalysis",
    "LockDecl",
    "build_concurrency_analysis",
    "find_cycles",
    "lock_cycles",
    "render_lock_report",
]

_ORDER_RE = re.compile(r"#\s*lock-order:\s*([^#]*)")
_INLINE_KEY_RE = re.compile(r"#\s*lock:\s*([A-Za-z0-9_.\-]+)")
_FLAG_TOKENS = frozenset({"io-ok", "peers", "reentrant"})

#: Canonical dotted calls that block (resolved through import bindings).
_BLOCKING_CANONICAL = frozenset(
    {
        "time.sleep",
        "sqlite3.connect",
        "select.select",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
)
_BLOCKING_PREFIXES = ("subprocess.", "os.wait")

#: Receiver-name fragments that mark a sqlite/pipe-ish object.
_DB_RECEIVERS = ("conn", "cursor", "db")
_PIPE_RECEIVERS = ("conn", "pipe", "sock")
_PROC_RECEIVERS = ("proc", "process", "thread", "worker")


def _is_lockish_name(name: str) -> bool:
    base = name.lower()
    return (
        base in ("lock", "mutex")
        or base.endswith("_lock")
        or base.endswith("_mutex")
    )


# ---------------------------------------------------------------------------
# Lock declarations
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LockDecl:
    """One declared lock in the hierarchy."""

    key: str
    level: int
    reentrant: bool = False
    peers: bool = False
    io_ok: bool = False
    path: str = ""
    line: int = 0
    owner: str | None = None  #: class name, or None for a module global
    attr: str = ""
    kind: str = "Lock"  #: "Lock" | "RLock"
    factory: bool = True  #: created via ordered_lock/ordered_rlock


class StaticLockRegistry:
    """Declared locks plus the indexes acquisition resolution needs."""

    def __init__(self) -> None:
        self.decls: dict[str, LockDecl] = {}
        #: (class name, attribute) -> lock key
        self.attr_index: dict[tuple[str, str], str] = {}
        #: (module relpath, global name) -> lock key
        self.global_index: dict[tuple[str, str], str] = {}
        #: bare attribute/property name -> candidate keys (unique-name fallback)
        self.fallback: dict[str, set[str]] = {}

    def add(self, decl: LockDecl) -> LockDecl | None:
        """Register; returns the conflicting decl if the key is taken."""
        existing = self.decls.get(decl.key)
        if existing is not None and (
            existing.level != decl.level
            or existing.reentrant != decl.reentrant
            or existing.peers != decl.peers
            or existing.io_ok != decl.io_ok
        ):
            return existing
        if existing is None:
            self.decls[decl.key] = decl
        if decl.owner is not None:
            self.attr_index[(decl.owner, decl.attr)] = decl.key
        else:
            self.attr_index.setdefault(("", decl.attr), decl.key)
            self.global_index[(decl.path, decl.attr)] = decl.key
        self.fallback.setdefault(decl.attr, set()).add(decl.key)
        return None


@dataclass
class _ParsedOrder:
    level: int | None = None
    name: str | None = None
    flags: set[str] = field(default_factory=set)
    error: str | None = None


def _parse_order_comment(line_text: str) -> _ParsedOrder | None:
    match = _ORDER_RE.search(line_text)
    if match is None:
        return None
    parsed = _ParsedOrder()
    tokens = match.group(1).split()
    if not tokens:
        parsed.error = "missing level"
        return parsed
    try:
        parsed.level = int(tokens[0])
    except ValueError:
        parsed.error = f"level must be an integer, got {tokens[0]!r}"
        return parsed
    for token in tokens[1:]:
        if token in _FLAG_TOKENS:
            parsed.flags.add(token)
        elif "." in token and parsed.name is None:
            parsed.name = token
        else:
            parsed.error = (
                f"unknown lock-order token {token!r} "
                f"(expected io-ok/peers/reentrant or a dotted lock name)"
            )
            return parsed
    return parsed


def _call_tail(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    return dotted.rsplit(".", 1)[-1]


def _const_str(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _const_value(node: ast.AST | None):
    if isinstance(node, ast.Constant):
        return node.value
    return None


class _DeclCollector:
    """Extract every lock declaration (and its annotation issues)."""

    def __init__(self, model: RepoModel, registry: StaticLockRegistry) -> None:
        self.model = model
        self.registry = registry
        self.issues: list[LintIssue] = []

    def collect(self) -> None:
        for module in self.model.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    self._check_assignment(module, node)

    # -- helpers --------------------------------------------------------
    def _issue(self, module: ModuleSource, node: ast.AST, message: str) -> None:
        self.issues.append(LintIssue.at("R008", module, node, message))

    def _target_site(
        self, module: ModuleSource, stmt: ast.Assign | ast.AnnAssign
    ) -> tuple[str | None, str] | None:
        """(owner class or None, attribute name), or None for non-decl sites."""
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        if len(targets) != 1:
            return None
        target = targets[0]
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            for ancestor in module.ancestors(stmt):
                if isinstance(ancestor, ast.ClassDef):
                    return ancestor.name, target.attr
            return None
        if isinstance(target, ast.Name):
            for ancestor in module.ancestors(stmt):
                if isinstance(
                    ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    return None  # a local variable, not a declaration site
                if isinstance(ancestor, ast.ClassDef):
                    return ancestor.name, target.id
            return None, target.id
        return None

    def _check_assignment(
        self, module: ModuleSource, stmt: ast.Assign | ast.AnnAssign
    ) -> None:
        value = stmt.value
        if value is None:
            return
        site = self._target_site(module, stmt)
        if site is None:
            return
        owner, attr = site
        tail = _call_tail(value)
        if tail in ("ordered_lock", "ordered_rlock"):
            self._declare_factory(module, value, owner, attr)  # type: ignore[arg-type]
        elif tail in ("Lock", "RLock") and self._is_threading(module, value):  # type: ignore[arg-type]
            self._declare_raw(module, value, owner, attr)  # type: ignore[arg-type]
        elif tail == "field":
            self._declare_field(module, value, owner, attr)  # type: ignore[arg-type]

    def _is_threading(self, module: ModuleSource, call: ast.Call) -> bool:
        dotted = dotted_name(call.func) or ""
        root = dotted.split(".", 1)[0]
        binding = self.model.bindings[id(module)].get(root, "")
        return binding == "threading" or binding.startswith("threading.") or dotted in (
            "Lock",
            "RLock",
        )

    def _declare_factory(
        self, module: ModuleSource, call: ast.Call, owner: str | None, attr: str
    ) -> None:
        kind = "RLock" if _call_tail(call) == "ordered_rlock" else "Lock"
        args = {kw.arg: kw.value for kw in call.keywords}
        name = _const_str(call.args[0] if call.args else args.get("name"))
        level = _const_value(
            call.args[1] if len(call.args) > 1 else args.get("level")
        )
        if name is None or not isinstance(level, int):
            self._issue(
                module,
                call,
                "ordered_lock()/ordered_rlock() must be called with a literal "
                "name and integer level so the hierarchy is statically known",
            )
            return
        peers = _const_value(args.get("peers")) is True
        io_ok = _const_value(args.get("io_ok")) is True
        self._register(
            module,
            call,
            LockDecl(
                key=name,
                level=int(level),
                reentrant=kind == "RLock",
                peers=peers,
                io_ok=io_ok,
                path=module.relpath,
                line=call.lineno,
                owner=owner,
                attr=attr,
                kind=kind,
            ),
        )

    def _declare_raw(
        self, module: ModuleSource, call: ast.Call, owner: str | None, attr: str
    ) -> None:
        kind = "RLock" if _call_tail(call) == "RLock" else "Lock"
        parsed = _parse_order_comment(module.source_line(call.lineno))
        if parsed is None or parsed.error is not None:
            detail = "" if parsed is None else f" ({parsed.error})"
            self._issue(
                module,
                call,
                f"raw threading.{kind}() is not in the declared hierarchy"
                f"{detail}; create it via repro.sanitize.ordered_"
                f"{'r' if kind == 'RLock' else ''}lock or add a "
                f"'# lock-order: <level> <name>' comment",
            )
            return
        key = parsed.name or f"{module.relpath[:-3].replace('/', '.')}.{attr}"
        self._register(
            module,
            call,
            LockDecl(
                key=key,
                level=parsed.level or 0,
                reentrant=kind == "RLock" or "reentrant" in parsed.flags,
                peers="peers" in parsed.flags,
                io_ok="io-ok" in parsed.flags,
                path=module.relpath,
                line=call.lineno,
                owner=owner,
                attr=attr,
                kind=kind,
                factory=False,
            ),
        )

    def _declare_field(
        self, module: ModuleSource, call: ast.Call, owner: str | None, attr: str
    ) -> None:
        factory = next(
            (kw.value for kw in call.keywords if kw.arg == "default_factory"), None
        )
        if factory is None:
            return
        if isinstance(factory, ast.Name):
            helper = self.model.module_function(module, factory.id)
            if helper is not None:
                for node in ast.walk(helper.node):
                    if isinstance(node, ast.Return) and _call_tail(node.value) in (
                        "ordered_lock",
                        "ordered_rlock",
                    ):
                        # The helper's factory call is the declaration site;
                        # re-point its decl at this attribute as well.
                        self._declare_factory(module, node.value, owner, attr)  # type: ignore[arg-type]
                        return
        tail = (
            factory.id
            if isinstance(factory, ast.Name)
            else (dotted_name(factory) or "").rsplit(".", 1)[-1]
        )
        if tail in ("Lock", "RLock") and _is_lockish_name(attr):
            self._issue(
                module,
                call,
                f"dataclass field {attr!r} defaults to a raw threading lock "
                f"outside the declared hierarchy; route it through a module "
                f"helper returning ordered_lock()/ordered_rlock()",
            )

    def _register(
        self, module: ModuleSource, call: ast.Call, decl: LockDecl
    ) -> None:
        conflict = self.registry.add(decl)
        if conflict is not None:
            self._issue(
                module,
                call,
                f"lock {decl.key!r} re-declared with a different spec "
                f"(level {decl.level} vs {conflict.level} at "
                f"{conflict.path}:{conflict.line})",
            )


# ---------------------------------------------------------------------------
# Per-function walk: acquisitions, calls and blocking ops with held context
# ---------------------------------------------------------------------------
_UNRESOLVED = object()


@dataclass
class _Event:
    kind: str  #: "acquire" | "call" | "block"
    held: tuple[LockDecl, ...]
    node: ast.AST
    decl: LockDecl | None = None
    callee: str | None = None  #: callee qualname for "call"
    callee_short: str = ""
    desc: str | None = None  #: blocking-op description for "block"


@dataclass
class _FunctionAnalysis:
    info: FunctionInfo
    events: list[_Event] = field(default_factory=list)
    calls: set[str] = field(default_factory=set)
    acq: set[str] = field(default_factory=set)  #: transitive acquisition keys
    block: set[str] = field(default_factory=set)  #: transitive blocking ops
    #: ``peers`` locks held past a loop that does not iterate ``sorted(...)``.
    unsorted: list[tuple[ast.AST, LockDecl]] = field(default_factory=list)


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_sorted(iterable: ast.expr) -> bool:
    return isinstance(iterable, ast.Call) and dotted_name(iterable.func) == "sorted"


def _has_timeout(call: ast.Call) -> bool:
    if call.args:
        return True
    return any(
        kw.arg == "timeout" and _const_value(kw.value) is not None
        for kw in call.keywords
    )


def _classify_blocking(call: ast.Call, bindings: dict[str, str]) -> str | None:
    dotted = dotted_name(call.func)
    if dotted is not None:
        root, _, rest = dotted.partition(".")
        canonical = bindings.get(root, root) + (f".{rest}" if rest else "")
        if canonical in _BLOCKING_CANONICAL or canonical.startswith(
            _BLOCKING_PREFIXES
        ):
            return f"{canonical}()"
    if not isinstance(call.func, ast.Attribute):
        return None
    attr = call.func.attr
    receiver = (dotted_name(call.func.value) or "").lower()
    if attr.lstrip("_") == "sleep":
        return "sleep()"
    if attr in ("execute", "executemany", "executescript", "commit", "rollback"):
        if any(token in receiver for token in _DB_RECEIVERS):
            return f"sqlite {attr}()"
    if attr in ("recv", "recv_bytes", "send", "send_bytes"):
        if any(token in receiver for token in _PIPE_RECEIVERS):
            return f"pipe {attr}()"
    if attr in ("request", "getresponse", "read_reply") and "conn" in receiver:
        return f"http {attr}()"  # a client connection's round trip
    if attr == "sendall" and any(token in receiver for token in ("conn", "sock")):
        return "socket sendall()"
    if attr == "join" and not _has_timeout(call):
        if any(token in receiver for token in _PROC_RECEIVERS):
            return "join() without timeout"
    if attr == "wait" and not _has_timeout(call):
        return "wait() without timeout"
    if attr == "result" and not _has_timeout(call):
        if "fut" in receiver:
            return "future result() without timeout"
    if attr == "run_batch":
        return "pool dispatch run_batch()"
    return None


class _Walker:
    """One function's statement walk with the currently-held lock list."""

    def __init__(
        self,
        model: RepoModel,
        registry: StaticLockRegistry,
        analysis: _FunctionAnalysis,
        on_unresolved,
    ) -> None:
        self.model = model
        self.registry = registry
        self.analysis = analysis
        self.module = analysis.info.module
        self.env = TypeEnv(model, analysis.info)
        self.bindings = model.bindings[id(self.module)]
        self.on_unresolved = on_unresolved
        #: Every ``peers`` acquisition so far, for the sorted-loop check.
        self.peer_acquires: list[tuple[ast.AST, LockDecl]] = []

    def run(self) -> None:
        held: list[LockDecl] = []
        for stmt in self.analysis.info.node.body:
            self._visit_stmt(stmt, held)

    # -- traversal ------------------------------------------------------
    def _visit_stmt(self, stmt: ast.stmt, held: list[LockDecl]) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested definitions run later, not under these locks
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            base = len(held)
            for item in stmt.items:
                decl = self._resolve_lock(item.context_expr)
                if isinstance(decl, LockDecl):
                    self._record_acquire(decl, held, item.context_expr)
                    held.append(decl)
                else:
                    self._scan_expr(item.context_expr, held)
            for child in stmt.body:
                self._visit_stmt(child, held)
            del held[base:]  # releases scoped locks and enter_context ones
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_loop(stmt, [stmt.iter], held)
            return
        self._visit_children(stmt, held)

    def _visit_loop(
        self, loop: ast.AST, iters: list[ast.expr], held: list[LockDecl]
    ) -> None:
        """Walk a loop; note ``peers`` locks it leaves held unless it is sorted.

        Peers share one level, so only a common order (the sorted-name
        ``ExitStack`` of ``BudgetLedger.charge``) keeps two threads from
        taking the same siblings in opposite orders.  A lock taken and
        released within one iteration is never held beside a sibling.
        """
        before = list(held)
        start = len(self.peer_acquires)
        self._visit_children(loop, held)
        if all(_is_sorted(iterable) for iterable in iters):
            return
        flagged = {id(node) for node, _ in self.analysis.unsorted}
        for node, decl in self.peer_acquires[start:]:
            if held.count(decl) > before.count(decl) and id(node) not in flagged:
                self.analysis.unsorted.append((node, decl))
                flagged.add(id(node))

    def _visit_children(self, node: ast.AST, held: list[LockDecl]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._visit_stmt(child, held)
            elif isinstance(child, ast.expr):
                self._scan_expr(child, held)
            else:
                self._visit_children(child, held)

    def _scan_expr(self, expr: ast.AST | None, held: list[LockDecl]) -> None:
        if expr is None or isinstance(expr, ast.Lambda):
            return
        if isinstance(expr, _COMPREHENSIONS):
            self._visit_loop(expr, [gen.iter for gen in expr.generators], held)
            return
        if isinstance(expr, ast.Call):
            self._handle_call(expr, held)
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_expr(child, held)
            else:
                self._visit_children(child, held)

    # -- events ---------------------------------------------------------
    def _record_acquire(
        self, decl: LockDecl, held: list[LockDecl], node: ast.AST
    ) -> None:
        self.analysis.acq.add(decl.key)
        self.analysis.events.append(
            _Event(kind="acquire", held=tuple(held), node=node, decl=decl)
        )

    def _handle_call(self, call: ast.Call, held: list[LockDecl]) -> None:
        func = call.func
        # ExitStack.enter_context(<lock>) acquires for the rest of the block.
        if isinstance(func, ast.Attribute) and func.attr == "enter_context":
            if call.args:
                decl = self._resolve_lock(call.args[0])
                if isinstance(decl, LockDecl):
                    self._record_acquire(decl, held, call.args[0])
                    self._note_peer(decl, call)
                    held.append(decl)
                    return
        # Explicit lock.acquire()/lock.release().
        if isinstance(func, ast.Attribute) and func.attr in ("acquire", "release"):
            decl = self._resolve_lock(func.value, lockish_only=True)
            if isinstance(decl, LockDecl):
                if func.attr == "acquire":
                    self._record_acquire(decl, held, call)
                    self._note_peer(decl, call)
                    held.append(decl)
                else:
                    for index in range(len(held) - 1, -1, -1):
                        if held[index].key == decl.key:
                            del held[index]
                            break
                return
        desc = _classify_blocking(call, self.bindings)
        if desc is not None:
            self.analysis.block.add(desc)
            self.analysis.events.append(
                _Event(kind="block", held=tuple(held), node=call, desc=desc)
            )
        resolved = self.env.resolve_call(call)
        if resolved is not None and isinstance(
            resolved.node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            self.analysis.calls.add(resolved.qualname)
            self.analysis.events.append(
                _Event(
                    kind="call",
                    held=tuple(held),
                    node=call,
                    callee=resolved.qualname,
                    callee_short=resolved.short,
                )
            )

    def _note_peer(self, decl: LockDecl, node: ast.AST) -> None:
        if decl.peers:
            self.peer_acquires.append((node, decl))

    # -- lock resolution ------------------------------------------------
    def _resolve_lock(self, expr: ast.AST, lockish_only: bool = False):
        """A LockDecl, None (not a lock), or _UNRESOLVED (lock-ish, unknown)."""
        if isinstance(expr, ast.Name):
            key = self.registry.global_index.get((self.module.relpath, expr.id))
            if key is not None:
                return self.registry.decls[key]
            if not _is_lockish_name(expr.id):
                return None
            return self._fallback(expr.id, expr)
        if isinstance(expr, ast.Attribute):
            attr = expr.attr
            receiver = self.env.infer(expr.value)
            info = self.model.class_info(receiver)
            if info is not None:
                for cls in self.model.mro(info):
                    key = self.registry.attr_index.get((cls.name, attr))
                    if key is not None:
                        return self.registry.decls[key]
                    alias = cls.properties.get(attr)
                    if alias is not None:
                        key = self.registry.attr_index.get((cls.name, alias))
                        if key is not None:
                            return self.registry.decls[key]
            if not _is_lockish_name(attr):
                return None
            return self._fallback(attr, expr)
        return None

    def _fallback(self, name: str, node: ast.AST):
        line_text = self.module.source_line(getattr(node, "lineno", 0))
        match = _INLINE_KEY_RE.search(line_text)
        if match is not None and match.group(1) in self.registry.decls:
            return self.registry.decls[match.group(1)]
        candidates = self.registry.fallback.get(name)
        if candidates is not None and len(candidates) == 1:
            return self.registry.decls[next(iter(candidates))]
        # Property names that alias a uniquely-declared attribute.
        alias_hits = {
            self.registry.attr_index[(cls_name, aliased)]
            for infos in self.model.classes.values()
            for info in infos
            for cls_name, aliased in [(info.name, info.properties.get(name, ""))]
            if aliased and (cls_name, aliased) in self.registry.attr_index
        }
        if len(alias_hits) == 1:
            return self.registry.decls[next(iter(alias_hits))]
        self.on_unresolved(self.module, node, name)
        return _UNRESOLVED


# ---------------------------------------------------------------------------
# Cycle detection (pure; property-tested with random DAGs)
# ---------------------------------------------------------------------------
def find_cycles(adjacency: dict[str, Iterable[str]]) -> list[list[str]]:
    """Every elementary lock-order cycle, as node lists (first node smallest).

    Tarjan SCC over the directed graph; each SCC of size > 1 is reported as
    one cycle (a deterministic walk around the component), and a self-loop
    is a cycle of length 1.  A DAG yields ``[]``.
    """
    graph = {node: sorted(set(targets)) for node, targets in adjacency.items()}
    for targets in list(graph.values()):
        for target in targets:
            graph.setdefault(target, [])
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        # Iterative Tarjan: (node, iterator position) frames.
        work = [(root, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            targets = graph[node]
            for offset in range(pos, len(targets)):
                target = targets[offset]
                if target not in index:
                    work.append((node, offset + 1))
                    work.append((target, 0))
                    recurse = True
                    break
                if target in on_stack:
                    lowlink[node] = min(lowlink[node], index[target])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in graph[node]:
                    components.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return sorted(components)


# ---------------------------------------------------------------------------
# The whole-repo analysis
# ---------------------------------------------------------------------------
@dataclass
class ConcurrencyAnalysis:
    """Everything the CLI needs: issues, the registry, and the order graph."""

    model: RepoModel
    registry: StaticLockRegistry
    issues: list[LintIssue]  #: suppression comments applied
    edges: dict[str, dict[str, str]]  #: held key -> acquired key -> first site


def _order_violation(
    held: tuple[LockDecl, ...], decl: LockDecl
) -> str | None:
    """Why acquiring ``decl`` while holding ``held`` breaks the hierarchy."""
    if not held:
        return None
    if any(entry.key == decl.key for entry in held):
        if decl.reentrant:
            return None
        return (
            f"non-reentrant lock {decl.key!r} re-acquired while already "
            f"held (self-deadlock)"
        )
    ceiling = max(entry.level for entry in held)
    if decl.level > ceiling:
        return None
    if decl.level == ceiling and decl.peers:
        if all(entry.key == decl.key for entry in held if entry.level == ceiling):
            return None
    chain = " -> ".join(f"{entry.key}@{entry.level}" for entry in held)
    return (
        f"lock {decl.key!r} (level {decl.level}) acquired while holding "
        f"[{chain}]; the hierarchy requires strictly increasing levels"
    )


def build_concurrency_analysis(
    paths: Iterable[Path], root: Path, model: RepoModel | None = None
) -> ConcurrencyAnalysis:
    """Run the R008/R009 analysis; suppression comments are honoured."""
    if model is None:
        model = RepoModel(load_modules(paths, root)[0])
    registry = StaticLockRegistry()
    collector = _DeclCollector(model, registry)
    collector.collect()
    issues = list(collector.issues)

    unresolved_sites: set[tuple[str, int]] = set()

    def on_unresolved(module: ModuleSource, node: ast.AST, name: str) -> None:
        line = getattr(node, "lineno", 1)
        if (module.relpath, line) in unresolved_sites:
            return
        unresolved_sites.add((module.relpath, line))
        emit(
            module,
            node,
            "R008",
            f"cannot resolve lock-like acquisition {name!r} to a declared "
            f"lock; declare it via ordered_lock() or add an inline "
            f"'# lock: <key>' comment",
        )

    def emit(module: ModuleSource, node: ast.AST, rule: str, message: str) -> None:
        issues.append(LintIssue.at(rule, module, node, message))

    analyses: dict[str, _FunctionAnalysis] = {}
    for functions in (model.functions, model.methods):
        for infos in functions.values():
            for info in infos:
                if info.qualname in analyses:
                    continue
                analysis = _FunctionAnalysis(info=info)
                analyses[info.qualname] = analysis
                _Walker(model, registry, analysis, on_unresolved).run()

    # Fixpoint: transitive acquisition and blocking-op summaries.
    changed = True
    while changed:
        changed = False
        for analysis in analyses.values():
            for callee in analysis.calls:
                summary = analyses.get(callee)
                if summary is None:
                    continue
                if not summary.acq <= analysis.acq:
                    analysis.acq |= summary.acq
                    changed = True
                if not summary.block <= analysis.block:
                    analysis.block |= summary.block
                    changed = True

    edges: dict[str, dict[str, str]] = {}

    def add_edge(held: LockDecl, acquired_key: str, site: str) -> None:
        if held.key == acquired_key:
            return
        edges.setdefault(held.key, {}).setdefault(acquired_key, site)

    for analysis in analyses.values():
        module = analysis.info.module
        for node, decl in analysis.unsorted:
            emit(
                module,
                node,
                "R008",
                f"peer lock {decl.key!r} acquired in a loop that does not "
                f"iterate sorted(...); siblings taken in two orders can deadlock",
            )
        for event in analysis.events:
            if not event.held:
                continue
            site = f"{module.relpath}:{getattr(event.node, 'lineno', 1)}"
            not_io_ok = [entry for entry in event.held if not entry.io_ok]
            if event.kind == "acquire" and event.decl is not None:
                reason = _order_violation(event.held, event.decl)
                if reason is not None:
                    emit(module, event.node, "R008", reason)
                for entry in event.held:
                    add_edge(entry, event.decl.key, site)
            elif event.kind == "block" and event.desc is not None:
                if not_io_ok:
                    names = ", ".join(
                        sorted({entry.key for entry in not_io_ok})
                    )
                    emit(
                        module,
                        event.node,
                        "R009",
                        f"blocking call {event.desc} while holding "
                        f"lock(s) [{names}] not declared io-ok",
                    )
            elif event.kind == "call" and event.callee is not None:
                summary = analyses.get(event.callee)
                if summary is None:
                    continue
                for key in sorted(summary.acq):
                    decl = registry.decls.get(key)
                    if decl is None:
                        continue
                    reason = _order_violation(event.held, decl)
                    if reason is not None:
                        emit(
                            module,
                            event.node,
                            "R008",
                            f"{reason} (acquired via call to "
                            f"{event.callee_short}())",
                        )
                    for entry in event.held:
                        add_edge(entry, key, site)
                if summary.block and not_io_ok:
                    names = ", ".join(sorted({entry.key for entry in not_io_ok}))
                    ops = ", ".join(sorted(summary.block)[:3])
                    emit(
                        module,
                        event.node,
                        "R009",
                        f"call to {event.callee_short}() may block ({ops}) "
                        f"while holding lock(s) [{names}] not declared io-ok",
                    )

    return ConcurrencyAnalysis(
        model=model,
        registry=registry,
        issues=sort_issues(unsuppressed(issues, model.modules)),
        edges=edges,
    )


def lock_cycles(analysis: ConcurrencyAnalysis) -> list[list[str]]:
    """Cycles of the observed order graph: potential deadlocks.

    A self-loop of a re-entrant or ``peers`` lock is not one.  Every cycle
    also holds an edge against the declared levels, an R008 finding.
    """
    edges = {held: set(targets) for held, targets in analysis.edges.items()}
    return [
        cycle
        for cycle in find_cycles(edges)
        if len(cycle) > 1
        or not (
            (decl := analysis.registry.decls.get(cycle[0])) is not None
            and (decl.reentrant or decl.peers)
        )
    ]


def render_lock_report(analysis: ConcurrencyAnalysis) -> str:
    """The ``repro locks`` output: hierarchy table + observed order graph."""
    lines: list[str] = []
    decls = sorted(
        analysis.registry.decls.values(), key=lambda decl: (decl.level, decl.key)
    )
    lines.append(f"Lock hierarchy ({len(decls)} declared locks)")
    lines.append(f"{'level':>5}  {'key':<24} {'kind':<6} {'flags':<18} declared at")
    for decl in decls:
        flags = " ".join(
            flag
            for flag, on in (
                ("reentrant", decl.reentrant),
                ("peers", decl.peers),
                ("io-ok", decl.io_ok),
            )
            if on
        )
        owner = f"{decl.owner}." if decl.owner else ""
        lines.append(
            f"{decl.level:>5}  {decl.key:<24} {decl.kind:<6} {flags:<18} "
            f"{decl.path}:{decl.line} ({owner}{decl.attr})"
        )
    lines.append("")
    edge_count = sum(len(targets) for targets in analysis.edges.values())
    lines.append(f"Observed acquisition-order edges ({edge_count})")
    for source in sorted(analysis.edges):
        source_decl = analysis.registry.decls.get(source)
        source_level = source_decl.level if source_decl else "?"
        for target, site in sorted(analysis.edges[source].items()):
            target_decl = analysis.registry.decls.get(target)
            target_level = target_decl.level if target_decl else "?"
            lines.append(
                f"  {source}@{source_level} -> {target}@{target_level}"
                f"  [{site}]"
            )
    cycles = lock_cycles(analysis)
    lines.append("")
    if cycles:
        lines.append(f"CYCLES ({len(cycles)}) — potential deadlocks:")
        for cycle in cycles:
            lines.append("  " + " -> ".join([*cycle, cycle[0]]))
    else:
        lines.append("No cycles: the observed order graph is a DAG.")
    return "\n".join(lines)
