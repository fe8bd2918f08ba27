"""A lightweight whole-repo static model shared by the flow analyzers.

:mod:`repro.lint.concurrency` (lock-order/deadlock verification) and
:mod:`repro.lint.flow` (privacy taint tracking) both need to answer the same
interprocedural questions: *which function does this call resolve to?* and
*what type does this expression have?*  This module builds the minimal model
that makes those answers reliable for this codebase's idioms:

* every class with its methods, base classes, and the types of its
  ``self.<attr>`` attributes — inferred from ``self.x = SomeClass(...)``
  constructor assignments, from ``self.x = param`` where the parameter is
  annotated (string annotations like ``"LedgerStore | None"`` included), and
  from ``self.x: T`` annotated assignments;
* property aliases (``@property def lock(self): return self._lock``), so an
  acquisition through the public property resolves to the declared lock;
* function parameter and return annotations, so ``registry.get(name)`` is
  known to produce a ``HostedSession`` and attribute chains like
  ``hosted.session.measure_lock`` resolve end to end.

The model is deliberately *unsound where python is dynamic* — an unresolved
call is simply skipped by the analyzers — but every lock-relevant idiom used
in this repository resolves, which the fixture suite pins down.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from .engine import ModuleSource

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "RepoModel",
    "TypeEnv",
    "annotation_identifiers",
    "dotted_name",
    "import_bindings",
]

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_bindings(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted path they import.

    Unlike the per-rule helper in :mod:`repro.lint.rules`, relative imports
    are kept (``from ..sanitize import ordered_lock`` binds ``ordered_lock``
    to ``sanitize.ordered_lock``): the analyzers only ever match on dotted
    *suffixes*, so the anchor package is irrelevant.
    """
    bindings: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    bindings[root] = root
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").lstrip(".")
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{module}.{alias.name}" if module else alias.name
                bindings[alias.asname or alias.name] = target
    return bindings


def annotation_identifiers(node: ast.AST | None) -> list[str]:
    """Every identifier mentioned by an annotation (quoted forms included)."""
    if node is None:
        return []
    names: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.extend(_IDENTIFIER_RE.findall(sub.value))
    return names


@dataclass
class FunctionInfo:
    """One function or method with its resolved annotations."""

    module: ModuleSource
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: "ClassInfo | None"
    name: str
    qualname: str  #: ``path.py:Class.method`` or ``path.py:function``
    param_names: list[str] = field(default_factory=list)
    annotations: dict[str, ast.AST | None] = field(default_factory=dict)
    returns: ast.AST | None = None

    @property
    def short(self) -> str:
        owner = f"{self.cls.name}." if self.cls is not None else ""
        return f"{owner}{self.name}"


@dataclass
class ClassInfo:
    """One class: methods, bases, attribute types, property aliases."""

    module: ModuleSource
    node: ast.ClassDef
    name: str
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.attr`` -> inferred type name (class name, or ``dict:<V>``).
    attr_types: dict[str, str] = field(default_factory=dict)
    #: property name -> the ``self._attr`` it returns.
    properties: dict[str, str] = field(default_factory=dict)


class RepoModel:
    """The classes and functions of every module handed to the analyzers."""

    def __init__(self, modules: list[ModuleSource]) -> None:
        self.modules = modules
        self.classes: dict[str, list[ClassInfo]] = {}
        self.functions: dict[str, list[FunctionInfo]] = {}
        self.methods: dict[str, list[FunctionInfo]] = {}
        self.bindings: dict[int, dict[str, str]] = {}
        for module in modules:
            self._collect(module)
        for infos in self.classes.values():
            for info in infos:
                self._infer_attr_types(info)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _collect(self, module: ModuleSource) -> None:
        self.bindings[id(module)] = import_bindings(module.tree)
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                self._collect_class(module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._function(module, node, None)
                self.functions.setdefault(node.name, []).append(info)

    def _collect_class(self, module: ModuleSource, node: ast.ClassDef) -> None:
        info = ClassInfo(
            module=module,
            node=node,
            name=node.name,
            bases=[name for base in node.bases if (name := dotted_name(base))],
        )
        for child in node.body:
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = self._function(module, child, info)
            info.methods[child.name] = method
            self.methods.setdefault(child.name, []).append(method)
            alias = self._property_alias(child)
            if alias is not None:
                info.properties[child.name] = alias
        self.classes.setdefault(node.name, []).append(info)

    def _function(
        self,
        module: ModuleSource,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ClassInfo | None,
    ) -> FunctionInfo:
        owner = f"{cls.name}." if cls is not None else ""
        arguments = node.args
        params = [
            argument.arg
            for argument in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]
        ]
        annotations = {
            argument.arg: argument.annotation
            for argument in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]
        }
        return FunctionInfo(
            module=module,
            node=node,
            cls=cls,
            name=node.name,
            qualname=f"{module.relpath}:{owner}{node.name}",
            param_names=params,
            annotations=annotations,
            returns=node.returns,
        )

    @staticmethod
    def _property_alias(node: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
        decorated = any(
            isinstance(dec, ast.Name) and dec.id == "property"
            for dec in node.decorator_list
        )
        if not decorated:
            return None
        for stmt in node.body:
            if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Attribute):
                value = stmt.value
                if isinstance(value.value, ast.Name) and value.value.id == "self":
                    return value.attr
        return None

    # ------------------------------------------------------------------
    # Attribute-type inference
    # ------------------------------------------------------------------
    def _infer_attr_types(self, info: ClassInfo) -> None:
        for method in info.methods.values():
            annotations = method.annotations
            for stmt in ast.walk(method.node):
                target = None
                value = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value = stmt.target, stmt.value
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if attr in info.attr_types:
                    continue
                declared = None
                if isinstance(stmt, ast.AnnAssign):
                    declared = self.annotation_type(stmt.annotation)
                if declared is None and isinstance(value, ast.Call):
                    callee = dotted_name(value.func)
                    if callee is not None:
                        tail = callee.rsplit(".", 1)[-1]
                        if tail in self.classes:
                            declared = tail
                if declared is None and isinstance(value, ast.Name):
                    declared = self.annotation_type(annotations.get(value.id))
                if declared is not None:
                    info.attr_types[attr] = declared

    def _first_known_class(self, names: list[str]) -> str | None:
        for name in names:
            if name in self.classes:
                return name
        return None

    _DICT_BASES = frozenset(
        {"dict", "Dict", "Mapping", "MutableMapping", "defaultdict", "OrderedDict"}
    )

    def annotation_type(self, node: ast.AST | None) -> str | None:
        """The type an annotation names: a class, or ``dict:<V>`` for maps."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                return self.annotation_type(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            base = (dotted_name(node.value) or "").rsplit(".", 1)[-1]
            if base in self._DICT_BASES:
                inner = self._first_known_class(annotation_identifiers(node.slice))
                if inner is not None:
                    return f"dict:{inner}"
        return self._first_known_class(annotation_identifiers(node))

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def class_info(self, name: str | None) -> ClassInfo | None:
        if name is None:
            return None
        infos = self.classes.get(name)
        return infos[0] if infos else None

    def mro(self, info: ClassInfo) -> Iterator[ClassInfo]:
        """The class and its repo-local base classes (by name, breadth-first)."""
        seen = {info.name}
        queue = [info]
        while queue:
            current = queue.pop(0)
            yield current
            for base in current.bases:
                base_info = self.class_info(base.rsplit(".", 1)[-1])
                if base_info is not None and base_info.name not in seen:
                    seen.add(base_info.name)
                    queue.append(base_info)

    def find_method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        for candidate in self.mro(cls):
            if name in candidate.methods:
                return candidate.methods[name]
        return None

    def unique_method(self, name: str) -> FunctionInfo | None:
        """The only method in the repo with ``name``, if unambiguous."""
        candidates = self.methods.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def module_function(
        self, module: ModuleSource, name: str
    ) -> FunctionInfo | None:
        for candidate in self.functions.get(name, []):
            if candidate.module is module:
                return candidate
        return None


class TypeEnv:
    """Best-effort expression typing inside one function."""

    def __init__(self, model: RepoModel, function: FunctionInfo) -> None:
        self.model = model
        self.function = function
        self.locals: dict[str, str] = {}
        for param, annotation in function.annotations.items():
            declared = model.annotation_type(annotation)
            if declared is not None:
                self.locals[param] = declared
        # One ordered pass over assignments: good enough for straight-line
        # construction code, which is where typed locals get bound.
        assigns = [
            node
            for node in ast.walk(function.node)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
        ]
        for node in sorted(assigns, key=lambda item: item.lineno):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if len(targets) != 1 or not isinstance(targets[0], ast.Name):
                continue
            name = targets[0].id
            inferred = None
            if isinstance(node, ast.AnnAssign):
                inferred = model.annotation_type(node.annotation)
            if inferred is None and node.value is not None:
                inferred = self.infer(node.value)
            if inferred is not None:
                self.locals[name] = inferred

    def infer(self, expr: ast.AST) -> str | None:
        """The type name of ``expr`` (or ``dict:<V>``), else ``None``."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.function.cls is not None:
                return self.function.cls.name
            if expr.id in self.locals:
                return self.locals[expr.id]
            binding = self.model.bindings[id(self.function.module)].get(expr.id)
            if binding is not None:
                tail = binding.rsplit(".", 1)[-1]
                if tail in self.model.classes:
                    return tail
            return None
        if isinstance(expr, ast.Attribute):
            base = self.infer(expr.value)
            info = self.model.class_info(base)
            if info is None:
                return None
            for candidate in self.model.mro(info):
                if expr.attr in candidate.attr_types:
                    return candidate.attr_types[expr.attr]
                alias = candidate.properties.get(expr.attr)
                if alias is not None and alias in candidate.attr_types:
                    return candidate.attr_types[alias]
            return None
        if isinstance(expr, ast.Call):
            if (
                isinstance(expr.func, ast.Name)
                and expr.func.id == "dict"
                and len(expr.args) == 1
            ):
                return self.infer(expr.args[0])  # dict(x) is a shallow copy
            resolved = self.resolve_call(expr)
            if resolved is not None:
                if resolved.name == "__init__" and resolved.cls is not None:
                    return resolved.cls.name
                return self.model.annotation_type(resolved.returns)
            callee = dotted_name(expr.func)
            if callee is not None:
                tail = callee.rsplit(".", 1)[-1]
                if tail in self.model.classes:
                    return tail
            return None
        if isinstance(expr, ast.Subscript):
            base = self.infer(expr.value)
            if base is not None and base.startswith("dict:"):
                return base.split(":", 1)[1]
            return None
        if isinstance(expr, ast.IfExp):
            return self.infer(expr.body) or self.infer(expr.orelse)
        if isinstance(expr, ast.Await):
            return self.infer(expr.value)
        return None

    def resolve_call(self, call: ast.Call) -> FunctionInfo | None:
        """The repo function/method a call resolves to, if determinable."""
        func = call.func
        if isinstance(func, ast.Name):
            local = self.model.module_function(self.function.module, func.id)
            if local is not None:
                return local
            binding = self.model.bindings[id(self.function.module)].get(func.id)
            tail = (binding or func.id).rsplit(".", 1)[-1]
            candidates = self.model.functions.get(tail, [])
            if len(candidates) == 1:
                return candidates[0]
            if candidates:
                return None  # ambiguous across modules
            info = self.model.class_info(tail)
            if info is not None:
                ctor = self.model.find_method(info, "__init__")
                if ctor is not None:
                    return ctor
                # A class with no __init__ of its own still types as itself.
                return FunctionInfo(
                    module=info.module,
                    node=info.node,  # type: ignore[arg-type]
                    cls=info,
                    name="__init__",
                    qualname=f"{info.module.relpath}:{info.name}.__init__",
                )
            return None
        if isinstance(func, ast.Attribute):
            receiver = self.infer(func.value)
            info = self.model.class_info(receiver)
            if info is not None:
                method = self.model.find_method(info, func.attr)
                if method is not None:
                    return method
                return None
            dotted = dotted_name(func)
            if dotted is not None:
                binding = self.model.bindings[id(self.function.module)].get(
                    dotted.split(".", 1)[0]
                )
                if binding is not None:
                    # An imported module attribute: try module-level functions.
                    candidates = self.model.functions.get(func.attr, [])
                    if len(candidates) == 1:
                        return candidates[0]
            if func.attr in _GENERIC_METHOD_NAMES:
                return None  # dict.clear() must not hit a repo method
            return self.model.unique_method(func.attr)
        return None


#: Method names shared with the builtin collections/IO types: an attribute
#: call on an *untyped* receiver must never resolve to a repo method by
#: name-uniqueness alone for these, or ``some_dict.clear()`` binds to
#: whatever repo class happens to define ``clear``.
_GENERIC_METHOD_NAMES = frozenset(
    {
        "add", "append", "clear", "close", "copy", "count", "discard",
        "extend", "get", "index", "insert", "items", "join", "keys", "open",
        "pop", "popitem", "put", "read", "recv", "remove", "send",
        "setdefault", "sort", "update", "values", "write",
    }
)
