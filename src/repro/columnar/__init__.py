"""The columnar vectorized execution backend.

This package is the third execution engine behind the
:class:`~repro.core.executor.Executor` protocol, alongside the eager
evaluator and the incremental dataflow engine:

* :mod:`~repro.columnar.interning` — process-wide dictionary encoding of
  records/atoms into ``int64`` codes;
* :mod:`~repro.columnar.dataset` — :class:`ColumnarDataset`, weighted data as
  per-field code columns plus a ``float64`` weight vector;
* :mod:`~repro.columnar.specs` — introspectable record functions (field
  picks, permutations, join selectors) that behave as plain callables on
  every backend but compile to array operations here;
* :mod:`~repro.columnar.kernels` — vectorized implementations of all twelve
  stable transformations with eager-identical semantics;
* :mod:`~repro.columnar.executor` — :class:`VectorizedExecutor` (select it
  with ``PrivacySession(executor="vectorized")``) and :class:`AutoExecutor`
  (``executor="auto"``), which routes each plan by input size.
"""

from .interning import Interner, global_interner, set_global_interner, use_interner
from .specs import (
    ColumnarSpec,
    Constant,
    ExplodeFields,
    Field,
    FieldIs,
    FieldsDiffer,
    GroupSize,
    JoinFields,
    Permute,
)
from . import specs

#: Heavy pieces resolved lazily (PEP 562): the analyses import this package
#: for the spec vocabulary alone, and eager/dataflow-only sessions should not
#: pay for the kernels and executors.
_LAZY = {
    "ColumnarDataset": ("dataset", "ColumnarDataset"),
    "consolidate": ("dataset", "consolidate"),
    "row_groups": ("dataset", "row_groups"),
    "VectorizedExecutor": ("executor", "VectorizedExecutor"),
    "AutoExecutor": ("executor", "AutoExecutor"),
    "DEFAULT_AUTO_THRESHOLD": ("executor", "DEFAULT_AUTO_THRESHOLD"),
    "kernels": ("kernels", None),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{target[0]}", __name__)
    return module if target[1] is None else getattr(module, target[1])

__all__ = [
    "ColumnarDataset",
    "VectorizedExecutor",
    "AutoExecutor",
    "DEFAULT_AUTO_THRESHOLD",
    "Interner",
    "global_interner",
    "set_global_interner",
    "use_interner",
    "kernels",
    "specs",
    "ColumnarSpec",
    "Field",
    "Permute",
    "Constant",
    "JoinFields",
    "FieldsDiffer",
    "FieldIs",
    "ExplodeFields",
    "GroupSize",
]
