"""Hot-path allocation checker for ``@hot_path`` functions.

Functions decorated with :func:`repro.analysis.annotations.hot_path` are the
steady-state streaming hot path: after warm-up they must not allocate fresh
batch-sized buffers per call.  The inference forward keeps its scratch in
grow-only arenas (:class:`repro.arena.ArenaPool`), and so do the engine's
staging buffers: a multi-megabyte buffer freed per batch can be returned to
the OS and page-faulted back in by the next batch.  This checker keeps
per-call allocations from creeping back in:

``hot-path/banned-alloc``
    Calls to the NumPy batch constructors that always allocate
    (``np.stack``, ``np.concatenate``, ``np.array``, ``np.vstack``,
    ``np.hstack``, ``np.dstack``, ``np.column_stack``, ``np.append``).
    Use an arena buffer or a preallocated ``out=`` target instead
    (``np.asarray`` is fine -- it does not copy an existing array).

``hot-path/missing-dtype``
    ``np.zeros`` / ``np.empty`` / ``np.ones`` / ``np.full`` without an
    explicit dtype: the default is float64, which silently doubles memory
    traffic and upcasts downstream arithmetic on the fp32 paths.

``hot-path/list-append-in-loop``
    ``<local>.append(...)`` / ``<local>.extend(...)`` inside a ``for`` /
    ``while`` loop: per-item Python-level accumulation is exactly the
    per-frame overhead the batched engine exists to avoid.  Preallocate the
    result (``[None] * n``) or use a comprehension (one bulk allocation).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.lint.framework import (
    Checker,
    SourceFile,
    Violation,
    register_checker,
)

#: NumPy callables that always allocate a fresh batch-sized array.
BANNED_NUMPY_CALLS = (
    "stack",
    "concatenate",
    "array",
    "vstack",
    "hstack",
    "dstack",
    "column_stack",
    "append",
)

#: NumPy constructors that default to float64 when no dtype is given.
DTYPE_REQUIRED_CALLS = ("zeros", "empty", "ones", "full")


def is_hot_path_function(node: ast.AST) -> bool:
    """Whether ``node`` is a function decorated with ``@hot_path``."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "hot_path":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "hot_path":
            return True
    return False


def numpy_call_name(source: SourceFile, call: ast.Call) -> Optional[str]:
    """The attribute name when ``call`` is ``np.<name>(...)``, else ``None``."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in source.numpy_aliases:
            return func.attr
    return None


def has_dtype_argument(call: ast.Call) -> bool:
    """Whether a NumPy constructor call pins its dtype explicitly."""
    if any(keyword.arg == "dtype" for keyword in call.keywords):
        return True
    # np.zeros(shape, dtype) / np.full(shape, fill, dtype) positional forms.
    positional_dtype_index = 2 if _call_name(call) == "full" else 1
    return len(call.args) > positional_dtype_index


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


@register_checker
class HotPathAllocationChecker(Checker):
    family = "hot-path"
    rules = {
        "hot-path/banned-alloc": (
            "an always-allocating NumPy batch constructor is called inside "
            "a @hot_path function"
        ),
        "hot-path/missing-dtype": (
            "a dtype-less np.zeros/np.empty/np.ones/np.full inside a "
            "@hot_path function (defaults to float64)"
        ),
        "hot-path/list-append-in-loop": (
            "per-item list append/extend inside a loop in a @hot_path "
            "function"
        ),
    }

    def check(self, source: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(source.tree):
            if is_hot_path_function(node):
                yield from self._check_function(source, node)

    def _check_function(
        self, source: SourceFile, function: ast.FunctionDef
    ) -> Iterator[Violation]:
        local_lists = self._local_sequence_names(function)
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            name = numpy_call_name(source, node)
            if name in BANNED_NUMPY_CALLS:
                yield Violation(
                    rule="hot-path/banned-alloc",
                    path=source.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"np.{name}() allocates a fresh array on every call; "
                        f"stage through a grow-only arena buffer "
                        "(ArenaPool.get) or write into a "
                        f"preallocated out= target"
                    ),
                )
                continue
            if name in DTYPE_REQUIRED_CALLS and not has_dtype_argument(node):
                yield Violation(
                    rule="hot-path/missing-dtype",
                    path=source.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"np.{name}() without an explicit dtype defaults to "
                        f"float64 on the hot path; pass dtype= explicitly"
                    ),
                )
                continue
            yield from self._check_append(source, node, local_lists)

    def _check_append(
        self, source: SourceFile, call: ast.Call, local_lists: Set[str]
    ) -> Iterator[Violation]:
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in ("append", "extend")
            and isinstance(func.value, ast.Name)
            and func.value.id in local_lists
        ):
            return
        for ancestor in source.parent_chain(call):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return
            if isinstance(ancestor, (ast.For, ast.While)):
                yield Violation(
                    rule="hot-path/list-append-in-loop",
                    path=source.path,
                    line=call.lineno,
                    col=call.col_offset,
                    message=(
                        f"'{func.value.id}.{func.attr}' grows a list "
                        f"per iteration on the hot path; preallocate "
                        f"('[None] * n') or build it with one comprehension"
                    ),
                )
                return

    @staticmethod
    def _local_sequence_names(function: ast.FunctionDef) -> Set[str]:
        """Local names bound to a fresh list/deque in this function."""
        names: Set[str] = set()
        for node in ast.walk(function):
            value: Optional[ast.expr] = None
            target: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if isinstance(value, (ast.List, ast.ListComp)):
                names.add(target.id)
            elif isinstance(value, ast.Call) and _call_name(value) in (
                "list",
                "deque",
            ):
                names.add(target.id)
        return names
