"""Source annotations consumed by the static-analysis suite.

The lint rules of :mod:`repro.analysis.lint` are *opt-in per declaration*:
code states its own invariants with lightweight annotations and the checkers
enforce them mechanically.  Three kinds of annotation exist:

``@hot_path``
    A no-op decorator marking a function as part of the steady-state
    streaming hot path.  Inside such a function the *hot-path allocation*
    checker forbids per-call batch allocations (``np.stack`` /
    ``np.concatenate`` / ``np.array``, list-append loops, dtype-less
    ``np.zeros`` / ``np.empty``): hot-path buffers must come from grow-only
    arenas (:class:`repro.arena.ArenaPool`, as
    ``InferenceEngine._stage_codewords`` uses) so steady-state inference
    performs no large allocations.

``# guarded-by: <lock_attr>`` (comment)
    Placed on an instance-attribute assignment (normally in ``__init__``),
    declares that every later read or write of that attribute must happen
    inside a ``with self.<lock_attr>:`` block.  The *lock discipline* checker
    walks the AST scope chain to enforce it; the runtime validator
    (:mod:`repro.analysis.runtime`) enforces the same declarations
    dynamically under the concurrency stress tests.

``# lint: dtype-strict`` (module comment)
    Activates the *dtype contract* checker for a whole module: no
    ``np.float64`` / ``dtype=float`` literals, no dtype-less array
    constructors -- the fp32 compute paths must never silently upcast.

Suppressions use ``# lint: disable=<rule> -- <justification>`` on the
offending line; the justification is mandatory (an unjustified suppression
is itself a violation).
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)

#: Attribute set on functions decorated with :func:`hot_path` (runtime
#: introspection; the static checker matches the decorator name instead).
HOT_PATH_ATTRIBUTE = "__repro_hot_path__"

#: Comment prefix declaring a lock-guarded attribute.
GUARDED_BY_PREFIX = "guarded-by:"

#: Module-level marker comment activating the dtype-contract checker.
DTYPE_STRICT_MARKER = "lint: dtype-strict"

#: Comment prefix of an inline rule suppression.
SUPPRESS_PREFIX = "lint: disable="


def hot_path(func: F) -> F:
    """Mark ``func`` as steady-state hot-path code (no-op at runtime).

    The decorator only tags the function object; all enforcement is done by
    the static checker (:mod:`repro.analysis.lint.checkers.hotpath`), so the
    decorated function carries zero call overhead.
    """
    setattr(func, HOT_PATH_ATTRIBUTE, True)
    return func


def is_hot_path(func: Callable) -> bool:
    """Whether ``func`` was decorated with :func:`hot_path`."""
    return bool(getattr(func, HOT_PATH_ATTRIBUTE, False))


__all__ = [
    "DTYPE_STRICT_MARKER",
    "GUARDED_BY_PREFIX",
    "HOT_PATH_ATTRIBUTE",
    "SUPPRESS_PREFIX",
    "hot_path",
    "is_hot_path",
]
