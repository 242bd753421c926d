"""Dtype-contract checker for ``# lint: dtype-strict`` modules.

The fp32 compute backend (:mod:`repro.nn.compute`) holds the
invariant that no intermediate silently upcasts to float64: a single stray
``np.float64`` temporary doubles the memory traffic of a conv activation and
quietly erases the backend's speedup.  A module opts in with a

    # lint: dtype-strict

comment (anywhere in the file); the checker then flags:

``dtype/float64``
    Explicit float64 mentions: ``np.float64`` / ``np.double`` attributes,
    ``dtype=float`` / ``astype(float)`` (the ``float`` builtin *is*
    float64), and ``"float64"`` / ``"<f8"`` dtype strings.  Deliberate
    fp64 uses (the fp64 fallback for unsupported layer types) carry a
    justified suppression instead.

``dtype/missing-dtype``
    Dtype-less array constructors (``np.zeros``, ``np.empty``, ``np.ones``,
    ``np.full``, ``np.arange``, ``np.linspace``, ``np.eye``) -- they all
    default to float64.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.annotations import DTYPE_STRICT_MARKER
from repro.analysis.lint.framework import (
    Checker,
    SourceFile,
    Violation,
    register_checker,
)
from repro.analysis.lint.checkers.hotpath import has_dtype_argument, numpy_call_name

#: Constructors that default to float64 without an explicit dtype.
DTYPE_DEFAULTING_CALLS = (
    "zeros",
    "empty",
    "ones",
    "full",
    "arange",
    "linspace",
    "eye",
)

#: String spellings of the float64 dtype.
FLOAT64_STRINGS = ("float64", "<f8", ">f8", "f8", "double")


def _is_float64_expression(source: SourceFile, node: ast.AST) -> bool:
    """Whether ``node`` spells the float64 dtype."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (
            node.value.id in source.numpy_aliases
            and node.attr in ("float64", "double")
        )
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in FLOAT64_STRINGS
    return False


@register_checker
class DtypeContractChecker(Checker):
    family = "dtype"
    rules = {
        "dtype/float64": (
            "an explicit float64 dtype in a dtype-strict module (fp32 "
            "paths must not upcast)"
        ),
        "dtype/missing-dtype": (
            "a dtype-less array constructor in a dtype-strict module "
            "(defaults to float64)"
        ),
    }

    def check(self, source: SourceFile) -> Iterator[Violation]:
        if not source.has_marker(DTYPE_STRICT_MARKER):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            violation = self._check_call(source, node)
            if violation is not None:
                yield violation

    def _check_call(
        self, source: SourceFile, call: ast.Call
    ) -> Optional[Violation]:
        name = numpy_call_name(source, call)
        if name in DTYPE_DEFAULTING_CALLS and not has_dtype_argument(call):
            return Violation(
                rule="dtype/missing-dtype",
                path=source.path,
                line=call.lineno,
                col=call.col_offset,
                message=(
                    f"np.{name}() without an explicit dtype defaults to "
                    f"float64; this module is dtype-strict, pass dtype= "
                    f"explicitly"
                ),
            )
        # dtype= keyword or astype(...) argument spelling float64.
        candidates = [
            keyword.value for keyword in call.keywords if keyword.arg == "dtype"
        ]
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            candidates.extend(call.args[:1])
        for candidate in candidates:
            if _is_float64_expression(source, candidate):
                return Violation(
                    rule="dtype/float64",
                    path=source.path,
                    line=candidate.lineno,
                    col=candidate.col_offset,
                    message=(
                        "explicit float64 dtype in a dtype-strict module; "
                        "the fp32 compute paths must stay in their "
                        "declared precision (suppress with a justification "
                        "for deliberate fp64 fallbacks)"
                    ),
                )
        return None
