"""In-memory span recorder for the traced benchmark pass.

Spans are placed by the benchmark around calls into each layer's public
functions; the program itself is never instrumented.  A span is a name, a
start and end (``perf_counter_ns``), the index of its parent span (``-1`` at
the top level) and a batch id (``-1`` when it belongs to no batch).  Spans
stay in memory until :meth:`Tracer.write` dumps them at the end of the run.

A span's *self* time is its duration minus the durations of its direct
children and minus any time attributed to it with :meth:`Tracer.attribute`
(used for the per-layer CNN timings that ``Sequential.profile()`` measures
inside ``classifier.predict``).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List


class _Span:
    """Context manager that closes one recorded span."""

    __slots__ = ("_tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self._tracer = tracer
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        tracer.ends[self.index] = time.perf_counter_ns()
        tracer._stack.pop()


class _NoSpan:
    """The span :class:`NullTracer` hands out: records nothing."""

    index = -1

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NO_SPAN = _NoSpan()


class NullTracer:
    """Tracing off: the same calls as :class:`Tracer`, nothing recorded."""

    def span(self, name: str, batch: int = -1) -> _NoSpan:
        return _NO_SPAN

    def attribute(self, index: int, child: str, ns: int) -> None:
        return None


class Tracer:
    """Records nested spans; ``with tracer.span("layer", batch): ...``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.batches: List[int] = []
        #: Time measured inside a span by the program itself, keyed by span
        #: index: ``{index: {child_name: ns}}``.
        self.attributed: Dict[int, Dict[str, int]] = {}
        self._stack: List[int] = []

    @classmethod
    def from_dump(cls, dump: dict) -> "Tracer":
        """Rebuild a tracer from what :meth:`write` wrote (to recompute self times)."""
        tracer = cls()
        for index, span in enumerate(dump["spans"]):
            tracer.names.append(span["name"])
            tracer.starts.append(span["start_ns"])
            tracer.ends.append(span["end_ns"])
            tracer.parents.append(span["parent"])
            tracer.batches.append(span["batch"])
            if "attributed_ns" in span:
                tracer.attributed[index] = dict(span["attributed_ns"])
        return tracer

    def span(self, name: str, batch: int = -1) -> _Span:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.batches.append(batch)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return _Span(self, index)

    def attribute(self, index: int, child: str, ns: int) -> None:
        """Charge ``ns`` measured inside span ``index`` to ``child``."""
        self.attributed.setdefault(index, {})[child] = ns

    def self_ns(self) -> List[int]:
        """Self time of every span, in recording order."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        for index, children in self.attributed.items():
            own[index] -= sum(children.values())
        return own

    def totals(self) -> Dict[str, List[int]]:
        """``{name: [calls, self_ns]}`` including attributed children."""
        totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        for name, own in zip(self.names, self.self_ns()):
            entry = totals[name]
            entry[0] += 1
            entry[1] += own
        for children in self.attributed.values():
            for child, ns in children.items():
                entry = totals[child]
                entry[0] += 1
                entry[1] += ns
        return dict(totals)

    def durations_ns(self, name: str) -> List[int]:
        """Durations of every span called ``name``."""
        return [
            end - start
            for span_name, start, end in zip(self.names, self.starts, self.ends)
            if span_name == name
        ]

    def write(self, path: Path, meta: dict) -> None:
        """Dump every span (times relative to the first span) plus ``meta``."""
        origin = self.starts[0] if self.starts else 0
        spans = [
            {
                "name": name,
                "start_ns": start - origin,
                "end_ns": end - origin,
                "parent": parent,
                "batch": batch,
                **({"attributed_ns": self.attributed[index]} if index in self.attributed else {}),
            }
            for index, (name, start, end, parent, batch) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.batches)
            )
        ]
        path.write_text(json.dumps({"meta": meta, "spans": spans}) + "\n")
