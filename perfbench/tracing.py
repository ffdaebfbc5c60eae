"""Spans around the benchmark's calls into the library, and the per-layer
metrics computed from them.

A span records its name, start, end, parent and the root it belongs to.
Each timed operation is one root span named after its kind; a traced
set-up is one root span named "setup". Spans stay in memory until the run
ends. A span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from scaled import RULE_IDS, rule_counts

SETUP = "setup"


def _inferred(closure) -> dict[str, int]:
    counts = rule_counts(closure)
    return {f"inferred.{rule}": counts.get(rule, 0) for rule in RULE_IDS}


# Work counts recorded at the same boundaries as the spans.
COUNTERS = {
    "turtle_io.parse_turtle": lambda r: {"triples": len(r.graph)},
    "reasoner.close": _inferred,
    "shapes.validate": lambda r: {"entries": len(r.entries)},
    "query.evaluate.cq": lambda r: {"solutions": len(r)},
    "query.evaluate.path": lambda r: {"solutions": len(r)},
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    root: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while `enabled`; when disabled, `call` only calls."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name) as index:
            result = fn(*args, **kwargs)
        counter = COUNTERS.get(name)
        if counter is not None:
            self.spans[index].counts = counter(result)
        return result

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[self._stack[0]].root if self._stack else index
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               root=root))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.root, "counts": s.counts}
                for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per layer: self ms, calls and work counts summed over one root.

    Each figure is the median over the timed operations that call the
    layer. When no operation calls it, the median over set-ups, so a layer
    that a workload only uses in set-up (or only in the x1 reference) is
    still measured there.
    """
    own = self_times(spans)
    per_root: dict[tuple[int, str], Counter] = {}
    for i, s in enumerate(spans):
        if s.parent is None:
            continue
        row = per_root.setdefault((s.root, s.name), Counter())
        row["ms"] += own[i] * 1000
        row["calls"] += 1
        row.update(s.counts)
    by_layer: dict[str, dict[bool, list[Counter]]] = {}
    for (root, name), row in per_root.items():
        in_setup = spans[root].name == SETUP
        by_layer.setdefault(name, {True: [], False: []})[in_setup].append(row)
    out: dict[str, float] = {}
    for name, rows in by_layer.items():
        chosen = rows[False] or rows[True]
        for key in set().union(*chosen):
            out[f"{name}.{key}"] = statistics.median(r[key] for r in chosen)
    return out


def span_durations_ms(spans: list[Span], name: str) -> list[float]:
    return [(s.end - s.start) * 1000 for s in spans if s.name == name]
