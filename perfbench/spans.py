"""Spans around calls into walkforge's public functions, for the traced run.

The tracer wraps the public functions of the `graph`, `walks`,
`incremental`, `embedding` and `evaluation` modules in place, so calls the
library makes internally (segment_schedule -> apply_batch, unbiased_update
-> plan_update / WalkCorpus.copy, train -> context_pairs) are recorded as
child spans too. Spans stay in memory; `write` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int             # shared by every span of one benchmark operation
    size: int | None    # work items handled (rows, walks, pairs), if known


def _len_arg(i):
    return lambda args, result: len(args[i])


def _len_result(args, result):
    return len(result)


def public_calls():
    """(owner, attribute, layer, sizer) for every call the tracer wraps."""
    from walkforge import embedding, evaluation, graph, incremental, walks

    return [
        (graph, "read_edge_csv", "graph", _len_result),
        (graph, "ingest_edges", "graph", _len_arg(0)),
        (graph, "apply_batch", "graph", _len_arg(1)),
        (graph, "segment_schedule", "graph", _len_arg(0)),
        (graph, "save_graph", "graph", None),
        (graph, "load_graph", "graph", None),
        (walks, "generate_corpus", "walks", _len_result),
        (walks.WalkCorpus, "copy", "walks", _len_result),
        (incremental, "plan_update", "incremental", None),
        (incremental, "unbiased_update", "incremental", _len_result),
        (embedding, "context_pairs", "embedding", _len_result),
        (embedding, "train", "embedding", None),
        (evaluation, "empirical_transitions", "evaluation", None),
        (evaluation, "theoretical_transitions", "evaluation", None),
        (evaluation, "delta_mae", "evaluation", None),
        (evaluation, "classify_eval", "evaluation", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = 0
        self._saved = []

    def begin(self, name: str, layer: str, op: int | None = None) -> int:
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0,
                               parent, self._op, None))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int, size: int | None = None):
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.size = size
        self._stack.pop()

    def _wrap(self, fn, name, layer, sizer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, sizer(args, result) if sizer and result is not None
                         else None)
        return traced

    def install(self):
        for owner, attr, layer, sizer in public_calls():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            name = (f"{layer}.{owner.__name__}.{attr}" if isinstance(owner, type)
                    else f"{layer}.{attr}")
            setattr(owner, attr, self._wrap(fn, name, layer, sizer))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans, base: int = 0) -> dict:
    """Per-layer self time: each span's duration minus its children's.

    `spans` is a slice of Tracer.spans starting at index `base`, holding
    whole operations, so every parent index falls inside it."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent - base] += s.end - s.start
    out = {}
    for s, inner in zip(spans, child_time):
        out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start) - inner
    return out
