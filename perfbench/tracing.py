"""Spans recorded by the benchmark around its calls into briberysim.

A span has a name, a start and an end (``perf_counter_ns``), the index of
its parent span and the id of the operation it belongs to. Spans stay in
memory and are written out once, when the run ends. Rounds always go through
a tracer object; the untraced runs use `NullTracer`, whose calls do no
bookkeeping, so traced and untraced rounds run the same benchmark code.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class NullTracer:
    """Calls straight through; used for every untraced round."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, name):
        return _NULL_OP


class _NullOp:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_OP = _NullOp()


class Tracer:
    """Records one span per call, nested under the operation that made it."""

    def __init__(self):
        # (name, start_ns, end_ns, parent_index or None, op_id); None while open
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._op_id = 0

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent, perf_counter_ns()

    def _close(self, name, index, parent, start):
        end = perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self._op_id)

    def call(self, name, fn, *args, **kwargs):
        index, parent, start = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, index, parent, start)

    def op(self, name):
        """Root span of one benchmark operation; it gets a fresh op id."""
        return _Op(self, name)

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, total self time in ns).

        A span's self time is its duration minus the durations of its
        direct children, so nested layer calls are not counted twice.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start - children
        return {name: (calls, ns) for name, (calls, ns) in totals.items()}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )


class _Op:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = "op." + name

    def __enter__(self):
        self._tracer._op_id += 1
        self._state = self._tracer._open(self._name)
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._name, *self._state)
        return False
