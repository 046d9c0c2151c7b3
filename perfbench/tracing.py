"""Spans around the benchmark's own calls into cogrelay.

A span records (name, start, end, parent, op id, error).  Spans are named
`<module>.<public function>`, except the `op.<kind>` span around each whole
op.  Calls the library makes internally (the closed form inside a qos or
dmt call, the 999 splits of `search_zeta`) are not visible from outside
`src/`; they are replayed in isolation after the op, and their time is
attributed to the span that made them.  Replays run outside every span and
every op timing.
"""
from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Spans of one pass, kept in memory until the run writes them out."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []          # [name, start, end, parent index, op id, error]
        self.replays = []        # (span index, name, seconds, calls)
        self.replay_s = 0.0      # wall time spent replaying
        self._pending = []
        self._stack = []
        self._op = None

    def span(self, name: str, op_id: int | None = None):
        """Context manager timing one call; yields the span index (None when off)."""
        if not self.enabled:
            return nullcontext()
        return self._span(name, op_id)

    @contextmanager
    def _span(self, name: str, op_id):
        if op_id is not None:
            self._op = op_id
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._op, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        except BaseException as err:
            record[5] = type(err).__name__
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def replay(self, span_index, fn, *args) -> None:
        """Queue fn(*args) -> {name: (seconds, calls)} to run after the op."""
        if self.enabled:
            self._pending.append((span_index, fn, args))

    def flush_replays(self) -> None:
        """Run the queued replays; identical (fn, args) run once per flush."""
        t0 = time.perf_counter()
        measured = {}
        for index, fn, args in self._pending:
            key = (fn, args)
            if key not in measured:
                measured[key] = fn(*args)
            for name, (seconds, calls) in measured[key].items():
                self.replays.append((index, name, seconds, calls))
        self._pending.clear()
        self.replay_s += time.perf_counter() - t0

    def by_name(self) -> dict:
        """{name: {"calls", "busy_s", "self_s", "failed"}} over spans and replays.

        Self time is a span's duration minus its child spans and the
        replayed calls attributed to it.  Replayed calls are leaves.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        replayed = [0.0] * len(self.spans)
        for index, _, seconds, _ in self.replays:
            replayed[index] += seconds
        # a replayed inner call cannot outlast the call that made it; scale the
        # replays of a span down to its own time when isolation made them slower
        scale = [1.0] * len(self.spans)
        for i, (_, start, end, *_) in enumerate(self.spans):
            room = max(end - start - child[i], 0.0)
            if replayed[i] > room:
                scale[i] = room / replayed[i]
            child[i] += replayed[i] * scale[i]
        table = {}

        def row(name):
            return table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0})

        for i, (name, start, end, _, _, error) in enumerate(self.spans):
            r = row(name)
            r["calls"] += 1
            r["busy_s"] += end - start
            r["self_s"] += end - start - child[i]
            r["failed"] += error is not None
        for index, name, seconds, calls in self.replays:
            r = row(name)
            r["calls"] += calls
            r["busy_s"] += seconds * scale[index]
            r["self_s"] += seconds * scale[index]
        return table


def layer_self(table: dict) -> dict:
    """Self time per layer, the module prefix of each span name."""
    layers = {}
    for name, r in table.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + r["self_s"]
    return layers
