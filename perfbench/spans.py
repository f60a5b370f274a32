"""In-memory span recording and call counting for the traced benchmark run.

The benchmark wraps each call site into an ifvkit layer in ``tr.span(name,
calls)``: one span per layer function per request, around that request's loop
of calls, with the loop's call count on it.  Every span carries the request id
and its parent span, so self time (duration minus time covered by child spans)
can be derived afterwards.  The untraced run uses :data:`NULL`, whose spans
do nothing, so both runs execute the same benchmark code.

Counters that need a wrapper around a library function (comparisons, rho
evaluations) would inflate the spans around them, so they are taken by a
:class:`Counter` in a separate, untimed pass over the request pool.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

ROOT = "request"


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing and counting switched off: each hook costs one method call."""

    def request(self, rid: int):
        return _NULL_SPAN

    def span(self, name: str, calls: int = 1):
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass

    def counting(self, name: str, fn):
        return fn


NULL = NullTracer()


class Counter(NullTracer):
    """Counts calls and events; records no spans."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = defaultdict(int)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def counting(self, name: str, fn):
        """``fn`` wrapped so that every call adds one to counter ``name``."""
        counters = self.counters

        def wrapped(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapped


class _Span:
    __slots__ = ("tracer", "name", "calls", "parent", "index", "start")

    def __init__(self, tracer: "Tracer", name: str, calls: int):
        self.tracer = tracer
        self.name = name
        self.calls = calls

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.index)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.index] = (
            tr.rid, self.index, self.parent, self.name, self.start, end, self.calls
        )
        return False


class Tracer(NullTracer):
    """Records spans as tuples ``(rid, id, parent, name, start_ns, end_ns,
    calls)`` in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list = []
        self.rid = -1
        self._stack: list[int] = []

    def request(self, rid: int) -> _Span:
        self.rid = rid
        return _Span(self, ROOT, 1)

    def span(self, name: str, calls: int = 1) -> _Span:
        return _Span(self, name, calls)

    def write(self, path) -> None:
        keys = ("rid", "id", "parent", "name", "start_ns", "end_ns", "calls")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")

    def layer_table(self, requests: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy and self time per request, and share of
        request time.  The root span is only the denominator."""
        child_ns = [0] * len(self.spans)
        for rid, idx, parent, name, start, end, calls in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        busy: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        calls_by: dict[str, int] = defaultdict(int)
        for rid, idx, parent, name, start, end, calls in self.spans:
            busy[name] += end - start
            own[name] += end - start - child_ns[idx]
            calls_by[name] += calls
        request_ns = busy.pop(ROOT, 0) or 1
        n = max(requests, 1)
        return {
            name: {
                "calls": calls_by[name] / n,
                "busy_ms": busy[name] / n / 1e6,
                "self_ms": own[name] / n / 1e6,
                "share": busy[name] / request_ns,
            }
            for name in busy
        }
