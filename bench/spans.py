"""Spans and counts recorded from outside the program.

A :class:`Tracer` replaces attributes of kgdialog modules (and ``KgStore``
methods) with wrappers while it is active and puts the originals back when
it stops.  Span wrappers record ``(name, start, end, parent, op)``; count
wrappers only bump a counter, for functions called too often to span.
Everything stays in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self.samples: dict[str, list] = {}
        self.op = -1
        self._stack: list[int] = []
        self._targets: list[tuple[Any, str, Callable]] = []

    # -- registration -------------------------------------------------------

    def span(self, owner: Any, attr: str, name: str | Callable | None = None, hook=None) -> None:
        """Span every call of ``owner.attr``; ``name`` may be a function of
        the call's arguments; ``hook(tracer, args, kwargs, result)`` records
        counts at the same boundary."""
        self._targets.append((owner, attr, lambda fn: self._span_wrapper(fn, name or attr, hook)))

    def count(self, owner: Any, attr: str, key: str) -> None:
        self._targets.append((owner, attr, lambda fn: self._count_wrapper(fn, key)))

    def sample(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    @contextmanager
    def active(self):
        saved = []
        try:
            for owner, attr, make in self._targets:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, functools.wraps(original)(make(original)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn: Callable, name, hook) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.op)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def operation(self, op: int, name: str = "bench.op"):
        """Root span of one benchmark operation; spans inside share its id."""
        self.op = op
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (name, start, time.perf_counter(), -1, op)

    # -- summaries ----------------------------------------------------------------

    def inclusive(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total seconds), nested repeats included."""
        out: dict[str, list] = {}
        for s in self.spans:
            acc = out.setdefault(s[NAME], [0, 0.0])
            acc[0] += 1
            acc[1] += s[END] - s[START]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def self_times(self) -> dict[str, float]:
        """Per layer (span-name prefix before the first dot): seconds spent
        in the layer's spans minus the part their child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            layer = s[NAME].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s[END] - s[START]) - child[i]
        return out

    def dump(self, path, extra: dict) -> None:
        """Write spans (one json list per line after a header line)."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {"fields": ["name", "start", "end", "parent", "op"], "counts": self.counts, **extra}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
