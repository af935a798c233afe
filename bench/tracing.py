"""In-memory spans and counters for the traced benchmark run.

A span is recorded around a call into one of relalg's public functions:
name, start and end (perf_counter_ns), the index of the enclosing span (-1 at
top level) and the id of the job it belongs to.  Span names are
``<layer>.<what>``; the layer is the relalg module.  Per-element algebra
operations are too hot to span, so they are counted instead.

``NullTracer`` is used for the timed run: it calls straight through.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

LAYERS = ("relations", "algebras", "axioms", "filters", "representation", "formulas")
ALGEBRA_OPS = ("meet", "join", "neg", "subst", "exists", "delta")


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def job(self, name):
        return nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, job]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._job = None

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self._job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def job(self, name):
        outer, self._job = self._job, name
        try:
            yield
        finally:
            self._job = outer

    def patch(self, module, attr: str, name: str, count=None) -> None:
        """Span every call made through ``module.attr``.  ``count(result)``
        may return a (counter, amount) pair to add.  Absent names are skipped,
        so the benchmark keeps running when a later relalg drops a helper."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        tracer = self

        def spanned(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if count is not None:
                key, amount = count(result)
                tracer.counts[key] += amount
            return result

        setattr(module, attr, spanned)

    def count_ops(self, cls, kind: str) -> None:
        """Count calls of the per-element operations a class defines itself."""
        counts = self.counts
        key = f"algebras.{kind}.op_calls"
        for op in ALGEBRA_OPS:
            fn = cls.__dict__.get(op)
            if fn is None:
                continue

            def counted(self, *args, _fn=fn):
                counts[key] += 1
                return _fn(self, *args)

            setattr(cls, op, counted)

    def durations(self) -> dict[str, float]:
        """Seconds per span name."""
        out: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            out[name] += (end - start) / 1e9
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its spans, minus the time covered by child spans."""
        own = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        out = {layer: 0.0 for layer in LAYERS}
        for span, ns in zip(self.spans, own):
            layer = span[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + ns / 1e9
        return out

    def dump(self, path, metadata: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({"metadata": metadata, "counts": dict(self.counts)}) + "\n")
            for name, start, end, parent, job in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "job": job}) + "\n")
