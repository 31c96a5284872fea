"""In-memory spans and counts around the public functions of the gldual modules.

Only the traced run installs these wrappers.  Each wrapper replaces one public
function everywhere a gldual module holds a reference to it (its defining
module for intra-module calls, and every module that imported it), so calls
between layers are seen at the boundary without touching the program's files.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


class Tracer:
    """Spans as [name, start, end, parent index, request id], plus exact counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []

    def span(self, name: str, start: float, end: float, parent=None) -> int:
        """Record a span whose times were taken elsewhere (e.g. in a child process)."""
        self.spans.append([name, start, end, parent, self.request])
        return len(self.spans) - 1

    def wrap(self, name: str, fn, count=None):
        """A wrapper recording one span per call; `count(counts, args, result, exc)`
        adds the layer's counts at the same boundary."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            record = [name, time.perf_counter(), None, parent, tracer.request]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
                tracer.counts[name + ".calls"] += 1
                if count is not None:
                    count(tracer.counts, args, result, exc)

        return traced

    def wrap_counting(self, name: str, fn):
        """A wrapper that only counts calls, for generator functions whose work
        happens after they return."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def totals(self) -> dict:
        """Busy time (sum of durations) and self time (duration minus the time
        covered by direct children) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            busy, own = out.get(name, (0.0, 0.0))
            out[name] = (busy + end - start, own + end - start - covered)
        return out

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "counts": dict(sorted(self.counts.items())),
        }


class Patches:
    """Replaces attributes and puts the originals back on `restore`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace_everywhere(self, original, replacement):
        """Point every gldual module attribute bound to `original` at `replacement`."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "gldual" or modname.startswith("gldual.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def set(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
