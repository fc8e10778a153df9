"""In-memory span tracer that wraps package functions from outside.

Each wrapped name is replaced where its caller looks it up (a module
global or a class attribute), so the package itself is not edited.  A
span records its name, start, end and the index of the span that was
open when it started; self time is a span's duration minus the time
covered by its direct children.  Spans stay in memory until the caller
writes them out with ``dump``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.maxima = {}
        self._stack = []
        self._patches = []

    # -- spans ----------------------------------------------------------

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, owner, attr, name, on_call=None):
        """Replace owner.attr by a spanning wrapper.

        on_call(tracer, args, kwargs, result) runs after each call that
        returns, to record counters; without it the call count goes to
        ``<name>_calls``.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if on_call is None:
                self.counts[name + "_calls"] += 1
            else:
                on_call(self, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def record_max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def uninstall(self):
        """Restore every wrapped name, last wrapped first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- summaries --------------------------------------------------------

    def totals(self):
        """(inclusive seconds, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            incl[name] += end - start
            own[name] += end - start - child[i]
        return dict(incl), dict(own)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "counts": dict(self.counts), "maxima": self.maxima},
                fh,
                separators=(",", ":"),
            )
