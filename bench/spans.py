"""Timing spans recorded around calls into the renewalshot layers.

`Spans.wrap` replaces a module or class attribute with a timed wrapper, so
the layers are measured from outside without editing them.  Spans stay in
memory as [name, start, end, parent, job, counts] until `write` is called.
"""

from __future__ import annotations

import json
import time


class Spans:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patched = []

    def wrap(self, owner, attr, name, count=None):
        """Time every call of owner.attr as a span called `name`; `count`
        maps (result, *args, **kwargs) to a dict of counters for the span."""
        fn = getattr(owner, attr)

        def timed(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.job, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(out, *args, **kwargs)
            return out

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, timed)

    def unwrap_all(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def self_times(self):
        """Duration of each span minus the union of its children's intervals."""
        cover = [0.0] * len(self.spans)
        reach = [float("-inf")] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is None:
                continue
            lo = max(start, reach[parent])
            if end > lo:
                cover[parent] += end - lo
            reach[parent] = max(reach[parent], end)
        return [s[2] - s[1] - c for s, c in zip(self.spans, cover)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, job, counts in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "job": job,
                                    "counts": counts}) + "\n")
