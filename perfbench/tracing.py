"""Spans around the benchmark's calls into the package's public functions.

A ``Tracer`` hands out wrapped functions.  Untraced, ``wrap`` returns the
function itself, so the measured path has no benchmark code in it.  Traced,
each call records a span (function name, start, end, parent span, item id)
in memory, charges its self time (duration minus the time of its child
spans) to a per-layer metric, and may count something read off the public
return value.  ``write`` dumps the spans as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.item = "setup"
        self.spans: list[tuple[str, float, float, int, str]] = []
        # per item id: metric -> summed self time, and count name -> total
        self.self_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[list] = []  # [span index, child seconds]

    def wrap(self, name: str, metric: str, fn, count=None):
        """``fn`` as called by the benchmark; ``count(result, *args)`` yields (name, n) pairs."""
        if not self.enabled:
            return fn
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append((name, 0.0, 0.0, parent, self.item))
            self._stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self._stack.pop()
                self.spans[frame[0]] = (name, t0, t1, parent, self.item)
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                self.self_s[self.item][metric] += t1 - t0 - frame[1]
            if count is not None:
                for key, n in count(result, *args):
                    self.counts[self.item][key] += n
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, item in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": t0, "end": t1, "parent": parent, "item": item}
                    )
                    + "\n"
                )
