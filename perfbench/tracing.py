"""In-memory spans around calls into rhetor, and what is computed from them.

A span is ``(name, start, end, parent, job, calls, size)``: ``parent`` is
the index of the enclosing span (-1 for none), ``job`` the job it belongs
to (None for set-up and replays), ``calls`` how many library calls it
covers (1, or N for a timed replay loop) and ``size`` the input size a
growth fit uses.  Spans are only ever opened in the benchmark's own files,
around public rhetor functions.
"""
from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Direct:
    """Untraced calls: no bookkeeping at all."""

    job = None

    def call(self, name, fn, *args, size=None, calls=1, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call; spans stay in memory until :meth:`export`."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = None

    def call(self, name, fn, *args, size=None, calls=1, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.job, calls, size]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Spans come from one thread and nest properly, so children of one
        parent never overlap and their durations can simply be summed.
        """
        out = [end - start for _, start, end, *_ in self.spans]
        for span in self.spans:
            parent = span[3]
            if parent >= 0:
                out[parent] -= span[2] - span[1]
        return out

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, busy (self) seconds, and (size, seconds) points."""
        agg: dict[str, dict] = defaultdict(lambda: {"spans": 0, "calls": 0, "busy": 0.0,
                                                    "points": []})
        for span, busy in zip(self.spans, self.self_times()):
            entry = agg[span[0]]
            entry["spans"] += 1
            entry["calls"] += span[5]
            entry["busy"] += busy
            if span[6]:
                entry["points"].append((span[6], span[2] - span[1]))
        return agg

    def export(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span, busy in zip(self.spans, self.self_times()):
                name, start, end, parent, job, calls, size = span
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "job": job, "calls": calls,
                                      "size": size, "self": busy}) + "\n")


def loglog_slope(points, groups=None) -> float:
    """Least-squares slope of log(seconds) on log(size).

    With ``groups`` (one key per point), each group is centred on its own
    means first, so jobs of another depth or operator set do not bend the
    fit; the slope is shared.
    """
    keyed = defaultdict(list)
    for i, (size, seconds) in enumerate(points):
        if size > 0 and seconds > 0:
            keyed[groups[i] if groups else None].append((math.log(size), math.log(seconds)))
    sxx = sxy = 0.0
    for pts in keyed.values():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx else 0.0
