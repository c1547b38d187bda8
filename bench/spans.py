"""In-memory span tracing of calls into infocal's public functions.

A Tracer replaces a function at the module attribute its caller looks up
with a wrapper that records one span per call: name, start, end, the span
that was open when it was called, and an optional size computed from the
arguments.  `restore` (or leaving the `with` block) puts every original
back.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    size: float


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []  # stack of [name, start, parent, size] being timed
        self._patched = []

    def wrap(self, module, attr, name, size=None):
        """Trace calls made through `module.attr` under span `name`.

        size(args, kwargs) -> float is recorded with each span (rows,
        intervals, flops...).
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append(None)  # reserve the slot so children point at it
            self._open.append(index)
            amount = float(size(args, kwargs)) if size else 0.0
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, amount)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans):
    """Per span: its duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def within(spans, index, ancestor_name):
    """True when span `index` has an enclosing span named ancestor_name."""
    p = spans[index].parent
    while p >= 0:
        if spans[p].name == ancestor_name:
            return True
        p = spans[p].parent
    return False


def summarize(spans):
    """name -> {calls, s (inclusive), self_s, size} over all spans of that name."""
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0.0})
    for s, t in zip(spans, own):
        row = out[s.name]
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += t
        row["size"] += s.size
    return dict(out)


def subtree_sizes(spans, name):
    """Per top-level span called `name`: the number of spans in its subtree,
    itself included."""
    sizes = defaultdict(int)
    for i in range(len(spans)):
        root = i
        while spans[root].parent >= 0:
            root = spans[root].parent
        if spans[root].name == name:
            sizes[root] += 1
    return [sizes[i] for i in sorted(sizes)]
