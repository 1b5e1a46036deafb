"""Spans and counters recorded from outside the program.

The traced run swaps selected public names of ``metaborrow`` for
wrappers that record a span per call (name, start, end, parent, op id)
and, optionally, a counter computed from the call's arguments and
result.  Spans stay in memory until the run ends.  A name that no
longer exists is reported as missing instead of stopping the run, so a
refactor that removes a layer shows up as a missing span, not a crash.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter store for one process.

    A span is ``[name, start_ns, end_ns, parent_index, op]``;
    ``parent_index`` is the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)  # counter name -> total over all ops
        self.counter_errors = set()
        self.op = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; return its result."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter_ns(), 0, parent, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name, value=1.0):
        self.counts[name] += value


def wrap(tracer, fn, name, counter=None):
    """Return ``fn`` wrapped so each call records a span.

    ``counter(tracer, args, kwargs, result)`` runs after the span closes,
    so its own cost lands in the parent's self time, not in this span.
    A counter that no longer fits the result's shape is reported by name
    in ``tracer.counter_errors`` rather than raised.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if counter is not None:
            try:
                counter(tracer, args, kwargs, result)
            except (AttributeError, TypeError, ValueError, OSError):
                tracer.counter_errors.add(name)
        return result

    return wrapper


def install(tracer, targets):
    """Wrap every ``(module, attr_path, span_name, counter)`` target.

    ``attr_path`` is dotted below the module, e.g. ``Dataset.with_weights``.
    Returns ``(restore, missing)``: ``restore()`` puts the originals back,
    and ``missing`` lists ``module:attr_path`` for targets not found.
    """
    saved = []
    missing = []
    for module, attr_path, span_name, counter in targets:
        try:
            owner = importlib.import_module(module)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module}:{attr_path}")
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(tracer, original, span_name, counter))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore, missing


def _covered_ns(start, end, intervals):
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times_ns(spans):
    """Per-span self time: duration minus the time its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [span[2] - span[1] - _covered_ns(span[1], span[2], children.get(i, ()))
            for i, span in enumerate(spans)]


def totals_by_name(spans):
    """{span name: [self time in ns, calls]} summed over all spans."""
    totals = defaultdict(lambda: [0, 0])
    for span, self_ns in zip(spans, self_times_ns(spans)):
        acc = totals[span[0]]
        acc[0] += self_ns
        acc[1] += 1
    return totals
