"""Spans around calls into the alma package, recorded from outside it.

:func:`instrument` rebinds a public function in every ``alma`` module that
holds it (the defining module, each module that imported it by name, and the
package namespace) to a wrapper that records one span per call. A span is
``[name, start, end, parent]``, with ``parent`` the index of the enclosing
span or -1. Spans stay in memory until :meth:`Tracer.dump`.

Only calls made in this process are seen: work inside pool worker processes
records nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(tracer, args, result)`` runs on return."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def by_name(self) -> dict:
        """Per span name: calls, self seconds and the inclusive durations."""
        out = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span[0], {"calls": 0, "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["self_s"] += own
            row["durations"].append(span[2] - span[1])
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


@contextmanager
def instrument(tracer: Tracer, targets, after=None):
    """Trace each ``"module.function"`` in ``targets`` while the block runs.

    ``after`` maps a target to a hook passed to :meth:`Tracer.wrap`. The
    original bindings are restored on exit.
    """
    after = after or {}
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "alma" or name.startswith("alma."))]
    undo = []
    try:
        for target in targets:
            modname, fname = target.split(".")
            original = getattr(importlib.import_module("alma." + modname), fname)
            wrapper = tracer.wrap(target, original, after.get(target))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)
