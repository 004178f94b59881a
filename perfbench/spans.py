"""Spans recorded from outside the package, around calls into its layers.

``Tracer.wrap`` replaces a public function at the module attribute its
callers look up (``paramodel.linsolve.solve_linear``, for instance) with a
wrapper that records one span per call: name, start, end, parent span and
run id.  A function that returns a generator (``train_online``) gets one
span for its whole life plus the duration of every ``next`` call, kept as
an array rather than as spans.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, run)
        self.next_s: array = array("d")  # one entry per generator ``next``
        self.run = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, module, attr: str, name: str) -> None:
        """Record a span for every call made through ``module.attr``."""
        fn = getattr(module, attr)
        if inspect.isgeneratorfunction(fn):
            wrapper = self._generator_wrapper(fn, name)
        else:
            wrapper = self._call_wrapper(fn, name)
        self._restore.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _open(self, name: str, start: float, nest: bool = True) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, start, None, parent, self.run))
        if nest:
            self._stack.append(sid)
        return sid

    def _close(self, sid: int, end: float, nest: bool = True) -> None:
        if nest:
            self._stack.pop()
        s = self.spans[sid]
        self.spans[sid] = (s[0], s[1], s[2], end, s[4], s[5])

    def _call_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name, perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, perf_counter())

        return wrapper

    def _generator_wrapper(self, fn, name):
        # the generator's frames interleave with its caller's, so its span
        # is never a parent of the spans opened while it is suspended
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name, perf_counter(), nest=False)
            gen = fn(*args, **kwargs)
            times = self.next_s
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    times.append(perf_counter() - t0)
                    yield item
            finally:
                self._close(sid, perf_counter(), nest=False)

        return wrapper

    # -- queries -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name and s[3] is not None]

    def self_time(self, name: str) -> float:
        """Total duration of ``name`` spans minus their direct children's."""
        ids = {s[0] for s in self.spans if s[1] == name}
        total = sum(s[3] - s[2] for s in self.spans if s[0] in ids)
        children = sum(s[3] - s[2] for s in self.spans if s[4] in ids)
        return total - children

    def missing(self, expected) -> list[str]:
        fired = {s[1] for s in self.spans}
        return sorted(set(expected) - fired)

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "run")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
