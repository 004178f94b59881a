"""Tests of the span recorder on a stand-in module.

    python3 -m pytest perfbench/test_spans.py
"""

from __future__ import annotations

import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402


def _module():
    mod = types.ModuleType("standin")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2  # looked up at call time, as the package does

    def gen(n):
        yield from range(n)

    mod.inner, mod.outer, mod.gen = inner, outer, gen
    return mod


def test_nested_calls_record_parent_and_self_time():
    mod = _module()
    tracer = Tracer()
    tracer.wrap(mod, "inner", "m.inner")
    tracer.wrap(mod, "outer", "m.outer")
    tracer.run = "r1"
    assert mod.outer(1) == 4
    outer = next(s for s in tracer.spans if s[1] == "m.outer")
    inner = next(s for s in tracer.spans if s[1] == "m.inner")
    assert inner[4] == outer[0] and outer[4] is None
    assert outer[5] == inner[5] == "r1"
    whole = outer[3] - outer[2]
    assert tracer.self_time("m.outer") == whole - (inner[3] - inner[2])
    assert tracer.missing(["m.outer", "m.inner", "m.gen"]) == ["m.gen"]


def test_generator_gets_one_span_and_a_time_per_item():
    mod = _module()
    tracer = Tracer()
    tracer.wrap(mod, "gen", "m.gen")
    assert list(mod.gen(5)) == [0, 1, 2, 3, 4]
    assert len(tracer.next_s) == 5
    assert len(tracer.durations("m.gen")) == 1


def test_unwrap_restores_the_functions():
    mod = _module()
    original = mod.inner
    tracer = Tracer()
    tracer.wrap(mod, "inner", "m.inner")
    assert mod.inner is not original
    tracer.unwrap_all()
    assert mod.inner is original
