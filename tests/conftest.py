"""Shared fixtures: cached built-in runs and frozen regression constants."""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import pathlib
import struct
import time
from dataclasses import dataclass, replace

import pytest

from paramodel import elementary
from paramodel.config_io import (
    RunConfig,
    builtin_config_dict,
    config_from_dict,
    run_records,
    segment_settling,
    segment_starts,
    tracking_error,
    write_trace,
)
from paramodel.linsolve import LinsolveRecord
from paramodel.trainer import Scenario, ScenarioEvent, TraceRecord, builtin_scenarios

#: tracking band used throughout (|y - y_ref| < TRACK_TOL counts as settled)
TRACK_TOL = 0.01

#: fig4 initial settling iteration, measured once with
#: ``paramodel run --builtin fig4`` and frozen as a regression pin.
FIG4_SETTLED_FROM = 1979

#: regression budget: twice the measured fig4 settling iteration.  Every
#: initial transient and every post-event transient must re-enter the
#: tracking band within this many iterations.
SETTLE_BUDGET = 2 * FIG4_SETTLED_FROM

#: exact solution of the built-in 3x3 system (verified by the rational
#: Gaussian-elimination oracle in test_linsolve.py)
EQ3_X_STAR = (0.5, 0.1, 0.8)

GOLDEN_DECIMATION = 100

#: sha256 of every record of each built-in (``record_bytes``).  The goldens
#: keep every 100th row, and a 1-ulp difference can heal within 100 rows;
#: these check every iteration.  Like the goldens, they move only with a
#: deliberate change to the simulation arithmetic, recorded in CHANGES.md.
GOLDEN_DIGESTS = {
    "fig4": "47067d20403c6f810fdcca917482573ff4bf1ad843beffee5b5377cfb4454518",
    "fig5": "2260b831f2d789724aac7baa6389faf299926e28a18aaa28d5baa82354cdb324",
    "fig6": "ced64ed204927a45cce3b4620ffd977446c091fda4d8ef6c183be9590b30320f",
    "fig7": "5a89efe7d7c2694f54ff2e93ba0667b9f349783e712a985bfef2cfd24c52032c",
    "linsolve3": "39a2aa53d3224e9cd4a78af258d890463b21906ae13e867005db28a3ffc3681b",
}


@dataclass
class Run:
    """One full pass of a configuration through run_records."""

    config: RunConfig
    violations: list[int]
    final: TraceRecord | LinsolveRecord
    max_abs_w: float  # training runs only
    csv_text: str
    digest: str  # sha256 of record_bytes of every record
    wall: float
    # training runs only: (first iteration, classes) each time the classes
    # change, a weight's class being the lowest index with its w and u bits
    weight_classes: list[tuple[int, tuple[int, ...]]]

    @property
    def scenario(self) -> Scenario:
        return self.config.scenario

    @property
    def horizon(self) -> int:
        return (self.config.scenario or self.config.problem).horizon

    @property
    def x_final(self) -> tuple[float, ...]:
        return self.final.x

    @property
    def final_residual(self) -> float:
        return tracking_error(self.final)


def record_bytes(rec: TraceRecord | LinsolveRecord) -> bytes:
    """Every field of a record at full resolution: k as a little-endian
    int64, then each float, a tuple field item by item, as a little-endian
    double, in field order."""
    if isinstance(rec, TraceRecord):
        k, t, y, y_ref, w, u = rec
        floats = (t, y, y_ref, *w, *u)
    else:
        k, y, b, x = rec
        floats = (*y, *b, *x)
    return struct.pack(f"<q{len(floats)}d", k, *floats)


def run(config: RunConfig, csv_path) -> Run:
    """Band violations, largest |w|, decimated CSV, digest and wall time of
    one pass."""
    train = config.mode == "train"
    violations: list[int] = []
    rows = []
    max_abs_w = 0.0
    digest = hashlib.sha256()
    weight_classes = [(0, ())]
    t0 = time.perf_counter()
    for rec in run_records(config):
        data = record_bytes(rec)
        digest.update(data)
        if tracking_error(rec) >= TRACK_TOL:
            violations.append(rec.k)
        if train:
            max_abs_w = max(max_abs_w, *map(abs, rec.w))
            bits = memoryview(data)[32:].cast("q")  # w then u, after k, t, y and y_ref
            q = len(rec.w)
            pairs = list(zip(bits[:q], bits[q:]))
            classes = tuple(map(pairs.index, pairs))
            if classes != weight_classes[-1][1]:
                weight_classes.append((rec.k, classes))
        if rec.k % GOLDEN_DECIMATION == 0:
            rows.append(rec)
    wall = time.perf_counter() - t0
    write_trace(rows, str(csv_path), GOLDEN_DECIMATION)
    return Run(config, violations, rec, max_abs_w, csv_path.read_text(), digest.hexdigest(), wall, weight_classes[1:])


def settled_from(violations: list[int], horizon: int) -> int | None:
    """First iteration from which the band holds through the horizon."""
    [(_, settle, settled)] = segment_settling(violations, [1], horizon)
    return 1 + settle if settled else None


def event_resettled_within(scenario: Scenario, violations: list[int]) -> list[tuple[int, int]]:
    """(event iteration, iterations needed to re-enter the band) pairs."""
    events = {e.at for e in scenario.events}
    segments = segment_settling(violations, segment_starts(scenario.events), scenario.horizon)
    return [(k0, settle) for k0, settle, _ in segments if k0 in events]


def short_fig7() -> Scenario:
    """fig7 with every kind of event, shortened to 2000 iterations."""
    ev = ScenarioEvent
    events = (
        ev.set_input(300, 0, 0.15),
        ev.set_input(300, 1, 0.8),
        ev.drop_weight(600, 6),
        ev.restore_weight(900, 6),
        ev.set_reference(1200, 0.6),
    )
    return replace(builtin_scenarios()["fig7"], horizon=2000, events=events)


#: the root of the checkout
REPO = pathlib.Path(__file__).resolve().parents[1]


@functools.cache
def script(name: str):
    """The module of ``scripts/<name>.py``, loaded from its file once."""
    path = REPO / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def substituted():
    """The package's own exp and tanh, each wrapped to count its calls, put
    in place of themselves by the seam of ``scripts/reference_traces.py``
    for the test; yields the calls so far, by name."""
    calls = {"exp": 0, "tanh": 0}

    def counting(name, fn):
        def call(x):
            calls[name] += 1
            return fn(x)

        return call

    with script("reference_traces").substituted(counting("exp", elementary.exp), counting("tanh", elementary.tanh)):
        yield calls


def run_outputs(root: pathlib.Path) -> dict[str, int]:
    """The trace CSVs and the ``out/`` directory in ``root``, each with the
    time it was last modified."""
    paths = [*root.glob("*_trace.csv"), root / "out"]
    return {path.name: path.stat().st_mtime_ns for path in paths if path.exists()}


@pytest.fixture(scope="session", autouse=True)
def no_run_outputs_in_the_checkout():
    """Fail the session if a test writes a trace CSV or an ``out/``
    directory into the root of the checkout, as a run without ``--out``
    does in its working directory: every test writes under a temporary
    directory."""
    before = run_outputs(REPO)
    yield
    written = sorted(name for name, mtime in run_outputs(REPO).items() if before.get(name) != mtime)
    if written:
        pytest.fail(f"the tests wrote run outputs into {REPO}: {', '.join(written)}", pytrace=False)


@pytest.fixture(scope="session")
def builtin_run(tmp_path_factory):
    """Memoized full runs of the built-ins, by name."""
    cache: dict[str, Run] = {}
    tmp = tmp_path_factory.mktemp("builtin_runs")

    def get(name: str) -> Run:
        if name not in cache:
            config = config_from_dict(builtin_config_dict(name))
            cache[name] = run(config, tmp / f"{name}_trace.csv")
        return cache[name]

    return get


@pytest.fixture(scope="session")
def builtin_linsolve_run(builtin_run) -> Run:
    return builtin_run("linsolve3")
