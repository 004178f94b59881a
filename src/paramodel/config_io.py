"""Run configuration, the run driver, settling analysis and CSV traces.

A run is described by a small YAML document (see README for the schema).
``builtin: NAME`` expands to the configuration of one of the named
built-in runs; explicit keys in the same document override the expanded
ones.  The CLI, the tests and the scripts load, run and judge a
configuration through the one definition of each here: ``load_config_dict``,
``run_records``, ``tracking_error`` and ``segment_settling``.  Traces are
written as plain CSV with shortest round-trip float formatting, so
re-reading a trace reproduces the recorded values exactly.
"""

from __future__ import annotations

import functools
import math
import re
from bisect import bisect_left
from dataclasses import dataclass, fields
from itertools import chain
from typing import Iterable, Iterator

import yaml

from . import linsolve, trainer
from .controller import ControllerParams, stagger_params
from .dynamics import DEFAULT_TAU, FirstOrderFilter
from .errors import InvalidEvent, InvalidParams, ParseError, ValidationError
from .linsolve import LinearTrackingProblem, LinsolveRecord
from .network import Edge, FeedforwardNet, TrainingSample, default_topology
from .records import slot_constructor
from .trainer import Scenario, ScenarioEvent, TraceRecord, builtin_scenarios

__all__ = [
    "RunConfig",
    "builtin_config_dict",
    "builtin_names",
    "config_from_dict",
    "expand_builtin",
    "load_config_dict",
    "parse_config",
    "read_trace",
    "run_records",
    "segment_settling",
    "serialize_config",
    "tracking_error",
    "write_trace",
]

DEFAULT_DECIMATION = 100
DEFAULT_TOLERANCE = 0.01

MODES = ("train", "linsolve")


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one run: what to simulate and how to report."""

    mode: str
    scenario: Scenario | None = None
    problem: LinearTrackingProblem | None = None
    output: str | None = None
    decimation: int = DEFAULT_DECIMATION
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"must be one of {MODES}, got {self.mode!r}", key="mode")
        if self.mode == "train" and self.scenario is None:
            raise ValidationError("train mode needs a scenario", key="scenario")
        if self.mode == "linsolve" and self.problem is None:
            raise ValidationError("linsolve mode needs a problem", key="problem")
        if self.decimation < 1:
            raise ValidationError(f"must be >= 1, got {self.decimation}", key="decimation")
        if not (self.tolerance > 0.0 and math.isfinite(self.tolerance)):
            raise ValidationError(f"must be finite and > 0, got {self.tolerance}", key="tolerance")


# ---------------------------------------------------------------------------
# running


def run_records(config: RunConfig) -> Iterator[TraceRecord | LinsolveRecord]:
    """Run a configuration, yielding one record per iteration: a TraceRecord
    in train mode, a LinsolveRecord in linsolve mode."""
    if config.mode == "train":
        yield from trainer.train_online(config.scenario)
    else:
        p = config.problem
        yield from linsolve.as_records(p, *linsolve.solve_linear(p))


def tracking_error(rec: TraceRecord | LinsolveRecord) -> float:
    """|y - y_ref| of a training record, max_j |y_j - b_j| of a solver record."""
    if isinstance(rec, TraceRecord):
        return abs(rec.y - rec.y_ref)
    # max() over the unknowns as a plain loop, which costs less per record;
    # like max() it keeps the first value unless a later one is strictly
    # greater, so a NaN is returned exactly when max() would return it
    pairs = zip(rec.y, rec.b)
    for y, b in pairs:
        err = abs(y - b)
        break
    else:
        raise ValueError("tracking_error() of a record with no unknowns")
    for y, b in pairs:
        d = abs(y - b)
        if d > err:
            err = d
    return err


def segment_settling(violations, starts, horizon: int) -> list[tuple[int, int, bool]]:
    """(start, iterations to settle, settled) for each segment of a run.

    ``violations`` are the iterations, ascending, whose tracking error is at
    or above the tolerance; ``starts`` are the segments' first iterations
    (repeats merged).  A segment runs up to the next start, the last one
    through ``horizon``.  It settles at its start if it holds no violation,
    else just after its last one, and counts as settled if that iteration
    is still inside it.
    """
    starts = sorted(set(starts))
    out = []
    for k0, k1 in zip(starts, starts[1:] + [horizon + 1]):
        i = bisect_left(violations, k1)
        settled_at = violations[i - 1] + 1 if i and violations[i - 1] >= k0 else k0
        out.append((k0, settled_at - k0, settled_at < k1))
    return out


# ---------------------------------------------------------------------------
# parsing

#: Plain scalars read as floats.  PyYAML follows YAML 1.1, whose floats need
#: a dot and a signed exponent, so ``1e-5``, ``2e3`` and ``1.0e308`` would
#: load as strings.  This adds YAML 1.2's forms (an exponent without a dot
#: or without a sign, a sign before a leading dot) to the 1.1 ones; a
#: plain integer still reads as an int.
_FLOAT = re.compile(
    r"""^(?:[-+]?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+]?[0-9]+)?
    |[-+]?[0-9][0-9_]*[eE][-+]?[0-9]+
    |[-+]?\.[0-9][0-9_]*(?:[eE][-+]?[0-9]+)?
    |[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*
    |[-+]?\.(?:inf|Inf|INF)
    |\.(?:nan|NaN|NAN))$""",
    re.X,
)


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads floats by ``_FLOAT``."""


class _Dumper(yaml.SafeDumper):
    """SafeDumper that quotes every string ``_Loader`` would read as a float."""


for _cls in (_Loader, _Dumper):
    _cls.yaml_implicit_resolvers = {
        first: [(tag, _FLOAT if tag == "tag:yaml.org,2002:float" else regexp) for tag, regexp in resolvers]
        for first, resolvers in _cls.yaml_implicit_resolvers.items()
    }
del _cls


def load_config_dict(text: str) -> dict:
    """YAML text to a configuration dict, ``builtin: NAME`` expanded."""
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.MarkedYAMLError as err:
        line = err.problem_mark.line + 1 if err.problem_mark else None
        raise ParseError(str(err.problem or err), line=line) from None
    except yaml.YAMLError as err:
        raise ParseError(str(err)) from None
    if raw is None:
        raise ParseError("empty configuration")
    if not isinstance(raw, dict):
        raise ParseError(f"top level must be a mapping, got {type(raw).__name__}")
    return expand_builtin(raw)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    return config_from_dict(load_config_dict(text))


def expand_builtin(raw: dict) -> dict:
    """Resolve a top-level ``builtin: NAME`` key into a full config dict.

    Other keys present alongside ``builtin`` override the expanded ones.
    """
    d = dict(raw)
    builtin = d.pop("builtin", None)
    if builtin is None:
        return d
    base = builtin_config_dict(str(builtin))
    if "mode" in d and d["mode"] != base["mode"]:
        raise ValidationError(
            f"builtin {builtin!r} runs in {base['mode']!r} mode, got {d['mode']!r}",
            key="mode",
        )
    base.update(d)
    return base


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from a parsed document (builtin expansion included)."""
    d = expand_builtin(raw)
    known = {"mode", "scenario", "problem", "output", "decimation", "tolerance"}
    for key in d:
        if key not in known:
            raise ValidationError("unknown configuration key", key=key)
    mode = d.get("mode")
    if mode is None:
        raise ValidationError("missing required key", key="mode")
    scenario = problem = None
    if "scenario" in d:
        scenario = _scenario_from_dict(_require_map(d["scenario"], "scenario"))
    if "problem" in d:
        problem = _problem_from_dict(_require_map(d["problem"], "problem"))
    output = d.get("output")
    if output is not None and not isinstance(output, str):
        raise ValidationError("must be a string path", key="output")
    decimation = d.get("decimation", DEFAULT_DECIMATION)
    if not isinstance(decimation, int) or isinstance(decimation, bool):
        raise ValidationError(f"must be an integer, got {decimation!r}", key="decimation")
    tolerance = _require_number(d.get("tolerance", DEFAULT_TOLERANCE), "tolerance")
    return RunConfig(
        mode=str(mode),
        scenario=scenario,
        problem=problem,
        output=output,
        decimation=decimation,
        tolerance=tolerance,
    )


def _require_map(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"must be a mapping, got {type(value).__name__}", key=key)
    return value


def _require_list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"must be a list, got {type(value).__name__}", key=key)
    return value


def _require_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"must be a finite number, got {value!r}", key=key)
    return float(value)


def _require_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"must be an integer, got {value!r}", key=key)
    return value


def _gains_from_dict(d: dict, key: str) -> ControllerParams:
    allowed = {"kp", "ki", "k_alpha", "k_beta", "dt", "init_decay"}
    for sub in d:
        if sub not in allowed:
            raise ValidationError("unknown gain", key=f"{key}.{sub}")
    try:
        return ControllerParams(
            kp=_require_number(d.get("kp", 1.0), f"{key}.kp"),
            ki=_require_number(d.get("ki", 0.01), f"{key}.ki"),
            k_alpha=_require_number(d.get("k_alpha", 166.5), f"{key}.k_alpha"),
            k_beta=_require_number(d.get("k_beta", 40.0), f"{key}.k_beta"),
            dt=_require_number(d.get("dt", 1e-5), f"{key}.dt"),
            init_decay=str(d.get("init_decay", "time")),
        )
    except InvalidParams as err:
        raise ValidationError(str(err), key=key) from None


def _net_from_dict(d: dict, key: str) -> FeedforwardNet:
    for sub in d:
        if sub not in {"inputs", "hidden", "output", "edges", "weights", "mask", "w_max"}:
            raise ValidationError("unknown network key", key=f"{key}.{sub}")
    try:
        inputs = tuple(str(v) for v in _require_list(d.get("inputs", []), f"{key}.inputs"))
        hidden = tuple(str(v) for v in _require_list(d.get("hidden", []), f"{key}.hidden"))
        output = str(d.get("output", "y"))
        edges = []
        for i, e in enumerate(_require_list(d.get("edges", []), f"{key}.edges")):
            e = _require_map(e, f"{key}.edges[{i}]")
            edges.append(
                Edge(
                    src=str(e["from"]),
                    dst=str(e["to"]),
                    weight=_require_int(e["weight"], f"{key}.edges[{i}].weight"),
                )
            )
        q = 1 + max((e.weight for e in edges), default=-1)
        weights = _require_list(d.get("weights", [0.0] * q), f"{key}.weights")
        if len(weights) < q:
            raise ValidationError(
                f"the edges use weight indices up to {q - 1}, so {q} entries are needed, got {len(weights)}",
                key=f"{key}.weights",
            )
        mask = _require_list(d.get("mask", [True] * len(weights)), f"{key}.mask")
        if len(mask) != len(weights):
            raise ValidationError(
                f"needs one entry per weight ({len(weights)}), got {len(mask)}", key=f"{key}.mask"
            )
        return FeedforwardNet(
            inputs=inputs,
            hidden=hidden,
            output=output,
            edges=tuple(edges),
            weights=tuple(_require_number(w, f"{key}.weights") for w in weights),
            mask=tuple(bool(m) for m in mask),
            w_max=_require_number(d.get("w_max", 1.0), f"{key}.w_max"),
        )
    except KeyError as err:
        raise ValidationError(f"missing edge key {err}", key=f"{key}.edges") from None
    except ValidationError as err:
        if err.key is None or not err.key.startswith(key):
            raise ValidationError(str(err), key=key) from None
        raise


def _event_from_dict(d: dict, key: str) -> ScenarioEvent:
    d = dict(d)
    if "at" not in d:
        raise ValidationError("event needs an 'at' iteration", key=f"{key}.at")
    at = _require_int(d.pop("at"), f"{key}.at")
    try:
        if "set_input" in d:
            spec = _require_map(d.pop("set_input"), f"{key}.set_input")
            ev = ScenarioEvent.set_input(
                at,
                _require_int(spec.get("index"), f"{key}.set_input.index"),
                _require_number(spec.get("value"), f"{key}.set_input.value"),
            )
        elif "set_reference" in d:
            ev = ScenarioEvent.set_reference(at, _require_number(d.pop("set_reference"), f"{key}.set_reference"))
        elif "drop_weight" in d:
            ev = ScenarioEvent.drop_weight(at, _require_int(d.pop("drop_weight"), f"{key}.drop_weight"))
        elif "restore_weight" in d:
            ev = ScenarioEvent.restore_weight(at, _require_int(d.pop("restore_weight"), f"{key}.restore_weight"))
        else:
            raise ValidationError(
                "event needs one of set_input/set_reference/drop_weight/restore_weight",
                key=key,
            )
    except InvalidEvent as err:
        raise ValidationError(str(err), key=key) from None
    if d:
        raise ValidationError(f"unknown event keys {sorted(d)}", key=key)
    return ev


def _scenario_from_dict(d: dict, key: str = "scenario") -> Scenario:
    for sub in d:
        if sub not in {"horizon", "stagger_rho", "tau", "w_max", "gains", "sample", "network", "events"}:
            raise ValidationError("unknown scenario key", key=f"{key}.{sub}")
    gains = _gains_from_dict(_require_map(d.get("gains", {}), f"{key}.gains"), f"{key}.gains")
    sample_d = _require_map(d.get("sample", {}), f"{key}.sample")
    xs = _require_list(sample_d.get("x", []), f"{key}.sample.x")
    try:
        sample = TrainingSample(
            x=tuple(_require_number(v, f"{key}.sample.x") for v in xs),
            y=_require_number(sample_d.get("y"), f"{key}.sample.y"),
        )
    except ValidationError as err:
        if err.key is None:
            raise ValidationError(str(err), key=f"{key}.sample") from None
        raise
    if "network" in d:
        net = _net_from_dict(_require_map(d["network"], f"{key}.network"), f"{key}.network")
    else:
        net = default_topology()
    events = tuple(
        _event_from_dict(_require_map(e, f"{key}.events[{i}]"), f"{key}.events[{i}]")
        for i, e in enumerate(_require_list(d.get("events", []), f"{key}.events"))
    )
    try:
        return Scenario(
            net=net,
            base_params=gains,
            initial_sample=sample,
            events=events,
            horizon=_require_int(d.get("horizon", 100_000), f"{key}.horizon"),
            stagger_rho=_require_number(d.get("stagger_rho", 1.0), f"{key}.stagger_rho"),
            tau=_require_number(d.get("tau", 1e-5), f"{key}.tau"),
            w_max=_require_number(d.get("w_max", 1.0), f"{key}.w_max"),
        )
    except ValidationError as err:
        if err.key is None:
            raise ValidationError(str(err), key=key) from None
        raise


def _problem_from_dict(d: dict, key: str = "problem") -> LinearTrackingProblem:
    for sub in d:
        if sub not in {"a", "b", "horizon", "gains", "stagger_rho", "tau", "controllers", "filters"}:
            raise ValidationError("unknown problem key", key=f"{key}.{sub}")
    # an explicit list replaces the keys it would otherwise be generated from
    for sub, explicit in (("gains", "controllers"), ("stagger_rho", "controllers"), ("tau", "filters")):
        if sub in d and explicit in d:
            raise ValidationError(f"cannot be combined with an explicit {explicit} list", key=f"{key}.{sub}")
    a = _require_list(d.get("a"), f"{key}.a")
    b = _require_list(d.get("b"), f"{key}.b")
    for i, row in enumerate(a):
        _require_list(row, f"{key}.a[{i}]")
    n = len(b)
    horizon = _require_int(d.get("horizon", 50_000), f"{key}.horizon")
    tau = _require_number(d.get("tau", DEFAULT_TAU), f"{key}.tau")
    if "controllers" in d:
        controllers = tuple(
            _gains_from_dict(_require_map(c, f"{key}.controllers[{i}]"), f"{key}.controllers[{i}]")
            for i, c in enumerate(_require_list(d["controllers"], f"{key}.controllers"))
        )
    else:
        gains = _gains_from_dict(_require_map(d.get("gains", {}), f"{key}.gains"), f"{key}.gains")
        rho = _require_number(d.get("stagger_rho", 0.5), f"{key}.stagger_rho")
        try:
            controllers = tuple(stagger_params(gains, n, rho))
        except ValidationError as err:
            raise ValidationError(str(err), key=f"{key}.stagger_rho") from None
    try:
        if "filters" in d:
            filters = []
            for i, f in enumerate(_require_list(d["filters"], f"{key}.filters")):
                f = _require_map(f, f"{key}.filters[{i}]")
                filters.append(
                    FirstOrderFilter(
                        tau=_require_number(f.get("tau", tau), f"{key}.filters[{i}].tau"),
                        state=_require_number(f.get("state", 0.0), f"{key}.filters[{i}].state"),
                    )
                )
            filters = tuple(filters)
        else:
            filters = tuple(FirstOrderFilter(tau=tau, state=0.0) for _ in range(n))
    except InvalidParams as err:
        raise ValidationError(str(err), key=f"{key}.filters") from None
    try:
        return LinearTrackingProblem(
            a=tuple(tuple(_require_number(v, f"{key}.a") for v in row) for row in a),
            b=tuple(_require_number(v, f"{key}.b") for v in b),
            controllers=controllers,
            filters=filters,
            horizon=horizon,
        )
    except ValidationError as err:
        if err.key is None:
            raise ValidationError(str(err), key=key) from None
        raise


# ---------------------------------------------------------------------------
# serialization


def serialize_config(config: RunConfig) -> str:
    """YAML form of a RunConfig; parse_config(serialize_config(c)) == c."""
    return yaml.dump(config_to_dict(config), Dumper=_Dumper, sort_keys=False)


def config_to_dict(config: RunConfig) -> dict:
    d: dict = {"mode": config.mode}
    if config.scenario is not None:
        d["scenario"] = _scenario_to_dict(config.scenario)
    if config.problem is not None:
        d["problem"] = _problem_to_dict(config.problem)
    if config.output is not None:
        d["output"] = config.output
    d["decimation"] = config.decimation
    d["tolerance"] = config.tolerance
    return d


def _gains_to_dict(p: ControllerParams) -> dict:
    d = {"kp": p.kp, "ki": p.ki, "k_alpha": p.k_alpha, "k_beta": p.k_beta, "dt": p.dt}
    if p.init_decay != "time":
        d["init_decay"] = p.init_decay
    return d


def _net_to_dict(net: FeedforwardNet) -> dict:
    return {
        "inputs": list(net.inputs),
        "hidden": list(net.hidden),
        "output": net.output,
        "w_max": net.w_max,
        "edges": [{"from": e.src, "to": e.dst, "weight": e.weight} for e in net.edges],
        "weights": list(net.weights),
        "mask": list(net.mask),
    }


def _event_to_dict(ev: ScenarioEvent) -> dict:
    if ev.kind == "set_input":
        return {"at": ev.at, "set_input": {"index": ev.index, "value": ev.value}}
    if ev.kind == "set_reference":
        return {"at": ev.at, "set_reference": ev.value}
    if ev.kind == "drop_weight":
        return {"at": ev.at, "drop_weight": ev.index}
    return {"at": ev.at, "restore_weight": ev.index}


def _scenario_to_dict(s: Scenario) -> dict:
    return {
        "horizon": s.horizon,
        "stagger_rho": s.stagger_rho,
        "tau": s.tau,
        "w_max": s.w_max,
        "gains": _gains_to_dict(s.base_params),
        "sample": {"x": list(s.initial_sample.x), "y": s.initial_sample.y},
        "network": _net_to_dict(s.net),
        "events": [_event_to_dict(e) for e in s.events],
    }


def _problem_to_dict(p: LinearTrackingProblem) -> dict:
    return {
        "a": [list(row) for row in p.a],
        "b": list(p.b),
        "horizon": p.horizon,
        "controllers": [_gains_to_dict(c) for c in p.controllers],
        "filters": [{"tau": f.tau, "state": f.state} for f in p.filters],
    }


# ---------------------------------------------------------------------------
# built-in runs


def builtin_names() -> list[str]:
    return [*builtin_scenarios().keys(), "linsolve3"]


def builtin_config_dict(name: str) -> dict:
    """Configuration dict of one built-in run.

    linsolve3's problem is in the generator form (gains, stagger_rho, tau),
    so that every gain, ratio and time-constant override edits a key that
    takes effect.
    """
    scenarios = builtin_scenarios()
    output = f"{name}_trace.csv"
    if name in scenarios:
        return config_to_dict(RunConfig(mode="train", scenario=scenarios[name], output=output))
    if name == "linsolve3":
        d = config_to_dict(RunConfig(mode="linsolve", problem=linsolve.builtin_problem(), output=output))
        problem = d["problem"]
        del problem["controllers"], problem["filters"]
        problem.update(stagger_rho=linsolve.DEMO_RHO, tau=DEFAULT_TAU, gains=_gains_to_dict(linsolve.DEMO_GAINS))
        return d
    raise ValidationError(
        f"unknown built-in {name!r}; available: {', '.join(builtin_names())}",
        key="builtin",
    )


# ---------------------------------------------------------------------------
# trace CSV

#: The column layout of each record type: its scalar fields (the int ``k``,
#: then floats) and then its tuple fields, all of one width, each written as
#: columns ``<field>1..<field><width>``.  A tuple field in the last entry
#: keeps its text while consecutive rows hold the same tuple object, as
#: every solver record holds ``problem.b``.
_LAYOUTS = {
    TraceRecord: (("k", "t", "y", "y_ref"), ("w", "u"), ()),
    LinsolveRecord: (("k",), ("y", "b", "x"), ("b",)),
}


def _header(cls, width: int) -> str:
    scalars, vectors, _ = _LAYOUTS[cls]
    return ",".join([*scalars, *(f"{v}{i + 1}" for v in vectors for i in range(width))])


@functools.cache
def _codec(cls, width: int):
    """(header, rows, parse) of ``cls`` at ``width``, generated from its layout.

    ``rows(records, decimation)`` yields the CSV line of every record whose
    ``k`` is a multiple of ``decimation``: one f-string with ``!r`` (the
    shortest round-trip repr) per float.  ``parse(line)`` splits a line
    once and builds the record through its slots with straight-line
    ``int``/``float`` calls; it raises ValueError for a wrong field count
    or a non-numeric field.  Both are generated with one statement per
    field, as ``slot_constructor`` generates its constructor, and name
    their locals after the columns.
    """
    scalars, vectors, reused = _LAYOUTS[cls]
    if [*scalars, *vectors] != [f.name for f in fields(cls)]:
        raise TypeError(f"the layout of {cls.__name__} does not match its fields")
    header = _header(cls, width)
    names = header.split(",")
    cols = {v: names[len(scalars) + i * width :][:width] for i, v in enumerate(vectors)}
    reused = reused if width else ()

    def reprs(v):
        return ",".join(f"{{{c}!r}}" for c in cols[v])

    row = ["{k}", *(f"{{rec.{s}!r}}" for s in scalars[1:])]
    row += [f"{{{v}_text}}" if v in reused else reprs(v) for v in vectors if width]
    lines = ["def rows(records, decimation):"]
    lines += [f"    {v}_obj = _unset" for v in reused]
    lines += ["    for rec in records:", "        k = rec.k", "        if k % decimation == 0:"]
    for v in vectors:
        if v in reused:
            lines += [
                f"            if rec.{v} is not {v}_obj:",
                f"                {v}_obj = rec.{v}",
                f"                [{', '.join(cols[v])}] = {v}_obj",
                f'                {v}_text = f"{reprs(v)}"',
            ]
        else:
            lines.append(f"            [{', '.join(cols[v])}] = rec.{v}")
    lines.append(f'            yield f"{",".join(row)}\\n"')

    args = [f"int({scalars[0]})", *(f"float({s})" for s in scalars[1:])]
    args += [f"({''.join(f'float({c}), ' for c in cols[v])})" for v in vectors]
    lines += [
        "def parse(line):",
        f"    [{', '.join(names)}] = line.split(',')",
        f"    return make({', '.join(args)})",
    ]
    env = {"_unset": object(), "make": slot_constructor(cls)}
    exec("\n".join(lines), env)
    return header, env["rows"], env["parse"]


def write_trace(records: Iterable, path: str, decimation: int = 1) -> None:
    """Write records as CSV, keeping every ``decimation``-th iteration.

    Train-mode records give ``k,t,y,y_ref,w1..wq,u1..uq``; linear-solver
    records give ``k,y1..yn,b1..bn,x1..xn``.  Floats are written with
    shortest round-trip formatting, so reading the file back reproduces
    the values bit-exactly.  The rows are streamed to the file, never
    joined in memory.  An empty record sequence produces a file with the
    scalar train-mode header only.  Every record must have the width of
    the first: a tuple of another length raises ValueError.
    """
    if decimation < 1:
        raise ValidationError(f"must be >= 1, got {decimation}", key="decimation")
    it = iter(records)
    first = next(it, None)
    with open(path, "w", encoding="ascii", newline="") as fh:
        if first is None:
            fh.write(_header(TraceRecord, 0) + "\n")
            return
        cls = next((c for c in _LAYOUTS if isinstance(first, c)), None)
        if cls is None:
            raise ValidationError(f"cannot write records of type {type(first).__name__}")
        header, rows, _ = _codec(cls, len(getattr(first, _LAYOUTS[cls][1][0])))
        fh.write(header + "\n")
        fh.writelines(rows(chain((first,), it), decimation))


def read_trace(path: str) -> list:
    """Read a trace CSV back into records (inverse of write_trace).

    Raises ParseError, with the 1-based line number, for a header other
    than one write_trace emits, a row whose field count differs from the
    header's, or a field that is not a number (an integer for ``k``).
    The file is decoded as Latin-1, which maps every byte, so a byte
    outside ASCII is reported as such a field rather than as a
    UnicodeDecodeError.
    """
    with open(path, "r", encoding="latin-1") as fh:
        header = fh.readline().removesuffix("\n")
        parse = _parser_for(header)
        try:
            return list(map(parse, fh))
        except ValueError:
            fh.seek(0)
            err = _first_bad_row(fh, header.split(","))
            if err is None:
                raise
    raise err


def _parser_for(header: str):
    ncols = header.count(",") + 1
    for cls, (scalars, vectors, _) in _LAYOUTS.items():
        width, rest = divmod(ncols - len(scalars), len(vectors))
        if width >= 0 and not rest and header == _header(cls, width):
            return _codec(cls, width)[2]
    raise ParseError(f"unrecognized trace header: {header!r}", line=1)


def _first_bad_row(lines, cols: list[str]) -> ParseError | None:
    """The error of the first malformed row after the header, if any."""
    next(lines)
    for lineno, line in enumerate(lines, start=2):
        values = line.split(",")
        if len(values) != len(cols):
            return ParseError(f"expected {len(cols)} fields, got {len(values)}", line=lineno)
        for i, (col, field) in enumerate(zip(cols, values)):
            try:
                int(field) if i == 0 else float(field)
            except ValueError:
                kind = "an integer" if i == 0 else "a number"
                return ParseError(f"{col} is not {kind}: {field.rstrip()!r}", line=lineno)
    return None
