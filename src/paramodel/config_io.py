"""Run configuration parsing/serialization and CSV trace output.

A run is described by a small YAML document (see README for the schema).
``builtin: NAME`` expands to the full configuration of one of the named
built-in runs; explicit keys in the same document override the expanded
ones.  Traces are written as plain CSV with shortest round-trip float
formatting, so re-reading a trace reproduces the recorded values exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import yaml

from .controller import ControllerParams, stagger_params
from .dynamics import FirstOrderFilter
from .errors import InvalidEvent, InvalidParams, ParseError, ValidationError
from .linsolve import LinearTrackingProblem, LinsolveRecord, builtin_problem
from .network import Edge, FeedforwardNet, TrainingSample, default_topology
from .trainer import Scenario, ScenarioEvent, TraceRecord, builtin_scenarios

__all__ = [
    "RunConfig",
    "builtin_config_dict",
    "builtin_names",
    "expand_builtin",
    "parse_config",
    "read_trace",
    "serialize_config",
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
# parsing


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    try:
        raw = yaml.safe_load(text)
    except yaml.MarkedYAMLError as err:
        line = err.problem_mark.line + 1 if err.problem_mark else None
        raise ParseError(str(err.problem or err), line=line) from None
    except yaml.YAMLError as err:
        raise ParseError(str(err)) from None
    if raw is None:
        raise ParseError("empty configuration")
    if not isinstance(raw, dict):
        raise ParseError(f"top level must be a mapping, got {type(raw).__name__}")
    return config_from_dict(raw)


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


def _require_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"must be a number, got {value!r}", key=key)
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
        inputs = tuple(str(v) for v in d.get("inputs", ()))
        hidden = tuple(str(v) for v in d.get("hidden", ()))
        output = str(d.get("output", "y"))
        edges = []
        for i, e in enumerate(d.get("edges", ())):
            e = _require_map(e, f"{key}.edges[{i}]")
            edges.append(
                Edge(
                    src=str(e["from"]),
                    dst=str(e["to"]),
                    weight=_require_int(e["weight"], f"{key}.edges[{i}].weight"),
                )
            )
        q = 1 + max((e.weight for e in edges), default=-1)
        weights = d.get("weights", [0.0] * q)
        mask = d.get("mask", [True] * q)
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
    try:
        sample = TrainingSample(
            x=tuple(_require_number(v, f"{key}.sample.x") for v in sample_d.get("x", ())),
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
        for i, e in enumerate(d.get("events", ()))
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
    a = d.get("a")
    b = d.get("b")
    if not isinstance(a, list) or not all(isinstance(r, list) for r in a):
        raise ValidationError("must be a list of rows", key=f"{key}.a")
    if not isinstance(b, list):
        raise ValidationError("must be a list", key=f"{key}.b")
    n = len(b)
    horizon = _require_int(d.get("horizon", 50_000), f"{key}.horizon")
    tau = _require_number(d.get("tau", 1e-5), f"{key}.tau")
    if "controllers" in d:
        controllers = tuple(
            _gains_from_dict(_require_map(c, f"{key}.controllers[{i}]"), f"{key}.controllers[{i}]")
            for i, c in enumerate(d["controllers"])
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
            for i, f in enumerate(d["filters"]):
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
    return yaml.safe_dump(config_to_dict(config), sort_keys=False)


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
    """Fully explicit configuration dict for one built-in run."""
    scenarios = builtin_scenarios()
    if name in scenarios:
        cfg = RunConfig(
            mode="train",
            scenario=scenarios[name],
            output=f"{name}_trace.csv",
        )
        return config_to_dict(cfg)
    if name == "linsolve3":
        cfg = RunConfig(
            mode="linsolve",
            problem=builtin_problem(),
            output="linsolve3_trace.csv",
        )
        return config_to_dict(cfg)
    raise ValidationError(
        f"unknown built-in {name!r}; available: {', '.join(builtin_names())}",
        key="builtin",
    )


# ---------------------------------------------------------------------------
# trace CSV


def write_trace(records: Iterable, path: str, decimation: int = 1) -> None:
    """Write records as CSV, keeping every ``decimation``-th iteration.

    Train-mode records give ``k,t,y,y_ref,w1..wq,u1..uq``; linear-solver
    records give ``k,y1..yn,b1..bn,x1..xn``.  Floats are written with
    shortest round-trip formatting, so reading the file back reproduces
    the values bit-exactly.  An empty record sequence produces a file with
    the scalar train-mode header only.
    """
    if decimation < 1:
        raise ValidationError(f"must be >= 1, got {decimation}", key="decimation")
    it = iter(records)
    first = next(it, None)
    with open(path, "w", encoding="ascii", newline="") as fh:
        if first is None:
            fh.write("k,t,y,y_ref\n")
            return
        fh.write(_header_for(first) + "\n")
        for rec in _chain_one(first, it):
            if rec.k % decimation == 0:
                fh.write(_format_row(rec) + "\n")


def _chain_one(first, rest):
    yield first
    yield from rest


def _header_for(rec) -> str:
    if isinstance(rec, TraceRecord):
        q = len(rec.w)
        cols = ["k", "t", "y", "y_ref"]
        cols += [f"w{i + 1}" for i in range(q)]
        cols += [f"u{i + 1}" for i in range(q)]
        return ",".join(cols)
    if isinstance(rec, LinsolveRecord):
        n = len(rec.x)
        cols = ["k"]
        cols += [f"y{j + 1}" for j in range(n)]
        cols += [f"b{j + 1}" for j in range(n)]
        cols += [f"x{j + 1}" for j in range(n)]
        return ",".join(cols)
    raise ValidationError(f"cannot write records of type {type(rec).__name__}")


def _format_row(rec) -> str:
    if isinstance(rec, TraceRecord):
        parts = [str(rec.k), repr(rec.t), repr(rec.y), repr(rec.y_ref)]
        parts += [repr(v) for v in rec.w]
        parts += [repr(v) for v in rec.u]
    else:
        parts = [str(rec.k)]
        parts += [repr(v) for v in rec.y]
        parts += [repr(v) for v in rec.b]
        parts += [repr(v) for v in rec.x]
    return ",".join(parts)


def read_trace(path: str) -> list:
    """Read a trace CSV back into records (inverse of write_trace)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        records = []
        if cols[:4] == ["k", "t", "y", "y_ref"]:
            q = (len(cols) - 4) // 2
            for line in fh:
                v = line.strip().split(",")
                records.append(
                    TraceRecord(
                        k=int(v[0]),
                        t=float(v[1]),
                        y=float(v[2]),
                        y_ref=float(v[3]),
                        w=tuple(float(s) for s in v[4 : 4 + q]),
                        u=tuple(float(s) for s in v[4 + q : 4 + 2 * q]),
                    )
                )
        elif cols[0] == "k":
            n = (len(cols) - 1) // 3
            for line in fh:
                v = line.strip().split(",")
                records.append(
                    LinsolveRecord(
                        k=int(v[0]),
                        y=tuple(float(s) for s in v[1 : 1 + n]),
                        b=tuple(float(s) for s in v[1 + n : 1 + 2 * n]),
                        x=tuple(float(s) for s in v[1 + 2 * n : 1 + 3 * n]),
                    )
                )
        else:
            raise ParseError(f"unrecognized trace header: {header!r}")
    return records
