"""Online tuning of network weights by one controller per weight.

Every synaptic weight gets its own controller and first-order filter, all
tracking the same (network output, training target) pair; they differ only
in their staggered gains.  Controllers with the same gains, lag and state
bits take the same step, so the loop steps one of each such class.  A
scenario schedules training-data changes and dropout-style topology events
at prescribed iterations, and the loop emits one trace record, a
``TraceRecord`` NamedTuple, per iteration.

Loop order within one iteration: at an event iteration, copy each class's
state to its other members, apply the events and regroup the classes;
then measure the output with the current weights, step one controller and
filter of each class, test the filter output for divergence, clamp it,
record.  Between events a class member's state is not updated: the
network reads each weight, and the record shows it, through its class's
representative (``FeedforwardNet.evaluator`` with a slot map, one tanh
per distinct node sum).
Dropped weights are held at zero with their controller and filter frozen;
restoring a weight re-installs the frozen filter state and resumes
stepping, so a drop/restore pair at the same iteration is an exact no-op.
A weight the net's mask disables is dropped at iteration 0 by the trainer
itself, before the scenario's own events of iteration 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from struct import pack
from typing import Iterator, NamedTuple

from .controller import ControllerParams, decays, divergence, stagger_params, step_all
from .dynamics import DEFAULT_TAU
from .errors import Count, DivergenceError, Index, Positive, Ratio, ValidationError, check_fields
from .network import FeedforwardNet, TrainingSample, default_topology

__all__ = [
    "EVENT_ARGS",
    "Scenario",
    "ScenarioEvent",
    "TraceRecord",
    "builtin_scenarios",
    "train_online",
]

#: The ScenarioEvent fields each event kind takes as its arguments.
EVENT_ARGS = {
    "set_input": ("index", "value"),
    "set_reference": ("value",),
    "drop_weight": ("index",),
    "restore_weight": ("index",),
}


@dataclass(frozen=True, slots=True)
class ScenarioEvent:
    """Timed change to the training data or the network topology.

    ``kind`` is a key of ``EVENT_ARGS``, which names the fields it takes:
    set_input (index, value), set_reference (value), drop_weight (index),
    restore_weight (index); the other fields must stay None.  Events at
    iteration 0 describe the initial configuration; they act with those of
    iteration 1, before its step.
    """

    at: Index
    kind: str
    index: int | None = None
    value: float | None = None

    def __post_init__(self):
        check_fields(self)
        if self.kind not in EVENT_ARGS:
            raise ValidationError("unknown event kind", got=self.kind)
        takes = EVENT_ARGS[self.kind]
        missing = [name for name in takes if getattr(self, name) is None]
        if missing:
            raise ValidationError(f"{self.kind} needs {' and '.join(missing)}")
        extra = [name for name in ("index", "value") if name not in takes and getattr(self, name) is not None]
        if extra:
            raise ValidationError(f"{self.kind} takes no {' or '.join(extra)}")

    @classmethod
    def set_input(cls, at: int, index: int, value: float) -> "ScenarioEvent":
        return cls(at=at, kind="set_input", index=index, value=value)

    @classmethod
    def set_reference(cls, at: int, value: float) -> "ScenarioEvent":
        return cls(at=at, kind="set_reference", value=value)

    @classmethod
    def drop_weight(cls, at: int, index: int) -> "ScenarioEvent":
        return cls(at=at, kind="drop_weight", index=index)

    @classmethod
    def restore_weight(cls, at: int, index: int) -> "ScenarioEvent":
        return cls(at=at, kind="restore_weight", index=index)


@dataclass(frozen=True)
class Scenario:
    """Complete description of one training run.

    Every field but the training sample has the default of the built-in
    runs: the default topology, the paper's gains, |w| <= 1.
    """

    initial_sample: TrainingSample
    net: FeedforwardNet = field(default_factory=default_topology)
    base_params: ControllerParams = ControllerParams()
    events: tuple[ScenarioEvent, ...] = ()
    horizon: Count = 100_000
    stagger_rho: Ratio = 1.0
    tau: Positive = DEFAULT_TAU
    w_max: Positive = 1.0

    def __post_init__(self):
        check_fields(self)
        if self.net.weight_count == 0:
            raise ValidationError("network has no weight to train: it needs at least one edge")
        if len(self.initial_sample.x) != self.net.input_count:
            raise ValidationError(
                f"sample has {len(self.initial_sample.x)} inputs, "
                f"network expects {self.net.input_count}"
            )
        # the output node is tanh, so references outside (-1, 1) are unreachable
        if not abs(self.initial_sample.y) < 1.0:
            raise ValidationError(
                f"training reference must satisfy |y| < 1, got {self.initial_sample.y}"
            )
        q = self.net.weight_count
        n = self.net.input_count
        last_at = 0
        for i, ev in enumerate(self.events):
            key = f"events[{i}]"
            if ev.at > self.horizon:
                raise ValidationError(f"event iteration is beyond horizon {self.horizon}", key=key, got=ev.at)
            if ev.at < last_at:
                raise ValidationError("events must be sorted by iteration", key=key)
            last_at = ev.at
            if ev.kind == "set_input" and not 0 <= ev.index < n:
                raise ValidationError(f"set_input index must be in [0, {n})", key=key, got=ev.index)
            if ev.kind in ("drop_weight", "restore_weight") and not 0 <= ev.index < q:
                raise ValidationError(f"{ev.kind} index must be in [0, {q})", key=key, got=ev.index)
            if ev.kind == "set_reference" and not abs(ev.value) < 1.0:
                raise ValidationError(f"set_reference value must satisfy |y| < 1, got {ev.value}", key=key)


class TraceRecord(NamedTuple):
    """Full observable state of one iteration.

    ``y`` is the output measured before this iteration's weight update;
    ``w`` holds the post-filter, post-clamp weights and ``u`` the raw
    controller outputs (both zero for a weight that is masked, by a drop
    event or from the start).
    """

    k: int
    t: float
    y: float
    y_ref: float
    w: tuple[float, ...]
    u: tuple[float, ...]


def train_online(scenario: Scenario) -> Iterator[TraceRecord]:
    """Run the closed training loop, yielding one TraceRecord per iteration.

    The input scenario is never mutated; two runs of the same scenario
    produce bit-identical traces.
    """
    net = scenario.net
    q = net.weight_count
    base = scenario.base_params
    params = stagger_params(base, q, scenario.stagger_rho)
    dt, tau, w_max = base.dt, scenario.tau, scenario.w_max
    # stagger_params gives every controller the base k_alpha, k_beta and dt
    k_alpha, k_beta = base.k_alpha, base.k_beta
    kps = [p.kp for p in params]
    kis = [p.ki for p in params]

    # working copies: the loop never touches the scenario's own net
    w = [min(max(v, -w_max), w_max) for v in net.weights]
    mask = [True] * q
    x_train = list(scenario.initial_sample.x)
    y_ref = scenario.initial_sample.y
    # flat controller and filter state per weight.  An enabled weight's
    # controller takes its step number k - lag[i] at iteration k: a weight's
    # lag grows by the iterations it spent dropped (dropped_at[i] onward).
    psis = [0.0] * q
    integrals = [0.0] * q
    xs = list(w)
    u = [0.0] * q
    lag = [0] * q
    dropped_at = [0] * q

    # events by iteration, in their listed order, those of 0 with those of 1;
    # first the weights the net's mask disables are dropped at 0, so
    # iteration 1 always builds the enabled weights and their decay columns
    events: dict[int, list[ScenarioEvent]] = {
        1: [ScenarioEvent.drop_weight(0, i) for i in range(q) if not net.mask[i]]
    }
    for event in scenario.events:
        events.setdefault(max(event.at, 1), []).append(event)

    isfinite = math.isfinite
    copies: list[tuple[int, int]] = []
    for k in range(1, scenario.horizon + 1):
        if k in events:
            # the members of a class take its representative's state, so the
            # events act on each weight's own
            for i, r in copies:
                psis[i] = psis[r]
                integrals[i] = integrals[r]
                xs[i] = xs[r]
                u[i] = u[r]
                w[i] = w[r]
            for event in events[k]:
                i = event.index
                if event.kind == "set_input":
                    x_train[i] = event.value
                elif event.kind == "set_reference":
                    y_ref = event.value
                elif event.kind == "drop_weight":
                    if mask[i]:
                        dropped_at[i] = k
                    mask[i] = False
                    w[i] = 0.0
                    u[i] = 0.0
                elif event.kind == "restore_weight":
                    # re-install the clamped frozen filter state so an
                    # immediate drop/restore pair is an exact no-op
                    if not mask[i]:
                        lag[i] += k - dropped_at[i]
                    mask[i] = True
                    w[i] = min(max(xs[i], -w_max), w_max)
            active = [i for i in range(q) if mask[i]]
            # one decay column per distinct lag, read once per iteration
            columns = [(n, decays(k_beta, dt, k - n)) for n in sorted({lag[i] for i in active})]
            # a class of the same gains, lag and state bits steps its lowest
            # index, its representative; every slot of a weight names the
            # representative whose w and u stand for it until the next event
            first: dict[bytes, int] = {}
            slots = list(range(q))
            for i in active:
                slots[i] = first.setdefault(pack("<5dq", kps[i], kis[i], psis[i], integrals[i], xs[i], lag[i]), i)
            reps, copies = list(first.values()), [(i, r) for i, r in enumerate(slots) if i != r]
            evaluate = net.evaluator(mask, slots)
            take = itemgetter(*slots) if copies else tuple
        y = evaluate(w, x_train)
        if not isfinite(y):
            raise DivergenceError(f"network output became non-finite: {y}", iteration=k)
        if len(columns) == 1:  # every enabled controller takes the same step
            a = [k_alpha * next(columns[0][1]) - y] * q
        else:  # a restored weight lags the others
            by_lag = {n: k_alpha * next(column) - y for n, column in columns}
            a = [by_lag.get(n, 0.0) for n in lag]
        step_all(reps, psis, integrals, xs, u, kps, kis, a, [y_ref - y] * q, dt, tau)
        for i in reps:
            xi = xs[i]
            if xi - xi != 0.0:  # before the clamp, which would turn inf into w_max
                raise divergence(k, psis[i], integrals[i], u[i], xi, f"weight {i}: ")
            if xi > w_max:
                xi = w_max
            elif xi < -w_max:
                xi = -w_max
            w[i] = xi
        yield TraceRecord(k, k * dt, y, y_ref, take(w), take(u))


def builtin_scenarios() -> dict[str, Scenario]:
    """The four named training runs, keyed fig4..fig7.

    All share the training sample (0.2, 0.6) -> 0.55 and take every other
    Scenario default, the paper's gains ``ControllerParams()`` among them.
    Event iterations are placed well after the measured settling of the
    preceding transient (``paramodel run --builtin NAME`` prints it per
    event segment).
    """
    sample = TrainingSample(x=(0.2, 0.6), y=0.55)
    k1, k2, k3 = 20_000, 40_000, 60_000
    drop_w7 = ScenarioEvent.drop_weight(0, 6)
    return {
        # constant training data, skip edge disabled
        "fig4": Scenario(sample, events=(drop_w7,)),
        # training-data changes: inputs at k1, reference at k2
        "fig5": Scenario(
            sample,
            events=(
                drop_w7,
                ScenarioEvent.set_input(k1, 0, 0.15),
                ScenarioEvent.set_input(k1, 1, 0.7),
                ScenarioEvent.set_reference(k2, 0.6),
            ),
        ),
        # topology change: a hidden-layer weight dropped at k1
        "fig6": Scenario(sample, events=(drop_w7, ScenarioEvent.drop_weight(k1, 3))),
        # combined: data change at k1, skip edge dropped at k2, reference at k3
        "fig7": Scenario(
            sample,
            events=(
                ScenarioEvent.set_input(k1, 0, 0.15),
                ScenarioEvent.set_input(k1, 1, 0.8),
                ScenarioEvent.drop_weight(k2, 6),
                ScenarioEvent.set_reference(k3, 0.6),
            ),
        ),
    }
