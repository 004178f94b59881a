"""Online tuning of network weights by one controller per weight.

Every synaptic weight gets its own controller and first-order filter, all
tracking the same (network output, training target) pair; they differ only
in their staggered gains.  A scenario schedules training-data changes and
dropout-style topology events at prescribed iterations, and the loop emits
one trace record per iteration.

Loop order within one iteration: apply events, measure the output with the
current weights, step each enabled controller and filter, clamp, record.
Dropped weights are held at zero with their controller and filter frozen;
restoring a weight re-installs the frozen filter state and resumes
stepping, so a drop/restore pair at the same iteration is an exact no-op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .controller import DEFAULT_DT, ControllerParams, decay, divergence, law, stagger_params
from .dynamics import DEFAULT_TAU, rk4
from .errors import DivergenceError, InvalidEvent, ValidationError
from .network import FeedforwardNet, TrainingSample, default_topology, set_mask, set_weight

__all__ = [
    "Scenario",
    "ScenarioEvent",
    "TraceRecord",
    "apply_event",
    "builtin_scenarios",
    "train_online",
]

EVENT_KINDS = ("set_input", "set_reference", "drop_weight", "restore_weight")


@dataclass(frozen=True, slots=True)
class ScenarioEvent:
    """Timed change to the training data or the network topology.

    ``kind`` is one of set_input (index, value), set_reference (value),
    drop_weight (index), restore_weight (index).  Events at iteration 0
    describe the initial configuration and are applied before the loop.
    """

    at: int
    kind: str
    index: int | None = None
    value: float | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise InvalidEvent(f"unknown event kind {self.kind!r}")
        if self.at < 0:
            raise InvalidEvent(f"event iteration must be >= 0, got {self.at}")
        if self.kind == "set_input" and (self.index is None or self.value is None):
            raise InvalidEvent("set_input needs an input index and a value")
        if self.kind == "set_reference" and self.value is None:
            raise InvalidEvent("set_reference needs a value")
        if self.kind in ("drop_weight", "restore_weight") and self.index is None:
            raise InvalidEvent(f"{self.kind} needs a weight index")

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
    """Complete description of one training run."""

    net: FeedforwardNet
    base_params: ControllerParams
    initial_sample: TrainingSample
    events: tuple[ScenarioEvent, ...] = ()
    horizon: int = 100_000
    stagger_rho: float = 1.0
    tau: float = DEFAULT_TAU
    w_max: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        if not (0.0 < self.stagger_rho <= 1.0):
            raise ValidationError(f"stagger_rho must be in (0, 1], got {self.stagger_rho}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValidationError(f"tau must be finite and positive, got {self.tau}")
        if not (self.w_max > 0.0 and math.isfinite(self.w_max)):
            raise ValidationError(f"w_max must be finite and positive, got {self.w_max}")
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
        for ev in self.events:
            if ev.at > self.horizon:
                raise ValidationError(f"event at iteration {ev.at} is beyond horizon {self.horizon}")
            if ev.at < last_at:
                raise ValidationError("events must be sorted by iteration")
            last_at = ev.at
            if ev.kind == "set_input" and not 0 <= ev.index < n:
                raise ValidationError(f"set_input index {ev.index} out of range [0, {n})")
            if ev.kind in ("drop_weight", "restore_weight") and not 0 <= ev.index < q:
                raise ValidationError(f"{ev.kind} index {ev.index} out of range [0, {q})")
            if ev.kind == "set_reference" and not abs(ev.value) < 1.0:
                raise ValidationError(
                    f"set_reference value must satisfy |y| < 1, got {ev.value}"
                )


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """Full observable state of one iteration.

    ``y`` is the output measured before this iteration's weight update;
    ``w`` holds the post-filter, post-clamp weights and ``u`` the raw
    controller outputs (zero for weights frozen by a drop event).
    """

    k: int
    t: float
    y: float
    y_ref: float
    w: tuple[float, ...]
    u: tuple[float, ...]


def apply_event(
    net: FeedforwardNet, sample: TrainingSample, event: ScenarioEvent
) -> tuple[FeedforwardNet, TrainingSample]:
    """Pure form of event application on (network, active sample).

    drop_weight masks the edge and zeroes the stored weight; restore_weight
    unmasks it.  Controller/filter freezing, and the re-installation of the
    frozen filter state on restore, are the training loop's job: the loop
    skips masked weights entirely and owns the filter states.
    """
    if event.kind == "set_input":
        if not 0 <= event.index < net.input_count:
            raise InvalidEvent(f"set_input index {event.index} out of range")
        x = list(sample.x)
        x[event.index] = float(event.value)
        return net, TrainingSample(x=tuple(x), y=sample.y)
    if event.kind == "set_reference":
        return net, TrainingSample(x=sample.x, y=float(event.value))
    if event.kind in ("drop_weight", "restore_weight"):
        if not 0 <= event.index < net.weight_count:
            raise InvalidEvent(f"{event.kind} index {event.index} out of range")
        if event.kind == "drop_weight":
            return set_weight(set_mask(net, event.index, False), event.index, 0.0), sample
        return set_mask(net, event.index, True), sample
    raise InvalidEvent(f"unknown event kind {event.kind!r}")


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
    # stagger_params gives every controller the base k_alpha, k_beta, dt, init_decay
    k_alpha, k_beta, by_time = base.k_alpha, base.k_beta, base.init_decay == "time"
    kps = [p.kp for p in params]
    kis = [p.ki for p in params]

    # working copies: the loop never touches the scenario's own net
    w = [min(max(v, -w_max), w_max) for v in net.weights]
    mask = list(net.mask)
    x_train = list(scenario.initial_sample.x)
    y_ref = scenario.initial_sample.y
    # flat controller and filter state per weight; ks[i] lags k after a drop
    psis = [0.0] * q
    integrals = [0.0] * q
    ks = [0] * q
    xs = list(w)
    u = [0.0] * q

    events = list(scenario.events)
    ev_pos = 0

    def fire(event: ScenarioEvent) -> None:
        nonlocal y_ref
        if event.kind == "set_input":
            x_train[event.index] = float(event.value)
        elif event.kind == "set_reference":
            y_ref = float(event.value)
        elif event.kind == "drop_weight":
            mask[event.index] = False
            w[event.index] = 0.0
            u[event.index] = 0.0
        elif event.kind == "restore_weight":
            # re-install the clamped frozen filter state so an immediate
            # drop/restore pair is an exact no-op
            mask[event.index] = True
            w[event.index] = min(max(xs[event.index], -w_max), w_max)

    while ev_pos < len(events) and events[ev_pos].at == 0:
        fire(events[ev_pos])
        ev_pos += 1

    for k in range(1, scenario.horizon + 1):
        while ev_pos < len(events) and events[ev_pos].at == k:
            fire(events[ev_pos])
            ev_pos += 1
        y = net.eval_with(w, mask, x_train)
        if not math.isfinite(y):
            raise DivergenceError(f"network output became non-finite: {y}", iteration=k)
        d_k = 0  # the controller step whose decay d holds
        for i in range(q):
            if not mask[i]:
                continue
            kc = ks[i] + 1
            ks[i] = kc
            if kc != d_k:
                d = decay(k_beta, kc, dt, by_time)
                d_k = kc
            psi, integral, ui = law(psis[i], integrals[i], d, kps[i], kis[i], k_alpha, dt, y_ref, y)
            xi = rk4(xs[i], ui, tau, dt)
            if not math.isfinite(xi):  # covers u too (see rk4); the clamp would hide it
                raise divergence(k, psi, integral, ui, xi, f"weight {i}: ")
            psis[i] = psi
            integrals[i] = integral
            u[i] = ui
            xs[i] = xi
            if xi > w_max:
                xi = w_max
            elif xi < -w_max:
                xi = -w_max
            w[i] = xi
        yield TraceRecord(k=k, t=k * dt, y=y, y_ref=y_ref, w=tuple(w), u=tuple(u))


def builtin_scenarios() -> dict[str, Scenario]:
    """The four named training runs, keyed fig4..fig7.

    All share the training sample (0.2, 0.6) -> 0.55, the gain set
    kp = 1, ki = 1/100, k_alpha = 333/2, k_beta = 40, dt = tau = 1e-5,
    uniform gains (rho = 1), zero-initialized weights and |w| <= 1.
    Event iterations are placed well after the measured settling of the
    preceding transient (see scripts/settling_report.py).
    """
    base = ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=40.0, dt=DEFAULT_DT)
    sample = TrainingSample(x=(0.2, 0.6), y=0.55)
    net = default_topology()
    horizon = 100_000
    k1, k2, k3 = 20_000, 40_000, 60_000
    common = dict(
        net=net,
        base_params=base,
        initial_sample=sample,
        horizon=horizon,
        stagger_rho=1.0,
        tau=DEFAULT_TAU,
        w_max=1.0,
    )
    drop_w7 = ScenarioEvent.drop_weight(0, 6)
    return {
        # constant training data, skip edge disabled
        "fig4": Scenario(events=(drop_w7,), **common),
        # training-data changes: inputs at k1, reference at k2
        "fig5": Scenario(
            events=(
                drop_w7,
                ScenarioEvent.set_input(k1, 0, 0.15),
                ScenarioEvent.set_input(k1, 1, 0.7),
                ScenarioEvent.set_reference(k2, 0.6),
            ),
            **common,
        ),
        # topology change: a hidden-layer weight dropped at k1
        "fig6": Scenario(
            events=(drop_w7, ScenarioEvent.drop_weight(k1, 3)),
            **common,
        ),
        # combined: data change at k1, skip edge dropped at k2, reference at k3
        "fig7": Scenario(
            events=(
                ScenarioEvent.set_input(k1, 0, 0.15),
                ScenarioEvent.set_input(k1, 1, 0.8),
                ScenarioEvent.drop_weight(k2, 6),
                ScenarioEvent.set_reference(k3, 0.6),
            ),
            **common,
        ),
    }
