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
representative.  The trainer keeps per weight only what the law steps,
psi, integral and filter output, and a lag: an enabled weight is its
output clamped, and the law writes the control before it is read.  The
iterations between two events run in one generator function generated
for the segment (``_segment_source``), with each representative's state
in locals: the forward pass written out as ``network.forward_source``
writes it (tanh's fast path, ``elementary.TANH``, once per distinct node
sum, each copy keeping its table row across iterations) and
``controller.LAW`` once per representative, so no per-iteration call but
the decay read and the record's, and tanh's exact path for about one sum
in a thousand.
Dropped weights are held at zero with their controller and filter frozen;
restoring a weight resumes stepping from the frozen state, so a
drop/restore pair at the same iteration is an exact no-op.
A weight the net's mask disables is dropped at iteration 0 by the trainer
itself, before the scenario's own events of iteration 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from struct import pack
from typing import Callable, Iterator, NamedTuple

from . import codegen, network
from .controller import ControllerParams, decays, divergence, law, stagger_params
from .dynamics import DEFAULT_TAU
from .errors import Count, DivergenceError, Index, Positive, Ratio, ValidationError, check_fields
from .network import EVALUATORS_CACHED, FeedforwardNet, TrainingSample, default_topology, forward_source

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

    # working copies: the loop never touches the scenario's own net
    mask = [True] * q
    x_train = list(scenario.initial_sample.x)
    y_ref = scenario.initial_sample.y
    # flat state per weight, what the law steps.  An enabled weight's
    # controller takes its step number k - lag[i] at iteration k: a weight's
    # lag grows by the iterations it spent dropped (dropped_at[i] onward).
    psis = [0.0] * q
    integrals = [0.0] * q
    xs = [min(max(v, -w_max), w_max) for v in net.weights]
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
    starts = sorted(events)

    # a record is built by the C tuple constructor, not the class's __new__
    record = functools.partial(tuple.__new__, TraceRecord)
    copies: list[tuple[int, int]] = []
    for k, end in zip(starts, starts[1:] + [scenario.horizon + 1]):
        # the members of a class take its representative's state, so the
        # events act on each weight's own
        for i, r in copies:
            psis[i] = psis[r]
            integrals[i] = integrals[r]
            xs[i] = xs[r]
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
            elif event.kind == "restore_weight":
                # the frozen state resumes: a drop/restore pair is a no-op
                if not mask[i]:
                    lag[i] += k - dropped_at[i]
                mask[i] = True
        active = [i for i in range(q) if mask[i]]
        # a class of the same gains, lag and state bits steps its lowest
        # index, its representative; every slot of a weight names the
        # representative whose w and u stand for it until the next event
        first: dict[bytes, int] = {}
        slots = list(range(q))
        for i in active:
            slots[i] = first.setdefault(pack("<5dq", params[i].kp, params[i].ki, psis[i], integrals[i], xs[i], lag[i]), i)
        reps, copies = list(first.values()), [(i, r) for i, r in enumerate(slots) if i != r]
        # one decay column per distinct lag, read once per iteration
        lags = sorted({lag[i] for i in active})
        columns = tuple(decays(k_beta, dt, k - n) for n in lags)
        groups = tuple(lags.index(lag[r]) for r in reps)
        run = _segment(net._plan, net.input_count, tuple(mask), tuple(slots), groups)
        gains = tuple(v for r in reps for v in (params[r].kp, params[r].ki))
        state = tuple(v for r in reps for v in (psis[r], integrals[r], xs[r], min(max(xs[r], -w_max), w_max)))
        last, y, *ends = yield from run(
            range(k, end), tuple(x_train), y_ref, dt, tau, k_alpha, w_max, -w_max, next, record, columns, gains, state
        )
        if y - y != 0.0:
            raise DivergenceError(f"network output became non-finite: {y}", iteration=last)
        for r, (psi, integral, x, ur) in zip(reps, ends):
            if x - x != 0.0:  # the lowest diverging weight, before its clamp
                raise divergence(last, psi, integral, ur, x, f"weight {r}: ")
            psis[r], integrals[r], xs[r] = psi, integral, x


@functools.lru_cache(maxsize=EVALUATORS_CACHED)
def _segment(plan: tuple, n_inputs: int, mask: tuple, slots: tuple, groups: tuple) -> Callable:
    """The generator function of ``_segment_source``, compiled by
    ``codegen.define`` with the globals of ``paramodel.network``, which its
    forward pass reads as the evaluator's does.  The last
    ``EVALUATORS_CACHED`` are kept, keyed by the values the text is written
    from: it holds no value of the run, so runs of one topology and one
    pattern of classes share it whatever their gains, data and bounds."""
    return codegen.define(_segment_source(plan, n_inputs, mask, slots, groups), "segment", vars(network))


def _segment_source(plan: tuple, n_inputs: int, mask: tuple, slots: tuple, groups: tuple) -> str:
    """The text of the training loop between two events, ``segment(ks, x,
    y_ref, dt, tau, k_alpha, w_max, w_min, next, record, columns, gains,
    state)``, a generator.

    It runs iterations ``k in ks`` of a net of plan ``plan`` under ``mask``,
    whose weight ``i`` is stood for by the representative ``slots[i]``; the
    representatives, the enabled weights that are their own slot, step
    in the lag group of the same place in ``groups``.  Representative r
    keeps psi, integral, filter output, control and weight in the locals
    ``psi<r>``, ``integral<r>``, ``xf<r>``, ``u<r>`` and ``w<r>``, all but
    ``u<r>`` unpacked from ``state`` (four per representative, the weight
    being the output clamped); ``u<r>`` is bound to ``0.0`` in the head,
    so the ``return`` holds if y is non-finite at the first iteration.
    Its gains ``kp<r>`` and ``ki<r>`` come from ``gains``; the inputs are
    unpacked from ``x`` and lag group g reads ``column<g>`` of ``columns``.
    The head of ``network.forward_source``'s pass runs once, before the
    loop, so each copy of tanh's fast path keeps its table row from one
    iteration to the next.  An iteration runs the
    forward pass of ``network.forward_source`` on those weights, tests y,
    writes the law's shared inputs once, ``a<g> = k_alpha * next(column<g>) - y``
    per group and ``e = y_ref - y``, and writes out ``LAW`` per representative
    (``controller.law``, reading ``a<g>`` of its group as ``a``), then tests
    each filter output and clamps it to ``[w_min, w_max]`` into the weight,
    in index order, and yields ``record((k, k * dt, y, y_ref, w, u))``
    whose ``w`` and ``u`` name each weight's representative (``0.0`` for a
    masked weight, which is held at zero): ``record`` takes the record's
    fields as one tuple, as ``tuple.__new__`` bound to the record class
    does.
    It returns ``(k, y, (psi<r>, integral<r>, xf<r>, u<r>), ...)`` at
    the end of ``ks``, or at once when y or a filter output is non-finite:
    each test breaks out of the loop to the one ``return``, so the text
    grows in proportion to the representatives, not to their square.
    """
    head, forward, out = forward_source(plan, n_inputs, mask, slots, "w{}")
    reps = [i for i, (on, r) in enumerate(zip(mask, slots)) if on and r == i]
    lagged = range(len(set(groups)))

    def bind(names: list[str], value: str) -> list[str]:
        return [f"{', '.join(names)}, = {value}"] if names else []

    head += bind([f"column{g}" for g in lagged], "columns")
    head += bind([f"{v}{r}" for r in reps for v in ("kp", "ki")], "gains")
    head += bind([f"{v}{r}" for r in reps for v in ("psi", "integral", "xf", "w")], "state")
    head += [f"u{r} = 0.0" for r in reps]
    loop = [
        *forward,
        f"y = {out}",
        "if y - y != 0.0:",
        "    break",
        *(f"a{g} = k_alpha * next(column{g}) - y" for g in lagged),
        "e = y_ref - y",
    ]
    for r, g in zip(reps, groups):
        names = dict(psi=f"psi{r}", integral=f"integral{r}", u=f"u{r}", x=f"xf{r}", kp=f"kp{r}", ki=f"ki{r}")
        loop += law(dict(a=f"a{g}", e="e"), names)
    for r in reps:
        loop += [
            f"if xf{r} - xf{r} != 0.0:",
            "    break",
            f"if xf{r} > w_max:",
            f"    w{r} = w_max",
            f"elif xf{r} < w_min:",
            f"    w{r} = w_min",
            "else:",
            f"    w{r} = xf{r}",
        ]
    w, u = ([f"{v}{r}" if on else "0.0" for r, on in zip(slots, mask)] for v in ("w", "u"))
    loop.append(f"yield record((k, k * dt, y, y_ref, ({', '.join(w)},), ({', '.join(u)},)))")
    params = ("ks", "x", "y_ref", "dt", "tau", "k_alpha", "w_max", "w_min", "next", "record", "columns", "gains", "state")
    ends = "".join(f", (psi{r}, integral{r}, xf{r}, u{r})" for r in reps)
    body = [*head, "h = 0.5 * dt", "for k in ks:", *(f"    {line}" for line in loop), "return k, y" + ends]
    return codegen.text("segment", params, body)


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
