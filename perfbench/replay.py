"""Timing of the hot inner layers by replay.

``controller_step``, ``filter_step``, ``FeedforwardNet.eval_with``,
``matvec`` and the ``TraceRecord`` constructor run 10^5 to 10^6 times per
workload, too often to wrap one call at a time.  Instead they are re-run
after each run of the workload, in timed batches, on the inputs that the
run's own full-resolution trace records.  Every replayed output is compared bit for
bit with the recorded one, so the timings are of the computation the
workload really ran; a mismatch fails the traced run.

Per-call times include the replay loop's own indexing and list stores;
the perf_counter pair around each batch is measured and subtracted.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

BATCH = 1000


def same(a: float, b: float) -> bool:
    """Bit-exact float equality (distinguishes 0.0 from -0.0)."""
    return a == b and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b))


def timer_overhead_ns(samples: int = 2001) -> float:
    xs = []
    for _ in range(samples):
        t0 = perf_counter()
        t1 = perf_counter()
        xs.append(t1 - t0)
    return statistics.median(xs) * 1e9


class LayerTimes:
    """Per-call ns of each batch, call counts and mismatch counts by layer."""

    def __init__(self):
        self.timer_ns = timer_overhead_ns()
        self.batch_ns: dict[str, list[float]] = {}
        self.calls: dict[str, int] = {}
        self.mismatches: dict[str, int] = {}

    def add(self, layer: str, seconds: float, n: int, bad: int) -> None:
        per_call = (seconds * 1e9 - self.timer_ns) / n
        self.batch_ns.setdefault(layer, []).append(per_call)
        self.calls[layer] = self.calls.get(layer, 0) + n
        self.mismatches[layer] = self.mismatches.get(layer, 0) + bad

    def ns(self, layer: str) -> float:
        xs = self.batch_ns.get(layer)
        return statistics.median(xs) if xs else 0.0


def _batches(items):
    for i in range(0, len(items), BATCH):
        yield items[i : i + BATCH]


def _clamp(v: float, bound: float) -> float:
    return bound if v > bound else -bound if v < -bound else v


def replay_train(pm, scenario, records, lt: LayerTimes) -> None:
    """Replay one ``train_online`` run from its records (k = 1..horizon)."""
    step = pm.controller.controller_step
    fstep = pm.dynamics.filter_step
    net = scenario.net
    q = net.weight_count
    params = pm.linsolve.stagger_params(scenario.base_params, q, scenario.stagger_rho)
    dt = scenario.base_params.dt
    w_max = scenario.w_max
    w0 = [_clamp(v, w_max) for v in net.weights]

    # Per iteration, the (weights, mask, input) the network saw, rebuilt from
    # the previous record plus the events of this iteration.
    by_k: dict[int, list] = {}
    for ev in scenario.events:
        by_k.setdefault(ev.at, []).append(ev)
    mask = list(net.mask)
    x = list(scenario.initial_sample.x)
    frozen = list(w0)
    w = list(w0)
    eval_inputs = []
    active = []  # per iteration, the weight mask the controllers stepped under
    for k in range(0, len(records) + 1):
        if k > 1:
            w = list(records[k - 2].w)
        for ev in by_k.get(k, ()):
            if ev.kind == "set_input":
                x[ev.index] = float(ev.value)
            elif ev.kind == "drop_weight":
                frozen[ev.index] = w[ev.index]
                mask[ev.index] = False
                w[ev.index] = 0.0
            elif ev.kind == "restore_weight":
                mask[ev.index] = True
                w[ev.index] = frozen[ev.index]
        if k > 0:
            eval_inputs.append((tuple(w), tuple(mask), tuple(x)))
            active.append(eval_inputs[-1][1])

    ev_fn = net.eval_with
    for batch in _batches(range(len(records))):
        ins = [eval_inputs[k] for k in batch]
        n = len(ins)
        ys = [0.0] * n
        t0 = perf_counter()
        for j in range(n):
            wj, mj, xj = ins[j]
            ys[j] = ev_fn(wj, mj, xj)
        t1 = perf_counter()
        bad = sum(1 for j, k in enumerate(batch) if not same(ys[j], records[k].y))
        lt.add("network", t1 - t0, n, bad)

    for i in range(q):
        st = pm.controller.controller_new(params[i])
        filt = pm.dynamics.FirstOrderFilter(tau=scenario.tau, state=w0[i])
        p = params[i]
        ks = [k for k in range(len(records)) if active[k][i]]
        for batch in _batches(ks):
            refs = [records[k].y_ref for k in batch]
            ys = [records[k].y for k in batch]
            n = len(batch)
            us = [0.0] * n
            t0 = perf_counter()
            for j in range(n):
                st, us[j] = step(st, p, refs[j], ys[j])
            t1 = perf_counter()
            xs = [0.0] * n
            for j in range(n):
                filt = fstep(filt, us[j], dt)
                xs[j] = filt.state
            t2 = perf_counter()
            bad_u = sum(1 for j, k in enumerate(batch) if not same(us[j], records[k].u[i]))
            bad_w = sum(
                1 for j, k in enumerate(batch) if not same(_clamp(xs[j], w_max), records[k].w[i])
            )
            lt.add("controller", t1 - t0, n, bad_u)
            lt.add("dynamics", t2 - t1, n, bad_w)

    make = pm.trainer.TraceRecord
    for batch in _batches(records):
        args = [(r.k, r.t, r.y, r.y_ref, list(r.w), list(r.u)) for r in batch]
        n = len(args)
        out = [None] * n
        t0 = perf_counter()
        for j in range(n):
            k, t, y, r, wl, ul = args[j]
            out[j] = make(k=k, t=k * dt, y=y, y_ref=r, w=tuple(wl), u=tuple(ul))
        t1 = perf_counter()
        bad = sum(1 for j in range(n) if out[j] != batch[j])
        lt.add("record", t1 - t0, n, bad)


def replay_linsolve(pm, problem, records, lt: LayerTimes) -> None:
    """Replay one ``solve_linear`` run from its read-back records."""
    step = pm.controller.controller_step
    fstep = pm.dynamics.filter_step
    matvec = pm.linsolve.matvec
    a = problem.a

    for batch in _batches(records):
        xs = [r.x for r in batch]
        n = len(xs)
        ys = [None] * n
        t0 = perf_counter()
        for j in range(n):
            ys[j] = matvec(a, xs[j])
        t1 = perf_counter()
        bad = sum(
            1
            for j in range(n)
            if not all(same(u, v) for u, v in zip(ys[j], batch[j].y))
        )
        lt.add("matvec", t1 - t0, n, bad)

    y0 = matvec(a, [f.state for f in problem.filters])
    measured = [y0] + [r.y for r in records[:-1]]
    for v, p in enumerate(problem.controllers):
        st = pm.controller.controller_new(p)
        filt = problem.filters[v]
        b = problem.b[v]
        for start in range(0, len(records), BATCH):
            yin = [y[v] for y in measured[start : start + BATCH]]
            n = len(yin)
            us = [0.0] * n
            t0 = perf_counter()
            for j in range(n):
                st, us[j] = step(st, p, b, yin[j])
            t1 = perf_counter()
            xs = [0.0] * n
            for j in range(n):
                filt = fstep(filt, us[j], p.dt)
                xs[j] = filt.state
            t2 = perf_counter()
            got = records[start : start + n]
            bad = sum(1 for j in range(n) if not same(xs[j], got[j].x[v]))
            # the CSV carries no controls: a wrong u shows as a wrong x
            lt.add("controller", t1 - t0, n, 0)
            lt.add("dynamics", t2 - t1, n, bad)
