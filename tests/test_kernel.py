"""The flat step kernel of both simulation loops against a step-by-step reference.

The reference loops below run the documented algorithm one public call at
a time: ``controller_step`` and ``filter_step`` on immutable state objects
for every enabled weight or unknown.  ``train_online`` and
``solve_linear`` keep flat float state and call the law and RK4 directly,
so they must agree with the reference bit for bit (``-0.0`` told apart
from ``0.0``), and must report a divergence at the same loop iteration,
for the same weight or unknown, naming the same quantity.
"""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramodel import (
    ControllerParams,
    DivergenceError,
    FirstOrderFilter,
    LinearTrackingProblem,
    Scenario,
    ScenarioEvent,
    TrainingSample,
    controller_new,
    controller_step,
    default_topology,
    filter_step,
    matvec,
    set_weight,
    solve_linear,
    stagger_params,
    train_online,
)


def bits(values) -> tuple[str, ...]:
    return tuple(v.hex() for v in values)


def failure(err: DivergenceError, who: str, iteration: int) -> tuple[int, str]:
    """(loop iteration, message) the loops report for a reference error
    raised by controller_step or filter_step in ``who``'s step."""
    core = re.sub(r" \(iteration \d+\)$", "", str(err))
    return iteration, f"{who}: {core} (iteration {iteration})"


def reference_train(scenario: Scenario):
    """(records as bits, failure or None) of the documented training loop."""
    net = scenario.net
    q = net.weight_count
    params = stagger_params(scenario.base_params, q, scenario.stagger_rho)
    dt, w_max = scenario.base_params.dt, scenario.w_max
    w = [min(max(v, -w_max), w_max) for v in net.weights]
    mask = list(net.mask)
    x_train = list(scenario.initial_sample.x)
    y_ref = scenario.initial_sample.y
    states = [controller_new(p) for p in params]
    filters = [FirstOrderFilter(tau=scenario.tau, state=w[i]) for i in range(q)]
    u = [0.0] * q
    records = []
    for k in range(scenario.horizon + 1):
        for ev in scenario.events:
            if ev.at != k:
                continue
            if ev.kind == "set_input":
                x_train[ev.index] = ev.value
            elif ev.kind == "set_reference":
                y_ref = ev.value
            elif ev.kind == "drop_weight":
                mask[ev.index], w[ev.index], u[ev.index] = False, 0.0, 0.0
            else:
                mask[ev.index] = True
                w[ev.index] = min(max(filters[ev.index].state, -w_max), w_max)
        if k == 0:
            continue
        y = net.eval_with(w, mask, x_train)
        for i in range(q):
            if not mask[i]:
                continue
            try:
                states[i], u[i] = controller_step(states[i], params[i], y_ref, y)
                filters[i] = filter_step(filters[i], u[i], dt)
            except DivergenceError as err:
                return records, failure(err, f"weight {i}", k)
            w[i] = min(max(filters[i].state, -w_max), w_max)
        records.append((k, k * dt, y, y_ref) + bits(w) + bits(u))
    return records, None


def kernel_train(scenario: Scenario):
    records = []
    try:
        for r in train_online(scenario):
            records.append((r.k, r.t, r.y, r.y_ref) + bits(r.w) + bits(r.u))
    except DivergenceError as err:
        return records, (err.iteration, str(err))
    return records, None


def reference_linsolve(problem: LinearTrackingProblem):
    """(rows of x then y as bits, failure or None) of the documented solver."""
    n = len(problem.b)
    states = [controller_new(p) for p in problem.controllers]
    filters = list(problem.filters)
    y = matvec(problem.a, [f.state for f in filters])
    rows = []
    for k in range(1, problem.horizon + 1):
        for j in range(n):
            p = problem.controllers[j]
            try:
                states[j], u = controller_step(states[j], p, problem.b[j], y[j])
                filters[j] = filter_step(filters[j], u, p.dt)
            except DivergenceError as err:
                return rows, failure(err, f"unknown {j}", k)
        x = tuple(f.state for f in filters)
        y = matvec(problem.a, x)
        rows.append(bits(x + y))
    return rows, None


def kernel_linsolve(problem: LinearTrackingProblem):
    try:
        x_trace, y_trace = solve_linear(problem)
    except DivergenceError as err:
        return None, (err.iteration, str(err))
    return [bits(x + y) for x, y in zip(x_trace, y_trace)], None


def assert_same_train(scenario: Scenario):
    ref_records, ref_fail = reference_train(scenario)
    got_records, got_fail = kernel_train(scenario)
    assert got_fail == ref_fail
    assert got_records == ref_records


def assert_same_linsolve(problem: LinearTrackingProblem):
    ref_rows, ref_fail = reference_linsolve(problem)
    got_rows, got_fail = kernel_linsolve(problem)
    assert got_fail == ref_fail
    if ref_fail is None:
        assert got_rows == ref_rows


gains = st.builds(
    ControllerParams,
    kp=st.floats(0.1, 4.0),
    ki=st.floats(0.001, 0.05),
    # k_alpha = 0 with a zero output and a negative reference gives psi = 0
    # and u = -0.0 at every step
    k_alpha=st.just(0.0) | st.floats(0.0, 400.0),
    k_beta=st.sampled_from([0.0, 4.0, 40.0, 250.0]),
    dt=st.sampled_from([1e-5, 2e-5]),
    init_decay=st.sampled_from(["time", "index"]),
)


@st.composite
def scenarios(draw):
    q = 7
    horizon = draw(st.integers(20, 150))
    at = st.integers(0, horizon)
    events = []
    # drop/restore pairs at the same or at different iterations, including
    # restores at iteration 0 and restores of weights never dropped
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, q - 1))
        drop = draw(at)
        events.append(ScenarioEvent.drop_weight(drop, i))
        events.append(ScenarioEvent.restore_weight(draw(st.integers(drop, horizon)), i))
    if draw(st.booleans()):
        events.append(ScenarioEvent.restore_weight(0, draw(st.integers(0, q - 1))))
    for _ in range(draw(st.integers(0, 2))):
        events.append(ScenarioEvent.set_input(draw(at), draw(st.integers(0, 1)), draw(st.floats(-1.0, 1.0))))
    if draw(st.booleans()):
        events.append(ScenarioEvent.set_reference(draw(at), draw(st.floats(-0.9, 0.9))))
    net = default_topology()
    if draw(st.booleans()):
        for i in range(q):
            net = set_weight(net, i, draw(st.floats(-1.5, 1.5)))
    return Scenario(
        net=net,
        base_params=draw(gains),
        initial_sample=TrainingSample(
            x=(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))), y=draw(st.floats(-0.9, 0.9))
        ),
        events=tuple(sorted(events, key=lambda ev: ev.at)),
        horizon=horizon,
        stagger_rho=draw(st.floats(0.2, 1.0)),
        tau=draw(st.sampled_from([1e-5, 3e-5])),
        w_max=draw(st.floats(0.2, 1.0)),
    )


@st.composite
def problems(draw):
    n = draw(st.integers(1, 3))
    return LinearTrackingProblem(
        a=[[draw(st.floats(-3.0, 9.0)) for _ in range(n)] for _ in range(n)],
        b=[draw(st.floats(-8.0, 8.0)) for _ in range(n)],
        controllers=[draw(gains) for _ in range(n)],
        filters=[
            FirstOrderFilter(tau=draw(st.sampled_from([1e-5, 3e-5])), state=draw(st.floats(-1.0, 1.0)))
            for _ in range(n)
        ],
        horizon=draw(st.integers(1, 200)),
    )


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_train_online_matches_reference(scenario):
    assert_same_train(scenario)


@settings(max_examples=60, deadline=None)
@given(problems())
def test_solve_linear_matches_reference(problem):
    assert_same_linsolve(problem)


def diverging_scenario(tau: float = 1e-5, **gain_overrides) -> Scenario:
    """All weights dropped at 0 and weight 0 restored at 5, so controller
    0 takes its first step at loop iteration 5."""
    gain = dict(kp=1e10, ki=0.01, k_alpha=1e300, k_beta=40.0, dt=1e-5)
    gain.update(gain_overrides)
    events = [ScenarioEvent.drop_weight(0, i) for i in range(7)]
    return Scenario(
        net=default_topology(),
        base_params=ControllerParams(**gain),
        initial_sample=TrainingSample(x=(0.2, 0.6), y=0.55),
        events=(*events, ScenarioEvent.restore_weight(5, 0)),
        horizon=10,
        tau=tau,
    )


def test_divergence_reports_loop_iteration_and_weight():
    with pytest.raises(DivergenceError) as err:
        list(train_online(diverging_scenario()))
    assert err.value.iteration == 5
    assert str(err.value).startswith("weight 0: controller state became non-finite: psi=inf")


@pytest.mark.parametrize(
    "scenario",
    [
        diverging_scenario(),
        # finite controls, but the RK4 stages overflow at this tau
        diverging_scenario(tau=1e-300, kp=1.0, k_alpha=166.5),
    ],
    ids=["controller", "filter"],
)
def test_train_divergence_matches_reference(scenario):
    assert reference_train(scenario)[1] is not None
    assert_same_train(scenario)


@pytest.mark.parametrize(
    "gain, tau",
    [(dict(kp=1e308, k_alpha=2.0, k_beta=0.0), 1e-5), (dict(), 1e-300)],
    ids=["controller", "filter"],
)
def test_linsolve_divergence_matches_reference(gain, tau):
    good = ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=4.0, dt=1e-5)
    problem = LinearTrackingProblem(
        a=((2.0, 0.3), (0.4, 1.5)),
        b=(1.0, 0.7),
        controllers=(good, dataclasses.replace(good, **gain)),
        filters=(FirstOrderFilter(tau=1e-5), FirstOrderFilter(tau=tau)),
        horizon=50,
    )
    ref_fail = reference_linsolve(problem)[1]
    assert ref_fail is not None and "unknown 1: " in ref_fail[1]
    assert_same_linsolve(problem)
