"""Both simulation loops against a step-by-step reference.

The reference loops below run the documented algorithm one public call at
a time: ``controller_step`` and ``filter_step`` on immutable state objects
for every enabled weight or unknown.  ``train_online`` runs a loop
generated per event segment, which writes the text of the law,
``controller.LAW``, out once per class of identical controllers on locals
(it steps one controller of each class and copies its state to the rest
at the next event), beside the forward pass written out inline;
``solve_linear`` runs a loop generated per shape of problem, which
writes ``LAW`` out once per unknown.  So both must agree with the
reference bit for bit (``-0.0`` told apart from ``0.0``), and must
report a divergence at the same loop iteration, for the same weight or unknown, naming the same
quantity.  The loops' bookkeeping (events, lags, groups, classes,
records, the forward pass, the rows of A x and the finiteness tests) is
what this checks: ``controller_step`` and ``filter_step`` are views of
``controller.step``, itself built from ``LAW``, so
``tests/test_step_all.py`` re-runs these reference loops with the law and
the RK4 step written out literally, to check the law's arithmetic.
"""

from __future__ import annotations

import dataclasses
import math
import re

import pytest
from hypothesis import example, given, settings
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
    set_mask,
    set_weight,
    solve_linear,
    stagger_params,
    train_online,
)
from paramodel.linsolve import PRODUCT_TERMS, _loop_args


def bits(values) -> tuple[str, ...]:
    return tuple(v.hex() for v in values)


def failure(err: DivergenceError, who: str, iteration: int) -> tuple[int, str]:
    """(loop iteration, message) the loops report for a reference error
    raised by controller_step or filter_step in ``who``'s step."""
    core = re.sub(r" \(iteration \d+\)$", "", str(err))
    return iteration, f"{who}: {core} (iteration {iteration})"


def reference_train(scenario: Scenario, outputs: list | None = None):
    """(records as bits, failure or None) of the documented training loop;
    the filter outputs of each recorded iteration, after its step, are
    appended to ``outputs`` if it is given."""
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
    # a weight masked at the start is held at zero, as if dropped at 0
    w = [w[i] if mask[i] else 0.0 for i in range(q)]
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
        if outputs is not None:
            outputs.append(tuple(f.state for f in filters))
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
        # every x is finite here, but A x can still overflow
        if not all(map(math.isfinite, y)):
            return rows, (k, f"measured output became non-finite: {y} (iteration {k})")
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
    elif draw(st.booleans()):
        # one start for every weight, so that with uniform gains controllers
        # share a step; a zero of either sign, or a start above w_max
        v = draw(st.just(0.0) | st.sampled_from([1.2, -1.5]) | st.floats(-1.5, 1.5))
        for i in range(q):
            # -0.0 beside 0.0: equal, but other bits, so another class
            net = set_weight(net, i, -v if v == 0.0 and draw(st.booleans()) else v)
    # weights masked from the start, as built-in nets never are
    for i in draw(st.sets(st.integers(0, q - 1), max_size=2)):
        net = set_mask(net, i, False)
    return Scenario(
        net=net,
        base_params=draw(gains),
        initial_sample=TrainingSample(
            x=(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))), y=draw(st.floats(-0.9, 0.9))
        ),
        events=tuple(sorted(events, key=lambda ev: ev.at)),
        horizon=horizon,
        # uniform gains about half the time: floats(0.2, 1.0) almost never draws 1
        stagger_rho=draw(st.just(1.0) | st.floats(0.2, 1.0)),
        tau=draw(st.sampled_from([1e-5, 3e-5])),
        w_max=draw(st.floats(0.2, 1.0)),
    )


@st.composite
def problems(draw):
    """1-8 unknowns in 1-3 (k_alpha, k_beta, dt, tau) groups (fewer when two
    draws are equal), with kp and ki drawn per unknown."""
    n = draw(st.integers(1, 8))
    groups = draw(st.lists(st.tuples(gains, st.sampled_from([1e-5, 3e-5])), min_size=1, max_size=3))
    controllers, filters = [], []
    for _ in range(n):
        params, tau = draw(st.sampled_from(groups))
        own = draw(gains)
        controllers.append(dataclasses.replace(params, kp=own.kp, ki=own.ki))
        filters.append(FirstOrderFilter(tau=tau, state=draw(st.floats(-1.0, 1.0))))
    return LinearTrackingProblem(
        a=[[draw(st.floats(-3.0, 9.0)) for _ in range(n)] for _ in range(n)],
        b=[draw(st.floats(-8.0, 8.0)) for _ in range(n)],
        controllers=controllers,
        filters=filters,
        horizon=draw(st.integers(1, 200)),
    )


def saturated_restore() -> Scenario:
    """Weight 3 is dropped at 40 and restored at 60 while it sits at w_max
    with its filter output beyond it: the reference is out of the net's
    reach at this w_max, so every weight saturates."""
    return Scenario(
        TrainingSample(x=(0.2, 0.6), y=0.9),
        base_params=ControllerParams(kp=4.0, ki=0.05, k_alpha=400.0, dt=2e-5),
        events=(ScenarioEvent.drop_weight(40, 3), ScenarioEvent.restore_weight(60, 3)),
        horizon=80,
        w_max=0.2,
    )


def test_the_saturated_restore_restores_an_output_beyond_w_max():
    scenario, outputs = saturated_restore(), []
    records, failed = reference_train(scenario, outputs)
    assert failed is None
    # iteration 39, the last before the drop: weight 3 at w_max (a record
    # holds k, t, y and y_ref, then w), its filter output beyond it and
    # frozen until the restore
    assert records[38][0] == 39 and records[38][4 + 3] == scenario.w_max.hex()
    assert outputs[38][3] > scenario.w_max
    assert outputs[58][3] == outputs[38][3]


@settings(max_examples=60, deadline=None)
@given(scenarios())
@example(saturated_restore())
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


def test_divergence_of_the_network_output():
    # finite weights and inputs whose products overflow: inf - inf in h1
    scenario = Scenario(
        net=dataclasses.replace(default_topology(), weights=(1e308, -1e308) + (0.0,) * 5),
        initial_sample=TrainingSample(x=(1e308, 1e308), y=0.5),
        w_max=1e308,
    )
    with pytest.raises(DivergenceError) as err:
        list(train_online(scenario))
    assert err.value.iteration == 1
    assert str(err.value) == "network output became non-finite: nan (iteration 1)"


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


def test_linsolve_overflow_of_a_finite_x_matches_reference():
    # x stays finite, but A x overflows: the measured y is tested itself
    problem = LinearTrackingProblem(
        a=((1e305,),),
        b=(1e300,),
        controllers=(ControllerParams(kp=1.0, ki=1.0, k_alpha=1e4, k_beta=0.0),),
        filters=(FirstOrderFilter(tau=1e-5),),
        horizon=5,
    )
    expected = (1, "measured output became non-finite: (inf,) (iteration 1)")
    assert reference_linsolve(problem) == ([], expected)
    assert kernel_linsolve(problem) == (None, expected)


def test_solve_linear_past_the_written_out_product_matches_reference():
    # a side of 65 takes matvec, called on the x tuple by the generated
    # loop; two groups, one of them at another dt and tau
    n = math.isqrt(PRODUCT_TERMS) + 1
    a = tuple(tuple((-1.0) ** (i + j) * (i + 1) / (j + 1) + (2.0 * n if i == j else 0.0) for j in range(n)) for i in range(n))
    controllers = list(stagger_params(ControllerParams(k_beta=4.0), n, 0.9))
    filters = [FirstOrderFilter(state=0.01 * j) for j in range(n)]
    for j in range(1, n, 3):
        controllers[j] = dataclasses.replace(controllers[j], dt=2e-5)
        filters[j] = FirstOrderFilter(tau=3e-5, state=filters[j].state)
    problem = LinearTrackingProblem(
        a=a, b=tuple(1.0 + 0.1 * j for j in range(n)), controllers=controllers, filters=filters, horizon=30
    )
    assert _loop_args(problem)[0][2] is False
    assert reference_linsolve(problem)[1] is None
    assert_same_linsolve(problem)


def test_a_row_sum_that_overflows_stops_nothing():
    # every y is about 1.5e308, finite, and their sum is inf at every
    # iteration; ki = 0 keeps u = -0.0, and tau = 1 keeps each RK4 step finite
    good = ControllerParams(kp=1e-3, ki=0.0, k_alpha=166.5, k_beta=4.0, dt=1e-5)
    problem = LinearTrackingProblem(
        a=((6.0, 0.0, 0.0), (0.0, 6.0, 0.0), (0.0, 0.0, 6.0)),
        b=(1.0, 2.0, 3.0),
        controllers=(good, dataclasses.replace(good, kp=2e-3), dataclasses.replace(good, k_beta=40.0)),
        filters=(FirstOrderFilter(tau=1.0, state=2.5e307),) * 3,
        horizon=60,
    )
    ref_rows, ref_fail = reference_linsolve(problem)
    assert ref_fail is None and len(ref_rows) == 60
    x_trace, y_trace = solve_linear(problem)
    assert all(math.isfinite(v) for y in y_trace for v in y)
    assert all(y[0] + y[1] + y[2] == math.inf for y in y_trace)
    assert_same_linsolve(problem)
