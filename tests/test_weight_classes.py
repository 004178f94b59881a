"""Which controllers ``train_online`` steps.

Controllers with the same gains, lag and state bits take the same step,
so the trainer steps the lowest index of each such class and copies the
result to the others.  It generates one loop per event segment for the
representatives it steps (``trainer._segment``); these tests watch the
representatives of each segment, one list per iteration the segment
begins.  The traces themselves are checked against a per-weight
reference loop in ``test_kernel.py`` and ``test_step_all.py``.
"""

from __future__ import annotations

import dataclasses

import pytest
import test_kernel
from test_step_all import lagging_scenario

from paramodel import ScenarioEvent, builtin_scenarios, default_topology, set_weight, train_online
from paramodel import trainer


@pytest.fixture
def stepped(monkeypatch):
    """The representatives stepped at every iteration the trainer begins,
    in order: a segment's, once per value its loop draws from ``ks``."""
    calls = []
    segment = trainer._segment

    def watch(plan, n_inputs, mask, slots, groups):
        run = segment(plan, n_inputs, mask, slots, groups)
        reps = [i for i, r in enumerate(slots) if mask[i] and r == i]

        def counted(ks, *args):
            return run((calls.append(reps) or k for k in ks), *args)

        return counted

    monkeypatch.setattr(trainer, "_segment", watch)
    return calls


def test_uniform_gains_step_one_controller(stepped):
    # fig4 and fig7 shaped: the skip edge dropped from the start, or later
    fig4, fig7 = builtin_scenarios()["fig4"], builtin_scenarios()["fig7"]
    list(train_online(dataclasses.replace(fig4, horizon=300)))
    assert stepped == [[0]] * 300
    events = (ScenarioEvent.set_input(100, 0, 0.15), ScenarioEvent.drop_weight(200, 6))
    stepped.clear()
    list(train_online(dataclasses.replace(fig7, horizon=300, events=events)))
    assert stepped == [[0]] * 300


def test_staggered_gains_step_every_enabled_controller(stepped):
    fig4 = dataclasses.replace(builtin_scenarios()["fig4"], horizon=50, stagger_rho=0.5)
    list(train_online(fig4))
    assert stepped == [[0, 1, 2, 3, 4, 5]] * 50


def test_one_controller_per_distinct_lag(stepped):
    # lags 0, then 0 and 24 from iteration 25, then 0, 30 and 24 from 40
    list(train_online(lagging_scenario()))
    assert stepped == [[0]] * 24 + [[0, 5]] * 15 + [[0, 2, 5]] * 81


def test_a_zero_of_either_sign_is_its_own_class(stepped):
    # -0.0 == 0.0, but the two have other bits: they must not share a step
    net = default_topology()
    for i in (1, 4):
        net = set_weight(net, i, -0.0)
    scenario = lagging_scenario(net=net, events=())
    list(train_online(scenario))
    assert stepped == [[0, 1]] * scenario.horizon
    test_kernel.assert_same_train(scenario)


@pytest.mark.parametrize("tau, quantity", [(1e-5, "controller"), (1e-300, "filter")])
def test_a_diverging_class_names_its_lowest_weight(stepped, tau, quantity):
    # weights 2, 4 and 5 come back together at iteration 5 and diverge in
    # their first step: one class, stepped once, named by its lowest index
    gains = {} if quantity == "controller" else dict(kp=1.0, k_alpha=166.5)
    scenario = test_kernel.diverging_scenario(tau=tau, **gains)
    drops = tuple(ev for ev in scenario.events if ev.kind == "drop_weight")
    scenario = dataclasses.replace(scenario, events=drops + tuple(ScenarioEvent.restore_weight(5, i) for i in (2, 4, 5)))
    _, fail = test_kernel.kernel_train(scenario)
    assert stepped[-1] == [2]
    assert fail[0] == 5 and fail[1].startswith(f"weight 2: {quantity} state became non-finite")
    assert fail == test_kernel.reference_train(scenario)[1]
