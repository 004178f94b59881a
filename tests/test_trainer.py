"""Training loop: events, freezing, clamping, determinism, settling."""

from __future__ import annotations

import dataclasses
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramodel import (
    ControllerParams,
    DivergenceError,
    LinsolveRecord,
    Scenario,
    ScenarioEvent,
    TraceRecord,
    TrainingSample,
    ValidationError,
    builtin_problem,
    builtin_scenarios,
    default_topology,
    forward,
    set_mask,
    set_weight,
    solve_linear,
    train_online,
)
from paramodel.config_io import RunConfig, config_from_dict, read_trace, run_records, write_trace
from paramodel.linsolve import as_records

from conftest import SETTLE_BUDGET, FIG4_SETTLED_FROM, TRACK_TOL, event_resettled_within, settled_from

BASE = ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=40.0, dt=1e-5)


def small_scenario(horizon=200, events=(), sample=None, **kw):
    return Scenario(
        net=default_topology(),
        base_params=BASE,
        initial_sample=sample or TrainingSample(x=(0.2, 0.6), y=0.55),
        events=tuple(events),
        horizon=horizon,
        **kw,
    )


def test_zero_reference_stays_zero():
    params = ControllerParams(kp=1.0, ki=0.01, k_alpha=0.0, k_beta=40.0, dt=1e-5)
    scenario = Scenario(
        net=default_topology(),
        base_params=params,
        initial_sample=TrainingSample(x=(0.2, 0.6), y=0.0),
        horizon=200,
    )
    for rec in train_online(scenario):
        assert rec.y == 0.0
        assert rec.w == (0.0,) * 7
        assert rec.u == (0.0,) * 7


def test_trace_indexing_and_time():
    s = small_scenario(horizon=50)
    recs = list(train_online(s))
    assert [r.k for r in recs] == list(range(1, 51))
    for r in recs:
        assert r.t == r.k * BASE.dt
        assert r.y_ref == 0.55


def test_records_are_plain_trace_records(tmp_path):
    # the loops, as_records and the trace reader build records by the C
    # tuple constructor, not by calling the class; they must be
    # indistinguishable from ones constructed by position or keyword
    problem = dataclasses.replace(builtin_problem(), horizon=20)
    scenario = small_scenario(horizon=20)
    solved = as_records(problem, *solve_linear(problem))
    trained = list(train_online(scenario))
    solved += run_records(RunConfig(mode="linsolve", problem=problem))
    trained += run_records(RunConfig(mode="train", scenario=scenario))
    for name, records in (("train", trained), ("linsolve", solved)):
        path = str(tmp_path / f"{name}.csv")
        write_trace(records, path)
        records += read_trace(path)
    for cls, records in ((TraceRecord, trained), (LinsolveRecord, solved)):
        assert not hasattr(cls, "__post_init__")
        for r in records:
            assert type(r) is cls and len(r) == len(cls._fields)
            made = cls(**{name: getattr(r, name) for name in cls._fields})
            assert r == made == cls(*r) and hash(r) == hash(made)
            assert r._asdict() == made._asdict() and cls(**r._asdict()) == r
            replaced = r._replace(k=0)
            assert type(replaced) is cls and replaced == made._replace(k=0)
            back = pickle.loads(pickle.dumps(r))
            assert type(back) is cls and back == r
            with pytest.raises(AttributeError):
                r.y = 0.0
    # each run twice, then both runs read back
    for records in (trained, solved):
        assert len(records) == 80
        assert records[:20] * 4 == records


def test_no_record_is_built_by_calling_its_class(monkeypatch, tmp_path):
    # the records of the loops, as_records and the trace parser all go
    # through tuple.__new__ bound to the class, not the class's __new__
    def refused(cls, *args, **kwargs):
        raise AssertionError(f"{cls.__name__} called")

    problem = dataclasses.replace(builtin_problem(), horizon=20)
    for cls in (TraceRecord, LinsolveRecord):
        monkeypatch.setattr(cls, "__new__", refused)
    for records in (list(train_online(small_scenario(horizon=20))), as_records(problem, *solve_linear(problem))):
        path = str(tmp_path / "trace.csv")
        write_trace(records, path)
        assert read_trace(path) == records


def test_determinism_bit_identical():
    s = small_scenario(horizon=2_000)
    assert list(train_online(s)) == list(train_online(s))


def test_scenario_never_mutated():
    net = default_topology()
    s = Scenario(
        net=net,
        base_params=BASE,
        initial_sample=TrainingSample(x=(0.2, 0.6), y=0.55),
        events=(ScenarioEvent.drop_weight(0, 6), ScenarioEvent.set_reference(50, 0.3)),
        horizon=100,
    )
    list(train_online(s))
    assert net.weights == (0.0,) * 7
    assert net.mask == (True,) * 7
    assert s.initial_sample.y == 0.55


def test_uniform_gains_move_weights_together():
    # rho = 1: every enabled controller sees the same error with the same
    # gains, so all seven weights stay identical
    s = small_scenario(horizon=150)
    last = None
    for rec in train_online(s):
        assert len(set(rec.w)) == 1
        last = rec
    assert last.w[0] != 0.0


def test_staggered_gains_split_weights():
    s = small_scenario(horizon=150, stagger_rho=0.5)
    last = list(train_online(s))[-1]
    assert len(set(last.w)) > 1
    # faster (earlier) controllers accumulate more
    assert abs(last.w[0]) > abs(last.w[6])


def test_dropped_weight_is_exactly_zero():
    events = (ScenarioEvent.drop_weight(0, 6),)
    for rec in train_online(small_scenario(horizon=300, events=events)):
        assert rec.w[6] == 0.0
        assert rec.u[6] == 0.0


def test_drop_midrun_zeroes_and_freezes():
    events = (ScenarioEvent.drop_weight(100, 3),)
    recs = list(train_online(small_scenario(horizon=200, events=events)))
    for rec in recs:
        if rec.k < 100:
            assert rec.w[3] != 0.0
        else:
            assert rec.w[3] == 0.0
            assert rec.u[3] == 0.0


def test_drop_then_restore_same_iteration_is_noop():
    events = (
        ScenarioEvent.drop_weight(100, 5),
        ScenarioEvent.restore_weight(100, 5),
    )
    plain = list(train_online(small_scenario(horizon=200)))
    paired = list(train_online(small_scenario(horizon=200, events=events)))
    assert plain == paired


def test_restore_resumes_from_frozen_state():
    events = (
        ScenarioEvent.drop_weight(80, 5),
        ScenarioEvent.restore_weight(120, 5),
    )
    recs = list(train_online(small_scenario(horizon=200, events=events)))
    by_k = {r.k: r for r in recs}
    assert by_k[100].w[5] == 0.0
    # the filter held its pre-drop state, so the weight comes back near it
    pre = by_k[79].w[5]
    post = by_k[121].w[5]
    assert post != 0.0
    assert abs(post - pre) < 0.5 * abs(pre) + 1e-6


def test_reference_change_recorded():
    events = (ScenarioEvent.set_reference(100, 0.6),)
    for rec in train_online(small_scenario(horizon=150, events=events)):
        assert rec.y_ref == (0.55 if rec.k < 100 else 0.6)


def test_set_input_changes_measurement():
    events = (ScenarioEvent.set_input(100, 0, 0.15),)
    recs = list(train_online(small_scenario(horizon=150, events=events)))
    # weights move identically (rho = 1), so y jumps when x1 changes
    by_k = {r.k: r for r in recs}
    w = by_k[99].w
    net = default_topology()
    for i, v in enumerate(w):
        net = set_weight(net, i, v)
    assert by_k[100].y == forward(net, (0.15, 0.6))


def test_trace_self_consistency():
    # each recorded y is the forward evaluation of the previous record's
    # weights on the active sample, bit for bit
    s = small_scenario(horizon=300)
    recs = list(train_online(s))
    net = s.net
    for prev, cur in zip(recs, recs[1:]):
        assert cur.y == net.eval_with(prev.w, [True] * 7, (0.2, 0.6))


def test_scenario_validation():
    with pytest.raises(ValidationError):  # unreachable reference
        small_scenario(sample=TrainingSample(x=(0.2, 0.6), y=1.0))
    with pytest.raises(ValidationError):  # unreachable event reference
        small_scenario(events=(ScenarioEvent.set_reference(10, 1.5),))
    with pytest.raises(ValidationError):  # event past horizon
        small_scenario(events=(ScenarioEvent.drop_weight(1_000, 6),))
    with pytest.raises(ValidationError):  # events out of order
        small_scenario(
            events=(ScenarioEvent.drop_weight(50, 1), ScenarioEvent.drop_weight(20, 2))
        )
    with pytest.raises(ValidationError):  # bad weight index
        small_scenario(events=(ScenarioEvent.drop_weight(10, 9),))
    with pytest.raises(ValidationError):  # bad input index
        small_scenario(events=(ScenarioEvent.set_input(10, 5, 0.1),))
    with pytest.raises(ValidationError):  # sample arity
        small_scenario(sample=TrainingSample(x=(0.2,), y=0.5))
    with pytest.raises(ValidationError):  # rho out of range
        small_scenario(stagger_rho=0.0)


@pytest.mark.parametrize("horizon", [5.5, 200.0, True, "200"], ids=["float", "integral-float", "bool", "str"])
def test_horizon_is_an_integer(horizon):
    # as a configuration's horizon key: the run would fail in range()
    with pytest.raises(ValidationError, match=re.escape(f"horizon: must be an integer, got {horizon!r}")):
        small_scenario(horizon=horizon)


@pytest.mark.parametrize("name", ["stagger_rho", "tau", "w_max"])
@pytest.mark.parametrize(
    "value, shown",
    [(True, "True"), ("1", "'1'"), (2**1024, "179769313486231590...5356329624224137216")],
    ids=["bool", "str", "int-beyond-float-range"],
)
def test_float_fields_follow_the_yaml_type_rules(name, value, shown):
    with pytest.raises(ValidationError) as err:
        small_scenario(**{name: value})
    assert (err.value.key, err.value.message) == (name, f"must be a finite number, got {shown}")
    # a configuration reads the same, its own check naming the same key
    doc = {"mode": "train", "scenario": {"sample": {"x": [0.2, 0.6], "y": 0.55}, name: value}}
    with pytest.raises(ValidationError, match=re.escape(f"scenario.{name}: must be a finite number, got {shown}")):
        config_from_dict(doc)


@pytest.mark.parametrize("name", ["stagger_rho", "tau", "w_max"])
def test_an_integer_float_field_is_a_float(name):
    assert type(getattr(small_scenario(**{name: 1}), name)) is float


def test_event_kind_validation():
    with pytest.raises(ValidationError):
        ScenarioEvent(at=1, kind="nonsense")
    with pytest.raises(ValidationError):
        ScenarioEvent(at=-1, kind="set_reference", value=0.5)
    with pytest.raises(ValidationError):
        ScenarioEvent(at=1, kind="set_input", index=0)  # missing value
    # a field the kind does not take would be lost by serialize_config
    with pytest.raises(ValidationError, match="set_reference takes no index"):
        ScenarioEvent(at=0, kind="set_reference", index=3, value=0.5)
    with pytest.raises(ValidationError, match="restore_weight takes no value"):
        ScenarioEvent(at=0, kind="restore_weight", index=3, value=0.0)
    # a non-finite value would only show as a diverged network output mid-run
    with pytest.raises(ValidationError, match="value: must be a finite number, got nan"):
        ScenarioEvent.set_input(5, 0, math.nan)
    with pytest.raises(ValidationError, match="value: must be a finite number, got inf"):
        ScenarioEvent.set_reference(5, math.inf)


@pytest.mark.parametrize(
    "kind, args, message",
    [
        ("drop_weight", (5, 1.5), "index: must be an integer, got 1.5"),
        ("drop_weight", (5, True), "index: must be an integer, got True"),
        ("set_reference", (5.5, 0.3), "at: must be an integer, got 5.5"),
        ("set_reference", (True, 0.3), "at: must be an integer, got True"),
        ("set_input", (5, 0, "0.3"), "value: must be a finite number, got '0.3'"),
        ("set_reference", (5, False), "value: must be a finite number, got False"),
        ("set_reference", (5, 2**1024), "value: must be a finite number, got 179769313486231590...5356329624224137216"),
    ],
    ids=["float-index", "bool-index", "float-at", "bool-at", "str-value", "bool-value", "int-beyond-float"],
)
def test_event_fields_follow_the_yaml_type_rules(kind, args, message):
    # the same inputs a configuration file's checkers reject
    with pytest.raises(ValidationError, match=re.escape(message)):
        getattr(ScenarioEvent, kind)(*args)


def test_an_integer_event_value_is_a_float():
    assert repr(ScenarioEvent.set_input(5, 0, 1).value) == "1.0"


@pytest.mark.parametrize(
    "event, message",
    [
        (ScenarioEvent.drop_weight(201, 6), "event iteration is beyond horizon 200, got 201"),
        (ScenarioEvent.drop_weight(10, 6), "events must be sorted by iteration"),
        (ScenarioEvent.drop_weight(50, 7), "drop_weight index must be in [0, 7), got 7"),
        (ScenarioEvent.set_input(50, 2, 0.1), "set_input index must be in [0, 2), got 2"),
        (ScenarioEvent.set_reference(50, 1.0), "set_reference value must satisfy |y| < 1, got 1.0"),
    ],
    ids=["beyond-horizon", "out-of-order", "weight-index", "input-index", "reference"],
)
def test_event_range_errors_name_the_event(event, message):
    with pytest.raises(ValidationError) as info:
        small_scenario(events=(ScenarioEvent.set_reference(20, 0.5), event))
    assert (info.value.key, info.value.message) == ("events[1]", message)


@st.composite
def drop_restore_pairs(draw):
    """A built-in scenario cut to a short horizon, and the same scenario with
    drop_weight(k, i) and then restore_weight(k, i) after its events at k,
    for a weight i enabled at k."""
    base = builtin_scenarios()[draw(st.sampled_from(["fig4", "fig5", "fig6", "fig7"]))]
    horizon = draw(st.integers(20, 300))
    events = [dataclasses.replace(e, at=e.at * horizon // base.horizon) for e in base.events]
    k = draw(st.integers(0, horizon))
    enabled = list(base.net.mask)
    for e in events:
        if e.at <= k and e.kind in ("drop_weight", "restore_weight"):
            enabled[e.index] = e.kind == "restore_weight"
    i = draw(st.sampled_from([j for j, on in enumerate(enabled) if on]))
    at_k = sum(e.at <= k for e in events)
    pair = [ScenarioEvent.drop_weight(k, i), ScenarioEvent.restore_weight(k, i)]
    cut = dataclasses.replace(base, events=tuple(events), horizon=horizon)
    return cut, dataclasses.replace(cut, events=(*events[:at_k], *pair, *events[at_k:]))


def hexed_trace(scenario):
    return [(r.k, *map(float.hex, (r.t, r.y, r.y_ref, *r.w, *r.u))) for r in train_online(scenario)]


@settings(max_examples=50, deadline=None)
@given(drop_restore_pairs())
def test_drop_restore_pair_is_a_no_op(scenarios):
    without, with_pair = scenarios
    assert hexed_trace(with_pair) == hexed_trace(without)


@st.composite
def masked_or_dropped(draw):
    """A scenario whose net starts with some weights masked, at random initial
    weights, and the same scenario with those weights enabled and dropped at
    iteration 0; either may restore one of them later."""
    masked = sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=3)))
    horizon = draw(st.integers(1, 120))
    net = default_topology()
    for i in range(7):
        net = set_weight(net, i, draw(st.floats(-1.5, 1.5)))
    later = ()
    if draw(st.booleans()):
        later = (ScenarioEvent.restore_weight(draw(st.integers(0, horizon)), draw(st.sampled_from(masked))),)
    dropped = Scenario(
        net=net,
        base_params=BASE,
        initial_sample=TrainingSample(x=(0.2, 0.6), y=0.55),
        events=(*(ScenarioEvent.drop_weight(0, i) for i in masked), *later),
        horizon=horizon,
        w_max=draw(st.floats(0.5, 1.0)),
    )
    for i in masked:
        net = set_mask(net, i, False)
    return dataclasses.replace(dropped, net=net, events=later), dropped


@settings(max_examples=50, deadline=None)
@given(masked_or_dropped())
def test_a_weight_masked_at_the_start_is_traced_as_dropped_at_0(scenarios):
    masked, dropped = scenarios
    assert hexed_trace(masked) == hexed_trace(dropped)


def test_builtin_scenarios_shapes():
    scens = builtin_scenarios()
    assert list(scens) == ["fig4", "fig5", "fig6", "fig7"]
    for s in scens.values():
        assert s.initial_sample == TrainingSample(x=(0.2, 0.6), y=0.55)
        assert s.base_params.kp == 1.0
        assert s.base_params.ki == 0.01
        assert s.base_params.k_alpha == 166.5
        assert s.base_params.k_beta == 40.0
        assert s.base_params.dt == 1e-5
        assert s.net.weights == (0.0,) * 7
    # fig4/5/6 disable the skip weight from the start; fig7 drops it mid-run
    for name in ("fig4", "fig5", "fig6"):
        ev = scens[name].events[0]
        assert (ev.at, ev.kind, ev.index) == (0, "drop_weight", 6)
    fig7_drops = [e for e in scens["fig7"].events if e.kind == "drop_weight"]
    assert len(fig7_drops) == 1 and fig7_drops[0].at > 0 and fig7_drops[0].index == 6
    # fig5 changes both inputs then the reference, in that order
    kinds5 = [e.kind for e in scens["fig5"].events]
    assert kinds5 == ["drop_weight", "set_input", "set_input", "set_reference"]


def test_fig4_settling_regression(builtin_run):
    run = builtin_run("fig4")
    start = settled_from(run.violations, run.scenario.horizon)
    assert start == FIG4_SETTLED_FROM
    assert start <= SETTLE_BUDGET


@pytest.mark.parametrize("name", ["fig5", "fig6", "fig7"])
def test_events_resettle_within_budget(name, builtin_run):
    run = builtin_run(name)
    assert settled_from(run.violations, run.scenario.horizon) is not None
    for at, settle in event_resettled_within(run.scenario, run.violations):
        assert settle <= SETTLE_BUDGET, f"event at {at} took {settle}"


def test_final_state_consistency(builtin_run):
    run = builtin_run("fig4")
    final = run.final
    assert abs(final.y - 0.55) < TRACK_TOL
    # re-evaluating the final weights reproduces the trace's output to well
    # under the per-iteration weight drift
    net = default_topology()
    for i, v in enumerate(final.w):
        net = set_weight(net, i, v)
    mask = [True] * 6 + [False]
    y_re = net.eval_with(net.weights, mask, (0.2, 0.6))
    assert abs(y_re - final.y) < 1e-8


def test_clamp_enforced_on_all_records(builtin_run):
    for name in ("fig4", "fig7"):
        assert builtin_run(name).max_abs_w <= 1.0


def test_divergence_by_an_infinite_filter_output():
    # u is finite at iteration 1 and the RK4 step overflows to +inf, which
    # the clamp would turn into w_max: the test must come before it
    scenario = Scenario(
        TrainingSample(x=(0.2, 0.6), y=0.55),
        base_params=ControllerParams(kp=1e160, ki=9.09e152, k_alpha=1.0, k_beta=0.0),
        tau=1.0,
        horizon=5,
    )
    with pytest.raises(DivergenceError) as err:
        list(train_online(scenario))
    assert str(err.value) == "weight 0: filter state became non-finite: inf (iteration 1)"
