"""The step of the law against the law and RK4 written out literally.

``controller_step`` and ``filter_step`` are views of ``controller.step``,
and ``step``, the linear solver's generated loop and the trainer's are
all built from one text, ``controller.LAW``, so the reference loops of
``test_kernel.py`` (built from those two views) no longer check the law
against anything independent.  Here the law and the RK4 step are written
out once more, literally: first the two views are checked against them
bit for bit on any floats, then the reference loops of ``test_kernel.py``
are run with the literal steps in place of the views, against both
drivers.  The text ``step`` is compiled from passes the allowlist of
``allowlist.py`` (``test_codegen.py``), and a patched law is flagged.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import pathlib

import pytest
import test_kernel
from allowlist import outside_the_allowlist
from hypothesis import given, settings
from hypothesis import strategies as st

from paramodel import (
    ControllerParams,
    ControllerState,
    DivergenceError,
    FirstOrderFilter,
    LinearTrackingProblem,
    Scenario,
    ScenarioEvent,
    TrainingSample,
    ValidationError,
    controller_step,
    default_topology,
    filter_step,
    set_weight,
)
from paramodel import controller, linsolve, trainer
from paramodel.controller import LAW
from paramodel.elementary import exp

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


def literal_controller_step(state, params, y_ref, y_meas):
    """The para-model law of the controller module's docstring."""
    k = state.k + 1
    d = exp(-params.k_beta * (k * params.dt))
    psi = state.psi + params.kp * (params.k_alpha * d - y_meas)
    integral = state.integral + params.ki * (y_ref - y_meas) * params.dt
    u = psi * integral
    if not math.isfinite(u):
        raise DivergenceError(
            f"controller state became non-finite: psi={psi}, integral={integral}, u={u}", iteration=k
        )
    return ControllerState(psi=psi, integral=integral, k=k), u


def literal_filter_step(filt, u, dt):
    """One classical RK4 step of x' = (u - x)/tau with u held over the step."""
    if not math.isfinite(dt):
        raise ValidationError("must be a finite number", "dt", got=dt)
    if not dt > 0.0:
        raise ValidationError("must be > 0", "dt", got=dt)
    x, tau = filt.state, filt.tau
    k1 = (u - x) / tau
    k2 = (u - (x + 0.5 * dt * k1)) / tau
    k3 = (u - (x + 0.5 * dt * k2)) / tau
    k4 = (u - (x + dt * k3)) / tau
    x = x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    if not math.isfinite(x):
        raise DivergenceError(f"filter state became non-finite: {x}")
    return FirstOrderFilter(tau=tau, state=x)


def outcome(step, *args):
    """The result of one step with every float as its bits, or the error."""
    try:
        result = step(*args)
    except (DivergenceError, ValidationError) as err:
        return type(err).__name__, str(err)
    if isinstance(result, FirstOrderFilter):
        return result.tau.hex(), result.state.hex()
    state, u = result
    return state.psi.hex(), state.integral.hex(), state.k, u.hex()


any_float = st.floats() | st.sampled_from(SPECIAL)
FINITE = [v for v in SPECIAL if math.isfinite(v)]
# what ControllerParams and FirstOrderFilter accept: >= 0 (-0.0 included) or > 0, finite;
# a filter state, psi and the integral are any finite float
state_float = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(FINITE)
gain = st.floats(min_value=0.0, allow_infinity=False) | st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308])
step_size = st.floats(min_value=5e-324, allow_infinity=False) | st.sampled_from([5e-324, 1e-5, 1.7976931348623157e308])


@settings(max_examples=800, deadline=None)
@given(
    psi=state_float,
    integral=state_float,
    k=st.integers(0, 10**6),
    kp=gain,
    ki=gain,
    k_alpha=gain,
    k_beta=gain,
    dt=step_size,
    y_ref=any_float,
    y_meas=any_float,
)
def test_controller_step_is_the_literal_law(psi, integral, k, kp, ki, k_alpha, k_beta, dt, y_ref, y_meas):
    state = ControllerState(psi=psi, integral=integral, k=k)
    params = ControllerParams(kp=kp, ki=ki, k_alpha=k_alpha, k_beta=k_beta, dt=dt)
    assert outcome(controller_step, state, params, y_ref, y_meas) == outcome(
        literal_controller_step, state, params, y_ref, y_meas
    )


@settings(max_examples=800, deadline=None)
@given(tau=step_size, x=state_float, u=any_float, dt=any_float)
def test_filter_step_is_the_literal_rk4(tau, x, u, dt):
    filt = FirstOrderFilter(tau=tau, state=x)
    assert outcome(filter_step, filt, u, dt) == outcome(literal_filter_step, filt, u, dt)


@pytest.mark.parametrize(
    "kp, ki, k_alpha, k_beta, tau",
    [(1.0, 0.01, 166.5, 40.0, 1e-5), (0.0, 0.0, 0.0, 0.0, 5e-324), (1e308, 5e-324, 2.0, 0.0, 1.7976931348623157e308)],
)
def test_views_on_every_combination_of_special_values(kp, ki, k_alpha, k_beta, tau):
    params = ControllerParams(kp=kp, ki=ki, k_alpha=k_alpha, k_beta=k_beta, dt=1e-5)
    for psi, integral, y_ref, y_meas in itertools.product(FINITE, FINITE, SPECIAL, SPECIAL):
        state = ControllerState(psi=psi, integral=integral, k=3)
        assert outcome(controller_step, state, params, y_ref, y_meas) == outcome(
            literal_controller_step, state, params, y_ref, y_meas
        )
    for x, u, dt in itertools.product(FINITE, SPECIAL, SPECIAL):
        filt = FirstOrderFilter(tau=tau, state=x)
        assert outcome(filter_step, filt, u, dt) == outcome(literal_filter_step, filt, u, dt)
    for x in (math.inf, -math.inf, math.nan):  # no step starts from a non-finite state
        with pytest.raises(ValidationError, match="state: must be a finite number"):
            FirstOrderFilter(tau=tau, state=x)
        with pytest.raises(ValidationError, match="psi: must be a finite number"):
            ControllerState(psi=x, integral=0.5, k=3)
        with pytest.raises(ValidationError, match="integral: must be a finite number"):
            ControllerState(psi=0.5, integral=x, k=3)


@contextlib.contextmanager
def literal_steps():
    """test_kernel's reference loops, stepping with the literal law and RK4."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(test_kernel, "controller_step", literal_controller_step)
        mp.setattr(test_kernel, "filter_step", literal_filter_step)
        yield


@settings(max_examples=40, deadline=None)
@given(test_kernel.scenarios())
def test_train_online_matches_literal_reference(scenario):
    with literal_steps():
        test_kernel.assert_same_train(scenario)


@settings(max_examples=40, deadline=None)
@given(test_kernel.problems())
def test_solve_linear_matches_literal_reference(problem):
    with literal_steps():
        test_kernel.assert_same_linsolve(problem)


def lagging_scenario(**overrides) -> Scenario:
    """Weights 2 and 5 dropped and restored at different iterations, so
    after iteration 40 the enabled controllers take three different step
    numbers in one iteration (lags 0, 24 and 30)."""
    fields = dict(
        net=default_topology(),
        base_params=ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=40.0, dt=1e-5),
        initial_sample=TrainingSample(x=(0.2, 0.6), y=0.55),
        events=(
            ScenarioEvent.drop_weight(0, 5),
            ScenarioEvent.drop_weight(10, 2),
            ScenarioEvent.restore_weight(25, 5),
            ScenarioEvent.restore_weight(40, 2),
        ),
        horizon=120,
    )
    fields.update(overrides)
    return Scenario(**fields)


# k_beta = 25000 decays by exp(-0.25) per step at dt = 1e-5, so the three
# lags see clearly different decays
@pytest.mark.parametrize("k_beta", [40.0, 25_000.0])
def test_train_with_a_lagging_restored_weight(k_beta):
    base = dataclasses.replace(lagging_scenario().base_params, k_beta=k_beta)
    with literal_steps():
        test_kernel.assert_same_train(lagging_scenario(base_params=base))


def test_train_divergence_names_the_lowest_weight_when_one_lags():
    # k_alpha = 0 and zero weights keep every control at 0 until weight 6
    # (the skip edge, 0.5) comes back at 6; weights 3, 4, 5 and 6 then all
    # step with u != 0, and at tau = 1e-300 every RK4 step overflows.
    # Weight 3 lags (dropped 2..6), and it is the lowest enabled index.
    events = [ScenarioEvent.drop_weight(0, i) for i in (0, 1, 2, 6)]
    events += [ScenarioEvent.drop_weight(2, 3), ScenarioEvent.restore_weight(6, 3), ScenarioEvent.restore_weight(6, 6)]
    scenario = lagging_scenario(
        net=set_weight(default_topology(), 6, 0.5),
        base_params=ControllerParams(kp=1.0, ki=0.01, k_alpha=0.0, k_beta=40.0, dt=1e-5),
        events=tuple(events),
        tau=1e-300,
    )
    _, fail = test_kernel.kernel_train(scenario)
    assert fail is not None and fail[0] == 6 and fail[1].startswith("weight 3: filter state")
    with literal_steps():
        test_kernel.assert_same_train(scenario)


def per_unknown_problem(**overrides) -> LinearTrackingProblem:
    """Three unknowns in two (dt, tau) groups: {0, 2} and {1}."""
    good = ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=4.0, dt=1e-5)
    fields = dict(
        a=((3.0, 0.5, 8.0), (4.0, 7.0, 4.5), (1.0, 9.0, 3.0)),
        b=(7.95, 6.30, 3.80),
        controllers=(good, dataclasses.replace(good, kp=0.5, ki=0.005, dt=2e-5), dataclasses.replace(good, k_alpha=100.0)),
        filters=(FirstOrderFilter(tau=1e-5), FirstOrderFilter(tau=3e-5), FirstOrderFilter(tau=1e-5)),
        horizon=400,
    )
    fields.update(overrides)
    return LinearTrackingProblem(**fields)


def test_solve_linear_with_per_unknown_dt_and_tau():
    with literal_steps():
        test_kernel.assert_same_linsolve(per_unknown_problem())


@pytest.mark.parametrize(
    "overflowing, message",
    [
        # unknown 2 (first group) and unknown 1 (second group) both diverge
        # at iteration 1: 2's law overflows, 1's RK4 step overflows
        (2, "unknown 1: filter state became non-finite: nan (iteration 1)"),
        # unknown 0 (first group) and 1 (second group): the later group's
        # unknown must not win
        (0, "unknown 0: controller state became non-finite: psi=inf, integral=7.950000000000001e-07, u=inf (iteration 1)"),
    ],
)
def test_solve_linear_divergence_names_the_lowest_unknown_across_groups(overflowing, message):
    p = per_unknown_problem()
    controllers = list(p.controllers)
    controllers[overflowing] = dataclasses.replace(controllers[overflowing], kp=1e308, k_alpha=2.0, k_beta=0.0)
    problem = per_unknown_problem(
        controllers=tuple(controllers),
        filters=(p.filters[0], FirstOrderFilter(tau=1e-300), p.filters[2]),
    )
    _, fail = test_kernel.kernel_linsolve(problem)
    assert fail == (1, message)
    with literal_steps():
        test_kernel.assert_same_linsolve(problem)


def test_the_law_is_written_once():
    # step and the two generated loops are all built from LAW, and no
    # statement of it is written anywhere else in the package
    package = pathlib.Path(linsolve.__file__).parent
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py")))
    for line in LAW.splitlines():
        assert text.count(line) == 1, line
    assert "step" not in vars(linsolve)
    # the trainer's loop is generated, so it calls no step or evaluator
    assert not {"step", "evaluator", "itemgetter"} & set(trainer.train_online.__code__.co_names)


@pytest.mark.parametrize(
    "old, new, flagged",
    [
        ("u = psi * integral", "u = psi ** integral", ["BinOp: psi ** integral", "Pow: "]),
        ("u = psi * integral", "u = sum((psi, integral))", ["Call: sum((psi, integral))", "Name: sum"]),
    ],
)
def test_the_step_allowlist_rejects_a_patched_law(old, new, flagged, monkeypatch):
    assert old in LAW
    monkeypatch.setattr(controller, "LAW", LAW.replace(old, new))
    assert sorted(outside_the_allowlist(controller._step_source())) == sorted(flagged)
