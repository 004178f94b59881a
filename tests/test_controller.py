"""Controller law: initialization, stepping, closed forms, properties."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paramodel import (
    ControllerParams,
    ControllerState,
    DivergenceError,
    ValidationError,
    controller_new,
    controller_step,
)
from paramodel.elementary import exp

PARAMS = ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=40.0, dt=1e-5)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def run_steps(params, state, pairs):
    us = []
    for y_ref, y_meas in pairs:
        state, u = controller_step(state, params, y_ref, y_meas)
        us.append(u)
    return state, us


def test_new_all_zero():
    s = controller_new(PARAMS)
    assert s == ControllerState(psi=0.0, integral=0.0, k=0)


def test_new_passthrough():
    s = controller_new(PARAMS, psi0=1.5)
    assert s.psi == 1.5
    assert s.integral == 0.0
    assert s.k == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kp=-1.0),
        dict(ki=-0.5),
        dict(k_alpha=-0.1),
        dict(k_beta=-2.0),
        dict(dt=0.0),
        dict(dt=-1e-5),
        dict(dt=math.inf),
    ],
)
def test_invalid_params_rejected(kwargs):
    base = dict(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=40.0, dt=1e-5)
    base.update(kwargs)
    with pytest.raises(ValidationError):
        ControllerParams(**base)


@pytest.mark.parametrize(
    "kwargs, key, message",
    [
        (dict(psi="s"), "psi", "must be a finite number, got 's'"),
        (dict(integral=math.nan), "integral", "must be a finite number, got nan"),
        (dict(k="3"), "k", "must be an integer, got '3'"),
        (dict(k=1.5), "k", "must be an integer, got 1.5"),
        (dict(k=True), "k", "must be an integer, got True"),
        (dict(k=-1), "k", "must be >= 0, got -1"),
    ],
)
def test_invalid_state_rejected(kwargs, key, message):
    # before its own check a state like these ended in a bare TypeError
    # inside the kernel, or (k=1.5) stepped to k=2.5
    with pytest.raises(ValidationError) as err:
        ControllerState(**kwargs)
    assert (err.value.key, err.value.message) == (key, message)


def test_state_stores_an_int_psi_as_a_float():
    s = ControllerState(psi=2, integral=1)
    assert (type(s.psi), type(s.integral)) == (float, float)


def test_step_zero_error_zero_init():
    p = ControllerParams(kp=1.0, ki=0.01, k_alpha=0.0, k_beta=40.0, dt=1e-5)
    s, u = controller_step(controller_new(p), p, 0.0, 0.0)
    assert s.psi == 0.0
    assert s.integral == 0.0
    assert u == 0.0
    assert s.k == 1


def test_step_hand_checked():
    # kp = 0 freezes the series; the integral is a single Riemann increment
    p = ControllerParams(kp=0.0, ki=1.0, k_alpha=3.0, k_beta=7.0, dt=0.1)
    s0 = ControllerState(psi=2.0, integral=0.5, k=9)
    s, u = controller_step(s0, p, 1.0, 0.4)
    assert s.psi == 2.0
    assert s.integral == 0.5 + 1.0 * (1.0 - 0.4) * 0.1
    assert s.integral == pytest.approx(0.56, rel=1e-15)
    assert u == s.psi * s.integral
    assert u == pytest.approx(1.12, rel=1e-15)
    assert s.k == 10


def test_closed_form_constant_error():
    # with k_alpha = 0 and y = 0 the series is frozen and the integral is an
    # exact arithmetic series: I_n = ki * eps * n * dt
    eps = 0.1
    n = 10_000
    p = ControllerParams(kp=1.0, ki=0.01, k_alpha=0.0, k_beta=40.0, dt=1e-5)
    s = controller_new(p, psi0=2.0)
    s, us = run_steps(p, s, [(eps, 0.0)] * n)
    assert s.psi == 2.0
    closed = p.ki * eps * n * p.dt
    assert s.integral == pytest.approx(closed, rel=n * 2.3e-16)
    assert us[-1] == pytest.approx(2.0 * closed, rel=n * 2.3e-16)


@given(ys=st.lists(finite, min_size=1, max_size=50))
def test_psi_frozen_when_kp_zero(ys):
    p = ControllerParams(kp=0.0, ki=0.5, k_alpha=9.0, k_beta=1.0, dt=0.01)
    s = controller_new(p, psi0=1.25)
    for y in ys:
        s, _ = controller_step(s, p, 0.3, y)
    assert s.psi == 1.25
    assert s.k == len(ys)


def test_initialization_increments_decay():
    # with y = 0 the per-step series increment is kp * k_alpha * exp(-k_beta k dt):
    # strictly decreasing toward zero
    p = ControllerParams(kp=2.0, ki=0.01, k_alpha=5.0, k_beta=40.0, dt=1e-3)
    s = controller_new(p)
    deltas = []
    for _ in range(200):
        prev = s.psi
        s, _ = controller_step(s, p, 0.0, 0.0)
        deltas.append(s.psi - prev)
    assert all(d > 0 for d in deltas)
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    assert deltas[-1] < deltas[0] * math.exp(-40.0 * 199 * 1e-3) * 1.001


@given(
    pairs=st.lists(st.tuples(finite, finite), min_size=1, max_size=30),
    psi0=finite,
)
def test_determinism(pairs, psi0):
    s1, us1 = run_steps(PARAMS, controller_new(PARAMS, psi0=psi0), pairs)
    s2, us2 = run_steps(PARAMS, controller_new(PARAMS, psi0=psi0), pairs)
    assert s1 == s2
    assert us1 == us2


@given(errs=st.lists(finite.filter(lambda e: e == 0.0 or abs(e) >= 2.0**-1019), min_size=1, max_size=40))
def test_integral_linear_in_ki(errs):
    # doubling ki doubles every increment exactly (scaling by 2 is exact),
    # so the accumulated integral doubles bit for bit.  An error below
    # 2**-1019 is left out: its increment ki*e*dt = e/8 would round into
    # the subnormal range, where scaling by 2 is not exact
    p1 = ControllerParams(kp=0.0, ki=0.25, k_alpha=0.0, k_beta=1.0, dt=0.5)
    p2 = ControllerParams(kp=0.0, ki=0.5, k_alpha=0.0, k_beta=1.0, dt=0.5)
    s1, _ = run_steps(p1, controller_new(p1), [(e, 0.0) for e in errs])
    s2, _ = run_steps(p2, controller_new(p2), [(e, 0.0) for e in errs])
    assert s2.integral == 2.0 * s1.integral


def test_first_step_decays_in_elapsed_time():
    p = ControllerParams(kp=1.0, ki=0.01, k_alpha=1.0, k_beta=40.0, dt=1e-5)
    s, _ = controller_step(controller_new(p), p, 0.0, 0.0)
    assert s.psi == exp(-40.0 * 1e-5)


def test_divergence_reports_iteration():
    # psi overflows to inf on the very first step: 1e308 * 2
    p = ControllerParams(kp=1e308, ki=0.01, k_alpha=2.0, k_beta=0.0, dt=1e-5)
    with pytest.raises(DivergenceError) as err:
        controller_step(controller_new(p), p, 0.0, 0.0)
    assert err.value.iteration == 1


@pytest.mark.parametrize(
    "args, key, message",
    [
        (("s", PARAMS, 0.1, 0.0), "state", "must be a ControllerState, got 's'"),
        ((PARAMS, PARAMS, 0.1, 0.0), "state", "must be a ControllerState, got ControllerParams(k...eta=40.0, dt=1e-05)"),
        ((ControllerState(), None, 0.1, 0.0), "params", "must be a ControllerParams, got None"),
        (
            (ControllerState(), ControllerState(), 0.1, 0.0),
            "params",
            "must be a ControllerParams, got ControllerState(ps... integral=0.0, k=0)",
        ),
        ((ControllerState(), PARAMS, "0.1", 0.0), "y_ref", "must be a number, got '0.1'"),
        ((ControllerState(), PARAMS, None, 0.0), "y_ref", "must be a number, got None"),
        ((ControllerState(), PARAMS, 0.1, True), "y_meas", "must be a number, got True"),
    ],
)
def test_step_argument_types(args, key, message):
    with pytest.raises(ValidationError) as err:
        controller_step(*args)
    assert (err.value.key, err.value.message) == (key, message)


def test_step_takes_ints_and_non_finite_outputs():
    s0 = ControllerState(psi=2.0, integral=0.5, k=9)
    assert controller_step(s0, PARAMS, 1, 0) == controller_step(s0, PARAMS, 1.0, 0.0)
    with pytest.raises(DivergenceError, match=r"controller state became non-finite: .* u=nan \(iteration 10\)"):
        controller_step(s0, PARAMS, 0.5, math.nan)
