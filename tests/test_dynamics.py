"""RK4 filter: exact-solution oracle, convergence order, properties."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paramodel import DivergenceError, FirstOrderFilter, ValidationError, filter_step

vals = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def exact_response(x0: float, u: float, t: float, tau: float) -> float:
    """Exact solution of x' = (u - x)/tau with constant input."""
    return u + (x0 - u) * math.exp(-t / tau)


def test_invalid_tau():
    with pytest.raises(ValidationError):
        FirstOrderFilter(tau=0.0)
    with pytest.raises(ValidationError):
        FirstOrderFilter(tau=-1e-5)


@pytest.mark.parametrize("state", [math.nan, math.inf, -math.inf])
def test_invalid_state(state):
    with pytest.raises(ValidationError) as err:
        FirstOrderFilter(state=state)
    assert (err.value.key, err.value.message) == ("state", f"must be a finite number, got {state!r}")


def test_invalid_dt():
    with pytest.raises(ValidationError):
        filter_step(FirstOrderFilter(tau=1.0), 0.0, 0.0)


@pytest.mark.parametrize(
    "dt, message",
    [(-1, "must be > 0, got -1.0"), (0, "must be > 0, got 0.0"), (math.inf, "must be a finite number, got inf")],
)
def test_dt_out_of_range_is_keyed(dt, message):
    # dt = inf ran the step and ended in a DivergenceError (nan state)
    with pytest.raises(ValidationError) as err:
        filter_step(FirstOrderFilter(), 1.0, dt)
    assert (err.value.key, err.value.message) == ("dt", message)


@given(c=vals, dt=st.floats(min_value=1e-6, max_value=10.0), tau=st.floats(min_value=1e-6, max_value=10.0))
def test_fixed_point(c, dt, tau):
    f = FirstOrderFilter(tau=tau, state=c)
    assert filter_step(f, c, dt).state == c


def test_single_step_at_dt_equal_tau():
    # one RK4 step of the unit step response at dt = tau.  All stage values
    # are exactly representable, so the result is exactly 0.625; the true
    # response is 1 - exp(-1) and the local error is the 4th-order
    # truncation ~ |z^5|/120 + ... ~ 7.1e-3 at z = -1.
    f = filter_step(FirstOrderFilter(tau=1.0, state=0.0), 1.0, 1.0)
    assert f.state == 0.625
    err = abs(f.state - exact_response(0.0, 1.0, 1.0, 1.0))
    assert 0.005 < err < 0.01


def test_decay_sequence_against_exact():
    # n steps of dt = tau/10 from state 1 toward 0; per-step amplification
    # differs from exp(-1/10) by ~8.2e-8, so after n steps the drift stays
    # below n * 1e-7
    tau = 1.0
    dt = 0.1
    f = FirstOrderFilter(tau=tau, state=1.0)
    for n in range(1, 101):
        f = filter_step(f, 0.0, dt)
        assert abs(f.state - math.exp(-n * dt / tau)) < n * 1e-7


def test_per_step_amplification():
    # single decay step at dt = tau/10 equals the stability polynomial
    # R(-0.1) = 1 - 0.1 + 0.1^2/2 - 0.1^3/6 + 0.1^4/24
    f = filter_step(FirstOrderFilter(tau=1.0, state=1.0), 0.0, 0.1)
    assert f.state == pytest.approx(0.9048375, rel=1e-15)
    assert abs(f.state - math.exp(-0.1)) < 1e-7


def test_fourth_order_convergence():
    # local (single-step) error vs the exact exponential shrinks ~2^5 per
    # halving of dt, the signature of a 4th-order one-step method
    errs = []
    for h in (1.0, 0.5, 0.25, 0.125):
        st_ = filter_step(FirstOrderFilter(tau=1.0, state=0.0), 1.0, h).state
        errs.append(abs(st_ - exact_response(0.0, 1.0, h, 1.0)))
    for coarse, fine in zip(errs, errs[1:]):
        ratio = coarse / fine
        assert 32.0 * 0.8 < ratio < 32.0 * 1.2


@given(
    x0=vals,
    u=vals,
    ratio=st.floats(min_value=0.01, max_value=1.0),
)
def test_monotone_approach(x0, u, ratio):
    # for dt <= tau the RK4 amplification factor lies in (0, 1): the state
    # approaches a constant input without overshoot
    tau = 1e-3
    dt = ratio * tau
    f = FirstOrderFilter(tau=tau, state=x0)
    gap = abs(x0 - u)
    for _ in range(20):
        f = filter_step(f, u, dt)
        new_gap = abs(f.state - u)
        assert new_gap <= gap
        gap = new_gap


@given(x1=vals, x2=vals, u1=vals, u2=vals, a=vals, b=vals)
def test_linearity(x1, x2, u1, u2, a, b):
    dt, tau = 0.3, 1.0
    r1 = filter_step(FirstOrderFilter(tau=tau, state=x1), u1, dt).state
    r2 = filter_step(FirstOrderFilter(tau=tau, state=x2), u2, dt).state
    combined = filter_step(
        FirstOrderFilter(tau=tau, state=a * x1 + b * x2), a * u1 + b * u2, dt
    ).state
    scale = abs(a * r1) + abs(b * r2) + 1.0
    assert combined == pytest.approx(a * r1 + b * r2, abs=1e-9 * scale)


def test_divergence_pathological_ratio():
    # dt/tau large enough to overflow the stage arithmetic
    with pytest.raises(DivergenceError):
        filter_step(FirstOrderFilter(tau=1e-300, state=0.0), 1e200, 1e10)


@pytest.mark.parametrize(
    "args, key, message",
    [
        (("f", 1.0, 1e-5), "filt", "must be a FirstOrderFilter, got 'f'"),
        ((FirstOrderFilter(), "x", 1e-5), "u", "must be a number, got 'x'"),
        ((FirstOrderFilter(), True, 1e-5), "u", "must be a number, got True"),
        ((FirstOrderFilter(), None, 1e-5), "u", "must be a number, got None"),
        ((FirstOrderFilter(), 1.0, "1e-5"), "dt", "must be a number, got '1e-5'"),
        ((FirstOrderFilter(), 1.0, 10**400), "dt", "must be a number, got 100000000000000000...0000000000000000000"),
    ],
)
def test_step_argument_types(args, key, message):
    with pytest.raises(ValidationError) as err:
        filter_step(*args)
    assert (err.value.key, err.value.message) == (key, message)


def test_step_takes_ints_and_non_finite_inputs():
    assert filter_step(FirstOrderFilter(tau=1.0), 1, 1) == filter_step(FirstOrderFilter(tau=1.0), 1.0, 1.0)
    with pytest.raises(DivergenceError, match=r"^filter state became non-finite: nan$"):
        filter_step(FirstOrderFilter(), math.inf, 1e-5)
    with pytest.raises(ValidationError, match="^dt: must be a finite number, got nan$"):
        filter_step(FirstOrderFilter(), 1.0, math.nan)
