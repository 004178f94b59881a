"""Discrete para-model controller.

The control law pairs a recursive series ``psi`` with a discretized
integral of the tracking error.  At step ``k`` (1-based):

    psi_k = psi_{k-1} + kp * (k_alpha * exp(-k_beta * k * dt) - y_{k-1})
    I_k   = I_{k-1}   + ki * (y_ref_k - y_{k-1}) * dt
    u_k   = psi_k * I_k

``psi`` acts as an adaptive multiplicative gain that is bootstrapped away
from zero by the decaying initialization term ``k_alpha * exp(...)`` and
then drained by the measured output; the integral accumulates the tracking
error as a left Riemann sum.  The controller needs no model of the plant:
it sees only the reference and the last measured output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergenceError, InvalidParams, ValidationError

__all__ = [
    "ControllerParams", "ControllerState", "controller_new", "controller_step",
    "decay", "divergence", "law", "stagger_params",
]

#: Allowed values for ControllerParams.init_decay.
DECAY_MODES = ("time", "index")

DEFAULT_DT = 1e-5  # simulation step of the built-in runs, in seconds


@dataclass(frozen=True, slots=True)
class ControllerParams:
    """Tuning gain set of one controller instance.

    ``kp``/``ki`` scale the recursive series and the error integral;
    ``k_alpha``/``k_beta`` shape the decaying initialization term;
    ``dt`` is the simulation step in seconds.

    ``init_decay`` selects the argument of the initialization exponential:
    ``"time"`` uses elapsed time ``k*dt`` (default), ``"index"`` uses the
    bare iteration index ``k``.  With the index variant and k_beta of a
    few tens, the term is gone after one step and the controller cannot
    bootstrap from an all-zero start, so "time" is the practical choice.
    """

    kp: float
    ki: float
    k_alpha: float
    k_beta: float
    dt: float
    init_decay: str = "time"

    def __post_init__(self):
        if not (self.kp >= 0.0 and math.isfinite(self.kp)):
            raise InvalidParams(f"kp must be a finite non-negative gain, got {self.kp}")
        if not (self.ki >= 0.0 and math.isfinite(self.ki)):
            raise InvalidParams(f"ki must be a finite non-negative gain, got {self.ki}")
        if not (self.k_alpha >= 0.0 and math.isfinite(self.k_alpha)):
            raise InvalidParams(f"k_alpha must be finite and >= 0, got {self.k_alpha}")
        if not (self.k_beta >= 0.0 and math.isfinite(self.k_beta)):
            raise InvalidParams(f"k_beta must be finite and >= 0, got {self.k_beta}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise InvalidParams(f"dt must be a finite positive step, got {self.dt}")
        if self.init_decay not in DECAY_MODES:
            raise InvalidParams(
                f"init_decay must be one of {DECAY_MODES}, got {self.init_decay!r}"
            )


@dataclass(frozen=True, slots=True)
class ControllerState:
    """Evolving internal state: the series value, the accumulated integral,
    the iteration counter, and the last measured output."""

    psi: float = 0.0
    integral: float = 0.0
    k: int = 0
    last_y: float = 0.0


def controller_new(params: ControllerParams, psi0: float = 0.0, y0: float = 0.0) -> ControllerState:
    """Fresh controller state.

    The series and the integral both start at zero by default (both
    overridable), so the first control output is exactly zero.
    """
    if not isinstance(params, ControllerParams):
        raise InvalidParams(f"expected ControllerParams, got {type(params).__name__}")
    return ControllerState(psi=psi0, integral=0.0, k=0, last_y=y0)


def decay(k_beta: float, k: int, dt: float, by_time: bool) -> float:
    """Initialization decay of step ``k`` (see ControllerParams.init_decay);
    controllers with equal arguments can share one value."""
    return math.exp(-k_beta * (k * dt if by_time else k))


def law(psi, integral, d, kp, ki, k_alpha, dt, y_ref, y_meas) -> tuple[float, float, float]:
    """(psi, integral, u) after one step of the law on plain floats, ``d``
    being the step's ``decay``; u is non-finite if psi or the integral is."""
    psi = psi + kp * (k_alpha * d - y_meas)
    integral = integral + ki * (y_ref - y_meas) * dt
    return psi, integral, psi * integral


def controller_step(
    state: ControllerState,
    params: ControllerParams,
    y_ref: float,
    y_meas: float,
) -> tuple[ControllerState, float]:
    """Advance the controller one step and return (new state, control).

    ``y_meas`` is the output measured before this control update, i.e. the
    plant response to the previous control.  Raises DivergenceError if the
    series, the integral, or the control goes non-finite.
    """
    k = state.k + 1
    p = params
    d = decay(p.k_beta, k, p.dt, p.init_decay == "time")
    psi, integral, u = law(state.psi, state.integral, d, p.kp, p.ki, p.k_alpha, p.dt, y_ref, y_meas)
    if not math.isfinite(u):
        raise divergence(k, psi, integral, u)
    return ControllerState(psi=psi, integral=integral, k=k, last_y=y_meas), u


def divergence(iteration, psi, integral, u, x=math.nan, who="") -> DivergenceError:
    """The error for a non-finite law step (``u``), else RK4 step (``x``)."""
    if math.isfinite(u):
        what = f"filter state became non-finite: {x}"
    else:
        what = f"controller state became non-finite: psi={psi}, integral={integral}, u={u}"
    return DivergenceError(who + what, iteration=iteration)


def stagger_params(base: ControllerParams, n: int, rho: float) -> list[ControllerParams]:
    """Geometrically staggered gain sets: kp and ki shrink by rho per index.

    k_alpha and k_beta are shared by all instances; rho = 1 degenerates to
    n identical copies of the base gains.
    """
    if n < 1:
        raise ValidationError(f"need at least one controller, got n={n}")
    if not (0.0 < rho <= 1.0):
        raise ValidationError(f"stagger ratio must be in (0, 1], got {rho}")
    return [
        ControllerParams(
            kp=base.kp * rho**j,
            ki=base.ki * rho**j,
            k_alpha=base.k_alpha,
            k_beta=base.k_beta,
            dt=base.dt,
            init_decay=base.init_decay,
        )
        for j in range(n)
    ]
