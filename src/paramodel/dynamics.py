"""First-order filter stepped by classical 4th-order Runge-Kutta.

The networks and linear systems driven by the controllers have no internal
dynamic of their own, so a small first-order lag

    x' = (u - x) / tau

is attached to every controlled variable.  One RK4 step with constant
input over the step keeps the discretization 4th-order accurate and, for
dt <= tau, strictly contracting toward the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergenceError, InvalidParams

__all__ = ["FirstOrderFilter", "filter_step", "rk4"]

DEFAULT_TAU = 1e-5  # filter time constant of the built-in runs, in seconds


@dataclass(frozen=True, slots=True)
class FirstOrderFilter:
    """Time constant and current output of one first-order lag."""

    tau: float
    state: float = 0.0

    def __post_init__(self):
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise InvalidParams(f"tau must be a finite positive time constant, got {self.tau}")


def rk4(x: float, u: float, tau: float, dt: float) -> float:
    """One classical RK4 step of x' = (u - x)/tau with constant input u.
    A non-finite u makes the result non-finite (inf - inf in stage two)."""
    k1 = (u - x) / tau
    k2 = (u - (x + 0.5 * dt * k1)) / tau
    k3 = (u - (x + 0.5 * dt * k2)) / tau
    k4 = (u - (x + dt * k3)) / tau
    return x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def filter_step(filt: FirstOrderFilter, u: float, dt: float) -> FirstOrderFilter:
    """One classical RK4 step of x' = (u - x)/tau with constant input u."""
    if not dt > 0.0:
        raise InvalidParams(f"dt must be positive, got {dt}")
    x_new = rk4(filt.state, u, filt.tau, dt)
    if not math.isfinite(x_new):
        raise DivergenceError(f"filter state became non-finite: {x_new}")
    return FirstOrderFilter(tau=filt.tau, state=x_new)
