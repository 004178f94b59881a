"""First-order filter stepped by classical 4th-order Runge-Kutta.

The networks and linear systems driven by the controllers have no internal
dynamic of their own, so a small first-order lag

    x' = (u - x) / tau

is attached to every controlled variable.  One RK4 step with constant
input over the step keeps the discretization 4th-order accurate and, for
dt <= tau, strictly contracting toward the input.  The step is the second
half of ``controller.LAW``; ``filter_step`` runs it through
``controller.step``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .controller import step
from .errors import DivergenceError, Positive, check_fields, number, rule

__all__ = ["FirstOrderFilter", "filter_step"]

DEFAULT_TAU = 1e-5  # filter time constant of the built-in runs, in seconds


@dataclass(frozen=True, slots=True)
class FirstOrderFilter:
    """Time constant and current output of one first-order lag."""

    tau: Positive = DEFAULT_TAU
    state: float = 0.0

    def __post_init__(self):
        check_fields(self)


def filter_step(filt: FirstOrderFilter, u: float, dt: float) -> FirstOrderFilter:
    """One classical RK4 step of x' = (u - x)/tau with constant input u.

    The step is ``controller.step`` with the law made the identity:
    psi = u, integral = 1, kp = ki = 0 and a = -0.0, so u passes through
    bit for bit (adding -0.0 keeps a signed zero).  ``u`` may be any int
    or float, inf and nan included, and ``dt`` a finite one > 0; another
    argument raises ValidationError keyed by its name.
    """
    filt = rule(FirstOrderFilter)(filt, "filt")
    # a wrong type gets number's message, a number out of range the bound's
    u, dt = number(u, "u"), _DT(number(dt, "dt"), "dt")
    x = step(u, 1.0, filt.state, 0.0, 0.0, -0.0, 0.0, dt, filt.tau)[3]
    if x - x != 0.0:
        raise DivergenceError(f"filter state became non-finite: {x}")
    return FirstOrderFilter(tau=filt.tau, state=x)


_DT = rule(Positive)
