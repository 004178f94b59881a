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

``LAW`` is the one text of the law and of the RK4 step of each
controller's first-order filter (see ``dynamics``), and the code that
runs them is generated from it by ``law``.  ``step``, compiled by
``codegen.define`` with no globals, runs it once on its arguments;
``controller_step`` and ``dynamics.filter_step`` are views of it.  It
only does arithmetic, so numpy arrays run through it as lanes.  The two
loops write ``LAW`` out on locals: the
linear solver's, generated per shape of problem, once per unknown
(``linsolve.solve_linear``), and the trainer's, generated per event
segment, once per class of bit-identical controllers
(``trainer.train_online``).  Neither text holds a gain: both take them
as arguments.

``decays`` reads the initialization decay from a cached column of
``decay`` values, ``DECAY_BLOCK`` steps a block, which every run of the
same ``k_beta`` and ``dt`` shares.  A block is filled by one generated
loop with exp's fast path, ``elementary.EXP``, written out in it, so that
consecutive steps share their table row; ``codegen.define`` compiles it
with this module's globals.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from math import ldexp  # noqa: F401, read by the generated text
from typing import Iterator

from . import codegen
from .elementary import EXP, EXP_TABLE, NO_ROW, exp, exp_slow  # noqa: F401, read by the generated text
from .errors import Count, DivergenceError, Index, NonNegative, Positive, Ratio, check_fields, number, rule

__all__ = [
    "ControllerParams", "ControllerState", "controller_new", "controller_step",
    "LAW", "decay", "decays", "divergence", "law", "stagger_params", "step",
]

@dataclass(frozen=True, slots=True)
class ControllerParams:
    """Tuning gain set of one controller instance.

    ``kp``/``ki`` scale the recursive series and the error integral;
    ``k_alpha``/``k_beta`` shape the decaying initialization term;
    ``dt`` is the simulation step in seconds.  The defaults are the
    paper's operating point, which the built-in training runs use.
    """

    kp: NonNegative = 1.0
    ki: NonNegative = 0.01
    k_alpha: NonNegative = 166.5
    k_beta: NonNegative = 40.0
    dt: Positive = 1e-5

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True, slots=True)
class ControllerState:
    """Evolving internal state: the series value, the accumulated integral
    and the iteration counter."""

    psi: float = 0.0
    integral: float = 0.0
    k: Index = 0

    def __post_init__(self):
        check_fields(self)


def controller_new(params: ControllerParams, psi0: float = 0.0) -> ControllerState:
    """Fresh controller state.

    The series and the integral both start at zero by default (both
    overridable), so the first control output is exactly zero.
    """
    rule(ControllerParams)(params, "params")
    return ControllerState(psi=psi0, integral=0.0, k=0)


def decay(k_beta: float, k: int, dt: float) -> float:
    """Initialization decay ``exp(-k_beta * k * dt)`` of step ``k``, in
    elapsed time, by the package's correctly rounded exp.  The loops read
    it through ``decays``."""
    return exp(-k_beta * (k * dt))


#: Steps per block of a ``decays`` column, and the blocks kept (512 blocks
#: of 256 doubles, about 1 MB, hold 131,072 steps: a built-in's horizon).
#: A block is computed within the iteration that first reads it, so a
#: small one keeps that iteration's cost close to the others'.
DECAY_BLOCK = 256
DECAYS_CACHED = 512


def decays(k_beta: float, dt: float, k: int = 1) -> Iterator[float]:
    """Iterator over ``decay(k_beta, j, dt)`` for j = k, k + 1, ...

    The values are read from blocks of ``DECAY_BLOCK`` steps, each computed
    once and kept by a cache keyed by ``(k_beta, dt, block)`` (the last
    ``DECAYS_CACHED`` blocks), so runs of the same ``k_beta`` and ``dt``
    compute each value once.  Keys that compare equal give equal values:
    an int ``k_beta`` converts to its float exactly, and ``0.0`` and
    ``-0.0`` both give ``exp(±0.0) = 1.0``.
    """
    block, i = divmod(k, DECAY_BLOCK)
    rest = map(_decay_block, repeat(k_beta), repeat(dt), count(block + 1))
    return chain(islice(_decay_block(k_beta, dt, block), i, None), chain.from_iterable(rest))


@functools.lru_cache(maxsize=DECAYS_CACHED)
def _decay_block(k_beta: float, dt: float, block: int) -> array:
    """Steps ``block * DECAY_BLOCK`` onward of a ``decays`` column,
    ``exp(-k_beta * (k * dt))`` each as ``decay`` writes it, filled by
    ``_decay_loop``, read at the call: the seam of
    ``scripts/reference_traces.py`` puts a loop that calls its reference
    exp there."""
    values = array("d")
    _decay_loop(range(block * DECAY_BLOCK, (block + 1) * DECAY_BLOCK), -k_beta, dt, values.append)
    return values


def _decay_source() -> str:
    """The text of ``decay_block(ks, m, dt, append)``, which appends
    ``exp(m * (k * dt))`` for each ``k in ks``: ``elementary.EXP`` written
    out, its row kept from one step to the next."""
    loop = ["for k in ks:", "    x = m * (k * dt)", *(f"    {line}" for line in EXP.splitlines()), "    append(y)"]
    return codegen.text("decay_block", ("ks", "m", "dt", "append"), [f"row = {NO_ROW!r}", *loop])


# compiled with this module's globals: it reads EXP_TABLE, ldexp and exp_slow
_decay_loop = codegen.define(_decay_source(), "decay_block", globals())


#: One step of the law and then one RK4 step of its filter, for one
#: controller: the one text of both.  It reads the gains ``kp`` and ``ki``,
#: ``a = k_alpha*d - y`` (``d`` the step's ``decay``), ``e = y_ref - y``,
#: ``dt``, ``h = 0.5*dt`` and ``tau``; it steps ``psi``, ``integral`` and the
#: filter output ``x``, and sets the control ``u``.  The filter is ``x' = (u -
#: x)/tau`` with u held over the step.  ``step`` runs it on its arguments,
#: and ``linsolve`` and ``trainer`` write it out on locals (``law``).
LAW = """\
psi = psi + kp * a
integral = integral + ki * e * dt
u = psi * integral
k1 = (u - x) / tau
k2 = (u - (x + h * k1)) / tau
k3 = (u - (x + h * k2)) / tau
k4 = (u - (x + dt * k3)) / tau
x = x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
"""

def law(inputs: dict[str, str], names: dict[str, str]) -> list[str]:
    """The statements of ``LAW``, each ``target = expression``, with
    ``inputs[v]`` written for a read of ``v`` before the block assigns it
    and ``names[v]`` for any other occurrence; a name in neither stays.  An
    expression goes in as given, so one of more than one term comes in
    parentheses."""
    lines, assigned = [], set()

    def put(v):
        return inputs[v] if v in inputs and v not in assigned else names.get(v, v)

    for line in LAW.splitlines():
        target, value = line.split(" = ")
        lines.append(f"{names.get(target, target)} = {codegen.rename(value, put)}")
        assigned.add(target)
    return lines


def _step_source() -> str:
    """The text of ``step``: ``h = 0.5 * dt``, ``LAW`` on the arguments'
    own names, and one return."""
    params = ("psi", "integral", "x", "kp", "ki", "a", "e", "dt", "tau")
    return codegen.text("step", params, ["h = 0.5 * dt", *law({}, {}), "return psi, integral, u, x"])


# the generated code reads no global
step = codegen.define(
    _step_source(),
    "step",
    {"__builtins__": {}, "__name__": __name__},
    """One step of the law and then one RK4 step of its filter (``LAW``), for
    one controller; returns ``(psi, integral, u, x)``.

    The caller passes ``a = k_alpha*d - y`` (``d`` the step's ``decay``)
    and ``e = y_ref - y``.  It tests nothing, and it is arithmetic only, so
    floats or numpy arrays (one lane per element) run through it.
    """,
)


def controller_step(
    state: ControllerState,
    params: ControllerParams,
    y_ref: float,
    y_meas: float,
) -> tuple[ControllerState, float]:
    """Advance the controller one step and return (new state, control).

    ``y_meas`` is the output measured before this control update, i.e. the
    plant response to the previous control.  ``y_ref`` and ``y_meas`` may be
    any int or float, inf and nan included; an argument of another type
    raises ValidationError keyed by its name.  Raises DivergenceError if the
    series, the integral, or the control goes non-finite.
    """
    state, p = rule(ControllerState)(state, "state"), rule(ControllerParams)(params, "params")
    y_ref, y_meas = number(y_ref, "y_ref"), number(y_meas, "y_meas")
    k = state.k + 1
    d = decay(p.k_beta, k, p.dt)
    # step also steps a filter, which is not read
    a, e = p.k_alpha * d - y_meas, y_ref - y_meas
    psi, integral, u, _ = step(state.psi, state.integral, 0.0, p.kp, p.ki, a, e, p.dt, math.inf)
    if u - u != 0.0:  # also non-finite whenever psi or the integral is
        raise divergence(k, psi, integral, u)
    return ControllerState(psi=psi, integral=integral, k=k), u


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
    n identical copies of the base gains.  Instance j scales kp and ki by
    the correctly rounded ``rho**j``: with ``rho = num/den`` exactly,
    ``num**j / den**j`` is exact integer arithmetic and one correctly
    rounded int/int division, so the gains do not depend on the C
    library's ``pow``.
    """
    base, n, rho = rule(ControllerParams)(base, "base"), rule(Count)(n, "n"), rule(Ratio)(rho, "rho")
    num, den = rho.as_integer_ratio()
    out = []
    num_j = den_j = 1
    for _ in range(n):
        scale = num_j / den_j
        out.append(
            ControllerParams(
                kp=base.kp * scale,
                ki=base.ki * scale,
                k_alpha=base.k_alpha,
                k_beta=base.k_beta,
                dt=base.dt,
            )
        )
        num_j *= num
        den_j *= den
    return out
