"""Solving A x = b as a distributed tracking problem.

Each unknown x_j is driven by its own controller that steers the measured
row value y_j = (A x)_j toward the reference b_j, treating the coupling
through the other variables as a disturbance.  The controllers are
staggered: gains decrease geometrically with the variable index so each
loop stabilizes at a distinct speed.  When every y_j is held close to
b_j, x is close to the solution of the system.  ``as_records`` turns a
solve's traces into one ``LinsolveRecord`` NamedTuple per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import NamedTuple

from .controller import ControllerParams, decays, divergence, stagger_params, step_all
from .dynamics import FirstOrderFilter
from .errors import Count, DivergenceError, ValidationError, check_fields

__all__ = [
    "LinearTrackingProblem",
    "LinsolveRecord",
    "as_records",
    "builtin_problem",
    "matvec",
    "solve_linear",
    "stagger_params",
]

# 3x3 demo system used by the built-in "linsolve3" run, and the base gains
# and stagger ratio of its controllers.  A problem configured without a
# stagger ratio also takes DEMO_RHO.
DEMO_A = ((3.0, 0.5, 8.0), (4.0, 7.0, 4.5), (1.0, 9.0, 3.0))
DEMO_B = (7.95, 6.30, 3.80)
DEMO_GAINS = ControllerParams(k_beta=4.0)
DEMO_RHO = 0.5


@dataclass(frozen=True)
class LinearTrackingProblem:
    """Square system plus one controller/filter pair per unknown."""

    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    controllers: tuple[ControllerParams, ...]
    filters: tuple[FirstOrderFilter, ...]
    horizon: Count = 50_000

    def __post_init__(self):
        check_fields(self)
        n = len(self.b)
        if n == 0:
            raise ValidationError("system must have at least one variable")
        if len(self.a) != n or any(len(row) != n for row in self.a):
            raise ValidationError(f"matrix must be square {n}x{n} to match b")
        if len(self.controllers) != n:
            raise ValidationError(f"need {n} controller parameter sets, got {len(self.controllers)}")
        if len(self.filters) != n:
            raise ValidationError(f"need {n} filters, got {len(self.filters)}")


class LinsolveRecord(NamedTuple):
    """One recorded iteration: measured row values, references, unknowns."""

    k: int
    y: tuple[float, ...]
    b: tuple[float, ...]
    x: tuple[float, ...]


def matvec(a, x) -> tuple[float, ...]:
    """Row-major dense product A x (kept as the single product path so the
    recorded y and any recomputation agree bit-exactly).

    Each row is summed left to right from 0.0 in plain IEEE arithmetic.
    ``sum()`` is not used: from Python 3.12 on it compensates float sums,
    which would make the traces depend on the Python version.
    """
    y = []
    for row in a:
        acc = 0.0
        for a_jc, x_c in zip(row, x):
            acc += a_jc * x_c
        y.append(acc)
    return tuple(y)


def solve_linear(
    problem: LinearTrackingProblem,
) -> tuple[list[tuple[float, ...]], list[tuple[float, ...]]]:
    """Run the distributed tracking loop; return (x trace, y trace).

    Iteration k measures y from the previous x, steps every controller
    against (b_j, y_j) synchronously, filters the raw controls into the
    new x, and records the pair (x_k, y_k = A x_k).  Raises DivergenceError
    with k once a y is non-finite, naming the lowest non-finite unknown if any.
    """
    b = problem.b
    n = len(b)
    ctrl = problem.controllers
    kps = [p.kp for p in ctrl]
    kis = [p.ki for p in ctrl]
    # the unknowns of each distinct (k_alpha, k_beta, dt, tau) in index order:
    # one decay column, read once per iteration, and one kernel call per
    # group and iteration, in practice one group
    by_key: dict[tuple[float, float, float, float], list[int]] = {}
    for j, (p, f) in enumerate(zip(ctrl, problem.filters)):
        by_key.setdefault((p.k_alpha, p.k_beta, p.dt, f.tau), []).append(j)
    groups = [(k_alpha, decays(k_beta, dt), dt, tau, idx) for (k_alpha, k_beta, dt, tau), idx in by_key.items()]
    psis = [0.0] * n
    integrals = [0.0] * n
    us = [0.0] * n
    a = [0.0] * n
    x = [f.state for f in problem.filters]
    y = matvec(problem.a, x)
    x_trace: list[tuple[float, ...]] = []
    y_trace: list[tuple[float, ...]] = []
    for k in range(1, problem.horizon + 1):
        e = list(map(sub, b, y))
        for k_alpha, column, dt, tau, idx in groups:
            kd = k_alpha * next(column)
            for j in idx:
                a[j] = kd - y[j]
            step_all(idx, psis, integrals, x, us, kps, kis, a, e, dt, tau)
        y = matvec(problem.a, x)
        for v in y:
            if v - v != 0.0:
                # A is finite, so a non-finite x makes every y non-finite
                for j, xj in enumerate(x):
                    if xj - xj != 0.0:
                        raise divergence(k, psis[j], integrals[j], us[j], xj, f"unknown {j}: ")
                raise DivergenceError(f"measured output became non-finite: {y}", iteration=k)
        x_trace.append(tuple(x))
        y_trace.append(y)
    return x_trace, y_trace


def as_records(problem: LinearTrackingProblem, x_trace, y_trace) -> list[LinsolveRecord]:
    """Zip solver traces into per-iteration records for CSV output."""
    b = problem.b
    return [LinsolveRecord(k, y, b, x) for k, (x, y) in enumerate(zip(x_trace, y_trace), start=1)]


def builtin_problem(horizon: int = LinearTrackingProblem.horizon) -> LinearTrackingProblem:
    """The 3x3 demo system with tuned staggered gains.

    The initialization decay is slower here (k_beta = 4) than in the
    network-training runs because the references are an order of magnitude
    larger: the series psi needs a correspondingly larger plateau to hold
    its sign over the whole run.  The filters take their default tau.
    """
    controllers = tuple(stagger_params(DEMO_GAINS, n=3, rho=DEMO_RHO))
    filters = (FirstOrderFilter(),) * 3
    return LinearTrackingProblem(
        a=DEMO_A, b=DEMO_B, controllers=controllers, filters=filters, horizon=horizon
    )
