"""Solving A x = b as a distributed tracking problem.

Each unknown x_j is driven by its own controller that steers the measured
row value y_j = (A x)_j toward the reference b_j, treating the coupling
through the other variables as a disturbance.  The controllers are
staggered: gains decrease geometrically with the variable index so each
loop stabilizes at a distinct speed.  When every y_j is held close to
b_j, x is close to the solution of the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .controller import DEFAULT_DT, ControllerParams, decay, divergence, law, stagger_params
from .dynamics import DEFAULT_TAU, FirstOrderFilter, rk4
from .errors import DivergenceError, ValidationError

__all__ = [
    "LinearTrackingProblem",
    "LinsolveRecord",
    "as_records",
    "builtin_problem",
    "matvec",
    "residual",
    "solve_linear",
    "stagger_params",
]

# 3x3 demo system used by the built-in "linsolve3" run.
DEMO_A = ((3.0, 0.5, 8.0), (4.0, 7.0, 4.5), (1.0, 9.0, 3.0))
DEMO_B = (7.95, 6.30, 3.80)


@dataclass(frozen=True)
class LinearTrackingProblem:
    """Square system plus one controller/filter pair per unknown."""

    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    controllers: tuple[ControllerParams, ...]
    filters: tuple[FirstOrderFilter, ...]
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(tuple(float(v) for v in row) for row in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        object.__setattr__(self, "controllers", tuple(self.controllers))
        object.__setattr__(self, "filters", tuple(self.filters))
        n = len(self.b)
        if n == 0:
            raise ValidationError("system must have at least one variable")
        if len(self.a) != n or any(len(row) != n for row in self.a):
            raise ValidationError(f"matrix must be square {n}x{n} to match b")
        if len(self.controllers) != n:
            raise ValidationError(f"need {n} controller parameter sets, got {len(self.controllers)}")
        if len(self.filters) != n:
            raise ValidationError(f"need {n} filters, got {len(self.filters)}")
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True, slots=True)
class LinsolveRecord:
    """One recorded iteration: measured row values, references, unknowns."""

    k: int
    y: tuple[float, ...]
    b: tuple[float, ...]
    x: tuple[float, ...]


def matvec(a, x) -> tuple[float, ...]:
    """Row-major dense product A x (kept as the single product path so the
    recorded y and any recomputation agree bit-exactly)."""
    return tuple(sum(row[c] * x[c] for c in range(len(x))) for row in a)


def solve_linear(
    problem: LinearTrackingProblem,
) -> tuple[list[tuple[float, ...]], list[tuple[float, ...]]]:
    """Run the distributed tracking loop; return (x trace, y trace).

    Iteration k measures y from the previous x, steps every controller
    against (b_j, y_j) synchronously, filters the raw controls into the
    new x, and records the pair (x_k, y_k = A x_k).  Raises DivergenceError
    with k (and the unknown, for a step) if any value goes non-finite.
    """
    b = problem.b
    n = len(b)
    ctrl = problem.controllers
    kps = [p.kp for p in ctrl]
    kis = [p.ki for p in ctrl]
    k_alphas = [p.k_alpha for p in ctrl]
    dts = [p.dt for p in ctrl]
    taus = [f.tau for f in problem.filters]
    # one decay per iteration for each distinct (k_beta, dt, init_decay)
    keys = [(p.k_beta, p.dt, p.init_decay == "time") for p in ctrl]
    decay_keys = list(dict.fromkeys(keys))
    slots = [decay_keys.index(key) for key in keys]
    psis = [0.0] * n
    integrals = [0.0] * n
    x = [f.state for f in problem.filters]
    y = matvec(problem.a, x)
    x_trace: list[tuple[float, ...]] = []
    y_trace: list[tuple[float, ...]] = []
    for k in range(1, problem.horizon + 1):
        ds = [decay(k_beta, k, dt, by_time) for k_beta, dt, by_time in decay_keys]
        for j in range(n):
            psi, integral, u = law(
                psis[j], integrals[j], ds[slots[j]], kps[j], kis[j], k_alphas[j], dts[j], b[j], y[j]
            )
            xj = rk4(x[j], u, taus[j], dts[j])
            if not math.isfinite(xj):  # covers u too (see rk4)
                raise divergence(k, psi, integral, u, xj, f"unknown {j}: ")
            psis[j] = psi
            integrals[j] = integral
            x[j] = xj
        y = matvec(problem.a, x)
        if not all(math.isfinite(v) for v in y):
            raise DivergenceError(f"measured output became non-finite: {y}", iteration=k)
        x_trace.append(tuple(x))
        y_trace.append(y)
    return x_trace, y_trace


def as_records(problem: LinearTrackingProblem, x_trace, y_trace) -> list[LinsolveRecord]:
    """Zip solver traces into per-iteration records for CSV output."""
    return [
        LinsolveRecord(k=k, y=y, b=problem.b, x=x)
        for k, (x, y) in enumerate(zip(x_trace, y_trace), start=1)
    ]


def residual(problem: LinearTrackingProblem, y: tuple[float, ...]) -> float:
    """Largest componentwise tracking error |y_j - b_j|."""
    return max(abs(y[j] - problem.b[j]) for j in range(len(problem.b)))


def builtin_problem(horizon: int = 50_000) -> LinearTrackingProblem:
    """The 3x3 demo system with tuned staggered gains.

    The initialization decay is slower here (k_beta = 4) than in the
    network-training runs because the references are an order of magnitude
    larger: the series psi needs a correspondingly larger plateau to hold
    its sign over the whole run.
    """
    base = ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=4.0, dt=DEFAULT_DT)
    controllers = tuple(stagger_params(base, n=3, rho=0.5))
    filters = tuple(FirstOrderFilter(tau=DEFAULT_TAU, state=0.0) for _ in range(3))
    return LinearTrackingProblem(
        a=DEMO_A, b=DEMO_B, controllers=controllers, filters=filters, horizon=horizon
    )
