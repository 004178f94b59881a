"""The one text of the law on numpy lanes, and a core that imports without numpy.

``controller.step`` and ``linsolve.matvec`` are arithmetic only, so they
run unchanged on numpy arrays: one array per unknown, one element (a
lane) per configuration.  ``step`` is built from ``controller.LAW``, the
text ``solve_linear``'s generated loop writes out per unknown, and
``matvec`` defines the order of the rows that loop writes out, so the
lanes take the scalar solver's operations in its order; numpy's
elementwise ``+ - * /`` are single IEEE-754 operations, so each lane gets
the scalar solve's bits.  The loop of ``lane_solve`` is only the harness
(the decay column, the errors, the product); it holds no copy of the law
or of the RK4 step.
"""

from __future__ import annotations

import re

import pytest
from test_config_io import run_python

from paramodel import (
    DivergenceError,
    FirstOrderFilter,
    LinearTrackingProblem,
    solve_linear,
    stagger_params,
)
from paramodel.controller import decays, step
from paramodel.linsolve import DEMO_A, DEMO_B, DEMO_GAINS, matvec

RHOS = (0.5, 0.8, 0.9, 1.0)
HORIZON = 5_000


def linsolve3(rho: float, horizon: int = HORIZON) -> LinearTrackingProblem:
    """The built-in linsolve3 problem at stagger ratio ``rho``."""
    controllers = tuple(stagger_params(DEMO_GAINS, n=3, rho=rho))
    return LinearTrackingProblem(
        a=DEMO_A, b=DEMO_B, controllers=controllers, filters=(FirstOrderFilter(),) * 3, horizon=horizon
    )


def lane_solve(problems):
    """x of every iteration, shape (horizon, unknowns, lanes), of
    ``solve_linear``'s iteration run with one lane per problem.

    The problems may differ only in kp and ki, so the lanes share one
    group: one decay column, read once per iteration, and one ``step``
    call per unknown and iteration.  Nothing stops at a divergence; a
    diverged lane just carries inf and nan on.
    """
    np = pytest.importorskip("numpy")
    first = problems[0]
    ((k_alpha, k_beta, dt, tau),) = {
        (p.k_alpha, p.k_beta, p.dt, f.tau) for q in problems for p, f in zip(q.controllers, q.filters)
    }
    assert all((q.a, q.b, q.horizon) == (first.a, first.b, first.horizon) for q in problems)
    n, lanes = len(first.b), len(problems)
    kps = [np.array([q.controllers[j].kp for q in problems]) for j in range(n)]
    kis = [np.array([q.controllers[j].ki for q in problems]) for j in range(n)]
    psis, integrals = ([np.zeros(lanes) for _ in range(n)] for _ in range(2))
    x = [np.full(lanes, f.state) for f in first.filters]
    y = matvec(first.a, x)
    trace = np.empty((first.horizon, n, lanes))
    column = decays(k_beta, dt)
    with np.errstate(all="ignore"):
        for k in range(1, first.horizon + 1):
            kd = k_alpha * next(column)
            for j in range(n):
                a, e = kd - y[j], first.b[j] - y[j]
                psis[j], integrals[j], _, x[j] = step(psis[j], integrals[j], x[j], kps[j], kis[j], a, e, dt, tau)
            y = matvec(first.a, x)
            trace[k - 1] = x
    return trace


def test_lanes_run_the_scalar_solve_bit_for_bit():
    np = pytest.importorskip("numpy")
    problems = [linsolve3(rho) for rho in RHOS]
    trace = lane_solve(problems)
    bits = trace.view(np.int64)  # -0.0 told apart from 0.0
    finite = np.isfinite(trace)
    diverged = []
    for lane, problem in enumerate(problems):
        try:
            x_trace, _ = solve_linear(problem)
        except DivergenceError as err:
            k = err.iteration
            unknown = int(re.match(r"unknown (\d+): ", str(err)).group(1))
            # the lane goes non-finite first at iteration k, lowest in the unknown named
            assert finite[: k - 1, :, lane].all()
            assert np.flatnonzero(~finite[k - 1, :, lane])[0] == unknown
            diverged.append((k, unknown))
            x_trace, _ = solve_linear(linsolve3(RHOS[lane], horizon=k - 1))
        assert np.array_equal(bits[: len(x_trace), :, lane], np.array(x_trace).view(np.int64))
    assert diverged == [(4634, 0), (1606, 0), (1090, 0)]


def test_the_core_imports_without_numpy():
    out = run_python(
        "import sys\n"
        "import paramodel\n"
        "from paramodel import cli\n"
        "cli.main(['run', '--builtin', 'linsolve3', '--horizon', '10'])\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == "False"
