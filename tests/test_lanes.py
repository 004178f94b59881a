"""The solver's own loop on numpy lanes, and a core that imports without numpy.

The text of ``solve_linear``'s generated loop holds no value of a
problem: every gain, ``b_j``, ``dt``, ``tau`` and entry of A comes in as
an argument.  So ``lane_solve`` runs that compiled loop with numpy arrays
for those values, one element (a lane) per problem.  The loop is
arithmetic only, and numpy's elementwise ``+ - * /`` are single IEEE-754
operations, so each lane takes the scalar solve's operations in its order
and gets its bits.
"""

from __future__ import annotations

import dataclasses
import re

import pytest
from test_config_io import run_python

from paramodel import DivergenceError, builtin_problem, linsolve, solve_linear, stagger_params
from paramodel.controller import decays

RHOS = (0.5, 0.8, 0.9, 1.0)
HORIZON = 5_000


def linsolve3(rho: float, horizon: int = HORIZON):
    """The built-in linsolve3 problem at stagger ratio ``rho``."""
    return dataclasses.replace(builtin_problem(horizon), controllers=tuple(stagger_params(linsolve.DEMO_GAINS, 3, rho)))


def lane_solve(problems):
    """x of every iteration, shape (iterations, unknowns, lanes), of
    ``solve_linear``'s loop run with one lane per problem.

    The problems share the loop's shape, with A written out, the decay
    columns (``k_beta`` and ``dt`` of each group) and the horizon.  Each
    value is an array whose truth is every lane's, so the loop's
    finiteness tests stop it only once every lane has diverged: until then
    a diverged lane carries inf and nan on.  The x of that last iteration
    ends the trace.
    """
    np = pytest.importorskip("numpy")

    class Lanes(np.ndarray):
        def __bool__(self):
            return bool(self.view(np.ndarray).all())

    def lanes(values):
        return tuple(np.array(v).view(Lanes) for v in zip(*values))

    shapes, values, decaying = zip(*map(linsolve._loop_args, problems))
    ((n, groups, written),) = set(shapes)
    ((horizon, *keys),) = {(q.horizon, *decay) for q, decay in zip(problems, decaying)}
    assert written
    x, x_trace = lanes(tuple(f.state for f in q.filters) for q in problems), []
    with np.errstate(all="ignore"):
        loop = linsolve._loop(n, groups, written)
        failed = loop(range(1, horizon + 1), x, x_trace, [], next, None, lanes(values), *(decays(*k) for k in keys))
    return np.array(x_trace + ([failed[4]] if failed else []))


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


def test_the_core_imports_without_numpy(tmp_path):
    out = run_python(
        "import sys\n"
        "import paramodel\n"
        "from paramodel import cli\n"
        "cli.main(['run', '--builtin', 'linsolve3', '--horizon', '10'])\n"
        "print('numpy' in sys.modules)\n",
        tmp_path,
    )
    assert out.splitlines()[-1] == "False"
    assert (tmp_path / "linsolve3_trace.csv").is_file()
