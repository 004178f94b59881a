"""The law's window of validity on the built-ins: negative results, pinned.

A built-in settles within its horizon, but the settled state does not
last: run long enough, linsolve3 diverges and fig4 leaves the tracking
band.  These pin where, as ``test_uniform_gains_diverge_on_demo_system``
pins a negative result, so a change of arithmetic that moves the window
shows here.  README states both windows.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from paramodel import DivergenceError
from paramodel.linsolve import builtin_problem, solve_linear
from paramodel.trainer import builtin_scenarios, train_online

from conftest import FIG4_SETTLED_FROM, TRACK_TOL


def test_linsolve3_diverges_at_489270_in_unknown_0():
    with pytest.raises(DivergenceError, match=r"^unknown 0: controller state became non-finite: ") as err:
        solve_linear(builtin_problem(horizon=500_000))
    assert err.value.iteration == 489_270


def test_fig4_leaves_the_band_at_723900():
    scenario = replace(builtin_scenarios()["fig4"], horizon=1_000_000)
    violations = (r.k for r in train_online(scenario) if abs(r.y - r.y_ref) >= TRACK_TOL)
    before = []
    for k in violations:  # the run stops at the first violation after settling
        if k > FIG4_SETTLED_FROM:
            break
        before.append(k)
    assert before[-1] == FIG4_SETTLED_FROM - 1
    assert k == 723_900
