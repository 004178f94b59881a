"""The cyclic garbage collector is paused only around the eager builds of
acyclic data: the solver's loop, ``as_records``' list and the block loop
of ``read_trace``.

Each restores the state it found, enabled or disabled, when it returns
and when it raises; a caller's own loop over ``run_records`` runs with
the collector on.
"""

from __future__ import annotations

import gc

import pytest

from paramodel import ControllerParams, FirstOrderFilter, LinearTrackingProblem, linsolve
from paramodel.config_io import builtin_config_dict, config_from_dict, read_trace, run_records, write_trace
from paramodel.errors import DivergenceError, ParseError
from paramodel.linsolve import as_records, builtin_problem, collector_paused, solve_linear

#: A problem whose filter output overflows at iteration 1.
DIVERGING = LinearTrackingProblem(
    a=((1.0,),),
    b=(0.5,),
    controllers=(ControllerParams(kp=1e160, ki=1e153, k_alpha=1.0, k_beta=0.0),),
    filters=(FirstOrderFilter(tau=1.0),),
    horizon=5,
)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector set to the parameter's state for the test, and
    restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_a_solve_restores_the_collector(collector):
    x_trace, y_trace = solve_linear(builtin_problem(horizon=50))
    assert gc.isenabled() is collector
    assert len(as_records(builtin_problem(horizon=50), x_trace, y_trace)) == 50
    assert gc.isenabled() is collector


def test_a_diverging_solve_restores_the_collector(collector):
    with pytest.raises(DivergenceError):
        solve_linear(DIVERGING)
    assert gc.isenabled() is collector


def test_a_failed_as_records_restores_the_collector(collector):
    with pytest.raises(TypeError):
        as_records(builtin_problem(), None, None)
    assert gc.isenabled() is collector


def test_read_trace_restores_the_collector(collector, tmp_path):
    path = tmp_path / "t.csv"
    problem = builtin_problem(horizon=20)
    records = as_records(problem, *solve_linear(problem))
    write_trace(records, str(path))
    assert read_trace(str(path)) == records
    assert gc.isenabled() is collector
    path.write_bytes(path.read_bytes().replace(b"\n3,", b"\n3x,", 1))
    with pytest.raises(ParseError, match="^line 4: k is not an integer"):
        read_trace(str(path))
    assert gc.isenabled() is collector


def test_the_pause_restores_the_collector_when_its_body_raises(collector):
    with pytest.raises(ZeroDivisionError):
        with collector_paused():
            assert not gc.isenabled()
            1 / 0
    assert gc.isenabled() is collector


def test_the_solvers_loop_runs_with_the_collector_paused(monkeypatch):
    # past linsolve.PRODUCT_TERMS the loop calls matvec for y = A x
    seen = set()
    matvec = linsolve.matvec

    def spy(a, x):
        seen.add(gc.isenabled())
        return matvec(a, x)

    monkeypatch.setattr(linsolve, "matvec", spy)
    n = 65
    a = tuple(tuple(4.0 * n if i == j else 1.0 for j in range(n)) for i in range(n))
    problem = LinearTrackingProblem(
        a=a, b=(1.0,) * n, controllers=(ControllerParams(),) * n, filters=(FirstOrderFilter(),) * n, horizon=3
    )
    assert gc.isenabled()
    solve_linear(problem)
    assert seen == {False}
    assert gc.isenabled()


def test_a_read_back_runs_few_collections(tmp_path):
    # 20,000 records of tuples of floats: no cycle for a collection to find
    path = tmp_path / "t.csv"
    problem = builtin_problem(horizon=20_000)
    write_trace(as_records(problem, *solve_linear(problem)), str(path))
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(count)
    try:
        records = read_trace(str(path))
    finally:
        gc.callbacks.remove(count)
    assert len(records) == 20_000
    assert len(collections) <= 2


@pytest.mark.parametrize("name", ["fig4", "linsolve3"])
def test_a_callers_loop_over_run_records_runs_with_the_collector_on(name):
    doc = builtin_config_dict(name)
    (doc.get("scenario") or doc["problem"])["horizon"] = 30
    seen = set()
    for _ in run_records(config_from_dict(doc)):
        seen.add(gc.isenabled())
    assert seen == {True}
