"""The benchmark's replay contract, on short runs.

``perfbench/replay.py`` times the inner layers by re-running them, through
the module attributes it names, on the inputs a run's records hold, and
fails a traced benchmark run if any replayed output differs from the
recorded one.  This runs the same replay on a 2,000-iteration fig7-shaped
training run and a 2,000-iteration linsolve3 solve read back from its trace
CSV, as the worker reads it, so a change that breaks the contract fails here
and not only in a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
import pathlib
from types import SimpleNamespace

from paramodel import controller, dynamics, linsolve, network, trainer
from paramodel.config_io import read_trace, write_trace
from paramodel.linsolve import as_records, builtin_problem, solve_linear
from paramodel.trainer import train_online

from conftest import short_fig7

REPLAY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "replay.py"


def load_replay():
    spec = importlib.util.spec_from_file_location("perfbench_replay", REPLAY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


#: the package's modules as the benchmark worker passes them to the replay
PM = SimpleNamespace(controller=controller, dynamics=dynamics, linsolve=linsolve, network=network, trainer=trainer)


def test_replay_reproduces_a_training_run_with_every_event_kind():
    replay = load_replay()
    scenario = short_fig7()
    records = list(train_online(scenario))
    lt = replay.LayerTimes()
    replay.replay_train(PM, scenario, records, lt)
    layers = ("network", "controller", "dynamics", "record")
    assert all(lt.calls.get(layer, 0) > 0 for layer in layers), lt.calls
    assert {layer: lt.mismatches[layer] for layer in layers} == dict.fromkeys(layers, 0)


def test_replay_reproduces_a_linear_solve(tmp_path):
    # the worker replays the records it reads back from the CLI's trace, in
    # which consecutive rows share one b tuple
    replay = load_replay()
    problem = builtin_problem(horizon=2000)
    path = str(tmp_path / "linsolve3_trace.csv")
    write_trace(as_records(problem, *solve_linear(problem)), path)
    records = read_trace(path)
    assert all(r.b is records[0].b for r in records)
    lt = replay.LayerTimes()
    replay.replay_linsolve(PM, problem, records, lt)
    layers = ("matvec", "controller", "dynamics")
    assert all(lt.calls.get(layer, 0) > 0 for layer in layers), lt.calls
    assert {layer: lt.mismatches[layer] for layer in layers} == dict.fromkeys(layers, 0)
