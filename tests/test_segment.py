"""The trainer's loop, generated once per event segment.

``train_online`` runs each stretch of iterations between two events in a
generator function whose text ``trainer._segment_source`` writes: the
forward pass of ``network.forward_source`` and ``controller.LAW`` per
class representative, on locals.  Its text holds only arithmetic (the
allowlist of ``allowlist.py``), and no value of the run, so one compiled
segment serves every run of the same topology and pattern of classes.
The traces themselves are checked against a per-weight reference loop in
``test_kernel.py`` and ``test_step_all.py``.
"""

from __future__ import annotations

import dataclasses
import re

import pytest
import test_kernel
from allowlist import outside_the_allowlist
from test_step_all import lagging_scenario

from paramodel import (
    DivergenceError,
    Edge,
    FeedforwardNet,
    Scenario,
    TrainingSample,
    builtin_scenarios,
    train_online,
)
from paramodel import network, trainer


def segment_keys(scenario: Scenario, monkeypatch) -> list[tuple]:
    """The key of every segment one run of ``scenario`` generates (or takes
    from the cache), up to a divergence."""
    keys = []
    segment = trainer._segment
    with monkeypatch.context() as mp:
        mp.setattr(trainer, "_segment", lambda *key: keys.append(key) or segment(*key))
        try:
            list(train_online(scenario))
        except DivergenceError:
            pass
    return keys


def wide_net(n_inputs: int, n_hidden: int) -> FeedforwardNet:
    inputs = tuple(f"x{j}" for j in range(n_inputs))
    hidden = tuple(f"h{j}" for j in range(n_hidden))
    edges = [Edge(x, h, len(inputs) * j + i) for j, h in enumerate(hidden) for i, x in enumerate(inputs)]
    edges += [Edge(h, "y", len(edges) + j) for j, h in enumerate(hidden)]
    return FeedforwardNet(inputs=inputs, hidden=hidden, edges=tuple(edges))


def short(name: str, **changes) -> Scenario:
    return dataclasses.replace(builtin_scenarios()[name], **{"horizon": 30, **changes})


SCENARIOS = {
    "fig4": lambda: short("fig4"),
    "staggered": lambda: short("fig4", stagger_rho=0.5),
    "three-lags": lambda: lagging_scenario(),
    "none-stepped-then-diverging": lambda: test_kernel.diverging_scenario(),
    "no-inputs": lambda: Scenario(
        TrainingSample(x=(), y=0.5), net=FeedforwardNet(hidden=("h",), edges=(Edge("h", "y", 0),)), horizon=5
    ),
    "30-weights-staggered": lambda: Scenario(
        TrainingSample(x=(0.1, -0.2, 0.3, 0.4, -0.5), y=0.5), net=wide_net(5, 5), stagger_rho=0.9, horizon=5
    ),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_generated_segment_holds_only_arithmetic(name, monkeypatch):
    keys = segment_keys(SCENARIOS[name](), monkeypatch)
    assert keys
    for key in keys:
        assert outside_the_allowlist(trainer._segment_source(*key)) == []


@pytest.mark.parametrize("name", SCENARIOS)
def test_the_laws_shared_inputs_are_written_once_per_iteration(name, monkeypatch):
    # a<g> once per lag group and e once, whatever the representatives; each
    # representative's law reads them by name
    keys = segment_keys(SCENARIOS[name](), monkeypatch)
    assert keys
    for key in keys:
        source = trainer._segment_source(*key)
        lines = [line.strip() for line in source.splitlines()]
        groups = key[4]  # one lag group per representative
        lagged, reps = len(set(groups)), len(groups)
        assert lines.count("e = y_ref - y") == 1 and source.count("y_ref - y") == 1
        assert [lines.count(f"a{g} = k_alpha * next(column{g}) - y") for g in range(lagged)] == [1] * lagged
        assert source.count("next(") == lagged
        assert sum(bool(re.fullmatch(r"psi\d+ = psi\d+ \+ kp\d+ \* a\d+", line)) for line in lines) == reps
        assert source.count(" * e * dt") == reps


def test_the_segment_allowlist_rejects_sums_and_other_operators(monkeypatch):
    key = segment_keys(short("fig4"), monkeypatch)[0]
    source = trainer._segment_source(*key)
    for old, new, flagged in [
        ("s += w0 * x0", "s = sum((s, w0 * x0))", ["Call: sum((s, w0 * x0))", "Name: sum"]),
        ("s += w0 * x0", "s = fsum((s, w0 * x0))", ["Call: fsum((s, w0 * x0))", "Name: fsum"]),
        ("u0 = psi0 * integral0", "u0 = abs(psi0) * integral0", ["Call: abs(psi0)", "Name: abs"]),
        ("u0 = psi0 * integral0", "u0 = psi0 ** integral0", ["BinOp: psi0 ** integral0", "Pow: "]),
        ("u0 = psi0 * integral0", "u0 = psi0 % integral0", ["BinOp: psi0 % integral0", "Mod: "]),
        ("k * dt", "k * 1", ["Constant: 1"]),
        ("next(column0)", "next(column0, default=0.0)", ["Call: next(column0, default=0.0)", "keyword: default=0.0"]),
    ]:
        assert old in source
        assert sorted(outside_the_allowlist(source.replace(old, new, 1))) == sorted(flagged), new

    # a generator whose node sums call sum() flags every sum it writes
    def summed(*args):
        head, body, out = network.forward_source(*args)
        return head, [f"s = sum((s, {line[5:]}))" if line.startswith("s += ") else line for line in body], out

    monkeypatch.setattr(trainer, "forward_source", summed)
    mutated = trainer._segment_source(*key)
    assert sum(entry.startswith("Call: sum(") for entry in outside_the_allowlist(mutated)) == 4


def scaled_builtins() -> dict[str, Scenario]:
    """The four built-ins with every event iteration divided by 1000."""
    return {
        name: dataclasses.replace(s, horizon=100, events=tuple(dataclasses.replace(e, at=e.at // 1000) for e in s.events))
        for name, s in builtin_scenarios().items()
    }


def test_the_builtins_compile_three_segments_for_ten():
    # fig4 1 segment, fig5 3, fig6 2, fig7 4; three masks, one class each
    trainer._segment.cache_clear()
    for scenario in scaled_builtins().values():
        list(train_online(scenario))
    info = trainer._segment.cache_info()
    assert (info.misses, info.hits) == (3, 7)
    assert info.maxsize == network.EVALUATORS_CACHED


def test_runs_of_other_gains_data_and_bounds_share_a_segment():
    fig5 = scaled_builtins()["fig5"]
    list(train_online(fig5))
    misses = trainer._segment.cache_info().misses
    other = dataclasses.replace(
        fig5,
        base_params=dataclasses.replace(fig5.base_params, kp=2.0, ki=0.02, k_alpha=100.0, k_beta=30.0, dt=2e-5),
        initial_sample=TrainingSample(x=(0.3, 0.1), y=-0.25),
        tau=3e-5,
        w_max=0.5,
    )
    # the shared segment runs on the other run's values, as the reference does
    test_kernel.assert_same_train(other)
    assert trainer._segment.cache_info().misses == misses
