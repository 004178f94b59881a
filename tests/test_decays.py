"""The cached initialization decay column, ``controller.decays``: the
values of ``decay`` bit for bit across block edges and equal keys, each
value computed once per cache, and a bounded cache."""

from __future__ import annotations

from collections import deque
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramodel import builtin_problem, builtin_scenarios, controller, solve_linear, train_online
from paramodel.controller import DECAY_BLOCK, DECAYS_CACHED, decay, decays

READ = 600  # values read per column: more than two blocks, so block edges are crossed


def column_hex(k_beta, dt, k, n=READ):
    return [v.hex() for v in islice(decays(k_beta, dt, k), n)]


def decay_hex(k_beta, dt, k, n=READ):
    return [decay(k_beta, j, dt).hex() for j in range(k, k + n)]


@settings(max_examples=150, deadline=None)
@given(
    k_beta=st.sampled_from([0.0, -0.0, 4, 4.0, 40.0]) | st.floats(min_value=0.0, max_value=1e4),
    dt=st.sampled_from([1e-5, 1e-3, 5e-324]) | st.floats(min_value=5e-324, max_value=1.0),
    k=st.sampled_from([0, 1, 255, 256, 257, 131_071]) | st.integers(0, 300_000),
)
def test_column_is_decay_bit_for_bit(k_beta, dt, k):
    assert column_hex(k_beta, dt, k) == decay_hex(k_beta, dt, k)


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0), (4, 4.0), (4.0, 4)])
def test_equal_keys_share_blocks_and_bits(first, second):
    controller._decay_block.cache_clear()
    column_hex(first, 1e-5, 250)
    hits = controller._decay_block.cache_info().hits
    # the second reads the blocks the first computed
    assert column_hex(second, 1e-5, 250) == decay_hex(second, 1e-5, 250) == decay_hex(first, 1e-5, 250)
    assert controller._decay_block.cache_info().hits == hits + 4  # steps 250-849


def counting_exp(monkeypatch):
    calls = [0]
    exp = controller.exp

    def counted(x):
        calls[0] += 1
        return exp(x)

    monkeypatch.setattr(controller, "exp", counted)
    return calls


@pytest.mark.parametrize(
    "run",
    [
        lambda: deque(train_online(builtin_scenarios()["fig4"]), maxlen=0),
        lambda: solve_linear(builtin_problem()),
    ],
    ids=["fig4", "linsolve3"],
)
def test_a_second_run_computes_no_decay(monkeypatch, run):
    calls = counting_exp(monkeypatch)
    controller._decay_block.cache_clear()
    run()
    assert calls[0] > 0
    calls[0] = 0
    run()
    assert calls[0] == 0


def test_cache_stays_bounded():
    controller._decay_block.cache_clear()
    steps = 200_000
    assert steps > DECAYS_CACHED * DECAY_BLOCK
    (last,) = deque(islice(decays(40.0, 1e-5), steps), maxlen=1)
    assert last.hex() == decay(40.0, steps, 1e-5).hex()
    assert controller._decay_block.cache_info().currsize <= DECAYS_CACHED
