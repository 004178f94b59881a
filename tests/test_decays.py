"""The cached initialization decay column, ``controller.decays``: the
values of ``decay`` bit for bit across block edges and equal keys, each
value computed once per cache, and a bounded cache.  A block is filled by
a generated loop with ``elementary.EXP`` written out in it, which keeps
its table row from step to step: its values are ``decay``'s by
``float.hex`` at the edge of the normal range and on the exact path, and
its text holds only arithmetic."""

from __future__ import annotations

import functools
import random
from collections import deque
from itertools import islice

import pytest
from allowlist import outside_the_allowlist
from hypothesis import given, settings
from hypothesis import strategies as st

from paramodel import builtin_problem, builtin_scenarios, controller, elementary, solve_linear, train_online
from paramodel.controller import DECAY_BLOCK, DECAYS_CACHED, decay, decays

READ = 600  # values read per column: more than two blocks, so block edges are crossed


def column_hex(k_beta, dt, k, n=READ):
    return [v.hex() for v in islice(decays(k_beta, dt, k), n)]


def decay_hex(k_beta, dt, k, n=READ):
    return [decay(k_beta, j, dt).hex() for j in range(k, k + n)]


@settings(max_examples=150, deadline=None)
@given(
    k_beta=st.sampled_from([0, 0.0, -0.0, 5e-324, 1e-300, 4, 4.0, 40.0, 1e4, 1e300]) | st.floats(min_value=0.0, max_value=1e6),
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


def counting_blocks(monkeypatch):
    """The blocks filled from here on, counted by their loop's calls, in a
    one-item list."""
    calls = [0]
    loop = controller._decay_loop

    def counted(*args):
        calls[0] += 1
        return loop(*args)

    monkeypatch.setattr(controller, "_decay_loop", counted)
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
    calls = counting_blocks(monkeypatch)
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


def block_hex(k_beta, dt, block):
    """A block computed afresh by the generated loop, by ``float.hex``."""
    return [v.hex() for v in controller._decay_block.__wrapped__(k_beta, dt, block)]


def block_decay_hex(k_beta, dt, block):
    return decay_hex(k_beta, dt, block * DECAY_BLOCK, DECAY_BLOCK)


@settings(max_examples=200, deadline=None)
@given(
    k_beta=st.sampled_from([4.0, 40.0, 1e4, 1e300]) | st.floats(min_value=1e-3, max_value=1e6),
    block=st.integers(0, 600),
    j=st.integers(0, DECAY_BLOCK - 1),
    stretch=st.floats(min_value=0.97, max_value=1.03),
)
def test_a_block_across_the_edge_of_the_normal_range_is_decay_bit_for_bit(k_beta, block, j, stretch):
    # x = -k_beta * (k * dt) is near -708 at step k of the block: the fast
    # path's edge, past which exp_slow takes the subnormal results
    k = max(block * DECAY_BLOCK + j, 1)
    dt = 708.0 * stretch / (k_beta * k)
    assert block_hex(k_beta, dt, block) == block_decay_hex(k_beta, dt, block)


@functools.cache
def exact_arguments() -> tuple[float, ...]:
    """Arguments in (-50, 0) whose fast result exp's rounding test cannot
    prove, from a seeded sweep."""
    seen = []
    exact = elementary._exp_exact
    rng = random.Random(20291)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elementary, "_exp_exact", lambda x: seen.append(x) or exact(x))
        while len(seen) < 20:
            elementary.exp(rng.uniform(-50.0, 0.0))
    return tuple(seen)


@settings(max_examples=60, deadline=None)
@given(i=st.integers(0, 19), p=st.integers(0, 17), k_beta=st.sampled_from([1, 1.0, 0.5, 4.0]))
def test_a_block_takes_the_exact_path_where_decay_does(i, p, k_beta):
    # dt = -x / (k_beta * 2**p) exactly, so step 2**p of its block reads x
    x = exact_arguments()[i]
    dt = -x / (k_beta * 2**p)
    block = 2**p // DECAY_BLOCK
    slow = []
    exp_slow = controller.exp_slow
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controller, "exp_slow", lambda v: slow.append(v) or exp_slow(v))
        got = block_hex(k_beta, dt, block)
    assert x in slow
    assert got == block_decay_hex(k_beta, dt, block)


def test_the_block_and_exp_write_exp_out():
    # both texts pass the allowlist in test_codegen.py
    source = controller._decay_source()
    assert elementary.EXP.strip() in "\n".join(line[8:] for line in source.splitlines())
    exp = elementary._exp_source()
    assert elementary.EXP.strip() in "\n".join(line[4:] for line in exp.splitlines())


@pytest.mark.parametrize(
    "old, new, flagged",
    [
        ("y = th + q", "y = sum((th, q))", ["Call: sum((th, q))", "Name: sum"]),
        ("y = y * scale", "y = y * 2.0 ** (n >> 10)", ["BinOp: 2.0 ** (n >> 10)", "Pow: "]),
        ("n & 1023", "n % 1024", ["BinOp: n % 1024", "Mod: ", "Constant: 1024"]),
        ("y = exp_slow(x)", "y = math.exp(x)", ["Attribute: math.exp", "Name: math"]),
        ("n & 1023", "kf & 1023", ["BinOp: kf & 1023", "Constant: 1023"]),
        ("n >> 10", "n >> 10.0", ["BinOp: n >> 10.0"]),
        ("n = int(kf)", "n = kf", ["BinOp: n & 1023", "BinOp: n >> 10", "Constant: 1023", "Constant: 10"]),
    ],
)
def test_a_mutated_block_is_flagged(old, new, flagged):
    source = controller._decay_source()
    assert old in source
    assert sorted(outside_the_allowlist(source.replace(old, new, 1))) == sorted(flagged)
