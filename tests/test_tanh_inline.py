"""tanh's fast path written inline into the generated forward pass.

``network.forward_source`` writes ``elementary.TANH``, the text
``elementary.tanh`` is compiled from, out for each distinct node sum of
the evaluator's pass and of the trainer's segment.  It writes the call
``tanh(s)`` past ``TANH_INLINED`` sums, and for every sum while
``network.tanh`` is not ``elementary.tanh`` (``scripts/reference_traces.py``
puts mpmath's there).  The inline copy has no zero test, since a node sum
is never -0.0.  Both forms must give the same bits: the call form is run
here by putting a function that calls ``elementary.tanh`` in
``network.tanh``, and compared by digests, ``float.hex`` and the arguments
that reach the exact path.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from allowlist import outside_the_allowlist
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_determinism_corpus import PINNED, corpus, outcome
from test_evaluator import dags

from paramodel import Edge, FeedforwardNet, Scenario, TrainingSample, builtin_scenarios, elementary, network, trainer
from paramodel.config_io import builtin_config_dict, config_from_dict, run_records

from conftest import GOLDEN_DIGESTS, record_bytes

#: The tanh calls of the five built-ins, as ``scripts/reference_traces.py``
#: counts them: one per distinct node sum of each training iteration.
BUILTIN_TANH_CALLS = 880_001


@pytest.fixture
def call_form(monkeypatch):
    """``network.tanh`` replaced by a function that calls ``elementary.tanh``,
    so every text compiled from here on calls it; its calls so far, in a
    one-item list."""
    calls = [0]

    def called(s):
        calls[0] += 1
        return elementary.tanh(s)

    monkeypatch.setattr(network, "tanh", called)
    return calls


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(record_bytes(rec))
    return h.hexdigest()


def test_the_call_form_gives_the_pinned_digests(call_form):
    digests = {name: digest(run_records(config_from_dict(builtin_config_dict(name)))) for name in GOLDEN_DIGESTS}
    assert digests == GOLDEN_DIGESTS
    assert call_form[0] == BUILTIN_TANH_CALLS
    outcomes = {name: outcome(doc) for name, doc in corpus().items()}
    assert outcomes == PINNED


SMALL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 1e-310, -3e-320])
VALUES = st.one_of(SMALL, st.floats(-4.5, 4.5), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(net=dags(), data=st.data())
def test_the_inline_and_the_call_form_agree(net, data):
    q = net.weight_count
    mask = data.draw(st.lists(st.booleans(), min_size=q, max_size=q))
    w = data.draw(st.lists(VALUES, min_size=q, max_size=q))
    x = data.draw(st.lists(VALUES, min_size=net.input_count, max_size=net.input_count))
    inline = net.evaluator(mask)(w, x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "tanh", lambda s: elementary.tanh(s))
        called = net.evaluator(mask)(w, x)
    assert inline.hex() == called.hex()


def test_a_fig4_prefix_takes_the_exact_path_on_the_same_arguments(monkeypatch):
    # the inline text reads network's tanh_slow, elementary.tanh its own
    fig4 = dataclasses.replace(builtin_scenarios()["fig4"], horizon=2000)
    slow = elementary.tanh_slow
    inline, called = [], []
    monkeypatch.setattr(network, "tanh_slow", lambda s: inline.append(s) or slow(s))
    monkeypatch.setattr(elementary, "tanh_slow", lambda s: called.append(s) or slow(s))
    first = digest(trainer.train_online(fig4))
    assert called == []
    monkeypatch.setattr(network, "tanh", lambda s: elementary.tanh(s))
    assert digest(trainer.train_online(fig4)) == first
    assert len(inline) >= 5
    assert [s.hex() for s in called] == [s.hex() for s in inline]


def fan(n: int) -> FeedforwardNet:
    """One input, n hidden nodes of one edge each and the output: n + 1
    distinct sums."""
    hidden = tuple(f"h{j}" for j in range(n))
    edges = (*(Edge("a", h, j) for j, h in enumerate(hidden)), *(Edge(h, "y", n + j) for j, h in enumerate(hidden)))
    weights = tuple((-1) ** j * (j % 17 + 1) / 9.0 for j in range(2 * n))
    return FeedforwardNet(inputs=("a",), hidden=hidden, edges=edges, weights=weights)


def test_past_tanh_inlined_sums_the_text_calls_tanh(monkeypatch):
    n = network.TANH_INLINED + 5
    net = fan(n)
    text = network._forward_text(net._plan, 1, net._mask, network.tanh)
    assert text.count("TANH_TABLE[") == network.TANH_INLINED
    assert text.count(" = tanh(s)") == n + 1 - network.TANH_INLINED
    inline = net.evaluator(net.mask)(net.weights, (0.3,))
    monkeypatch.setattr(network, "tanh", lambda s: elementary.tanh(s))
    assert net.evaluator(net.mask)(net.weights, (0.3,)).hex() == inline.hex()


def test_the_segment_of_a_wide_net_inlines_tanh_inlined_sums(monkeypatch):
    n = network.TANH_INLINED + 5
    scenario = Scenario(TrainingSample(x=(0.3,), y=0.25), net=fan(n), stagger_rho=0.9, horizon=20)
    keys = []
    segment = trainer._segment
    monkeypatch.setattr(trainer, "_segment", lambda *key: keys.append(key) or segment(*key))
    inline = digest(trainer.train_online(scenario))
    [key] = keys
    text = trainer._segment_source(*key)
    assert text.count("TANH_TABLE[") == network.TANH_INLINED
    assert text.count(" = tanh(s)") == n + 1 - network.TANH_INLINED
    monkeypatch.setattr(network, "tanh", lambda s: elementary.tanh(s))
    assert digest(trainer.train_online(scenario)) == inline


def test_tanh_is_compiled_from_the_text_and_holds_only_arithmetic():
    source = elementary._tanh_source()
    assert elementary.TANH.strip() in "\n".join(line[4:] for line in source.splitlines())
    assert outside_the_allowlist(source, "tanh", ("tanh_slow",), "TANH_TABLE") == []
    row = {"c", "h", "l", "a1h", "a1l", "a2", "a3", "a4", "a5", "a6", "a7", "g", "f", "row"}
    assert elementary.assigned(elementary.TANH) == (row | {"key", "t", "xg", "s", "lo", "y"}, row)


@pytest.mark.parametrize(
    "old, new, flagged",
    [
        ("t * a7", "t ** a7", ["BinOp: t_ ** a7_1", "Pow: "]),
        ("y = s + lo", "y = abs(s) + lo", ["Call: abs(s_)", "Name: abs"]),
        ("y = s + lo", "y = sum((s, lo))", ["Call: sum((s_, lo_))", "Name: sum"]),
        ("t = x - c", "t = x - c[0]", ["Subscript: c_1[0]", "Constant: 0"]),
    ],
)
def test_a_patched_tanh_text_is_flagged(old, new, flagged, monkeypatch):
    assert old in elementary.TANH
    monkeypatch.setattr(elementary, "TANH", elementary.TANH.replace(old, new))
    net = FeedforwardNet(inputs=("a",), edges=(Edge("a", "y", 0),))
    forward = network._forward_text(net._plan, 1, net._mask, network.tanh)
    got = outside_the_allowlist(forward, "forward", ("tanh", "tanh_slow"), "TANH_TABLE")
    assert sorted(got) == sorted(flagged)
    args = (net._plan, 1, (True,), (0,), (0,), (0,), network.tanh)
    calls = ("tanh", "tanh_slow", "next", "record")
    got = outside_the_allowlist(trainer._segment_source(*args), "segment", calls, "TANH_TABLE")
    assert sorted(got) == sorted(flagged)
