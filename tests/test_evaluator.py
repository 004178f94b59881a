"""The generated forward pass, ``FeedforwardNet.evaluator``, and its text
``network.forward_source`` with a weight slot map, as the trainer's
segment writes it.

Its reference is the interpreted loop it replaced, copied below as it
stood: every comparison is of ``float.hex``, so a changed sign of zero or
a changed rounding shows.  The tanh count pins the sharing of one tanh by
nodes with the same sum, which the uniform-gain built-ins rely on.  The
text of ``forward(w, x)`` passes the allowlist of ``allowlist.py``, with
weights loaded as ``w[<int literal>]``.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paramodel import Edge, FeedforwardNet, ScenarioEvent, ValidationError, builtin_scenarios, default_topology, train_online
from paramodel import network, trainer
from paramodel.elementary import tanh

from allowlist import outside_the_allowlist


def interpreted(net, weights, mask, x):
    """The forward pass as an interpreted loop over the plan."""
    values = [*x, *(0.0,) * (len(net.hidden) + 1)]
    for node_slot, terms in net._plan:
        acc = 0.0
        for src_slot, w_idx in terms:
            if mask[w_idx]:
                acc += weights[w_idx] * values[src_slot]
        values[node_slot] = tanh(acc)
    # the output node always occupies the last slot
    return values[-1]


def reference(net, weights, mask, x, slots=None):
    if slots is not None:
        weights = [weights[s] for s in slots]
    return interpreted(net, weights, mask, x)


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
VALUES = st.one_of(SPECIAL, st.floats(min_value=-3.0, max_value=3.0), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def dags(draw):
    """A random DAG: the output anywhere in the order of the other nodes,
    nodes with no edge, weight indices shared by edges, and nodes that
    copy an earlier node's edges (so their sums can share a tanh)."""
    inputs = [f"x{j}" for j in range(draw(st.integers(0, 3)))]
    hidden = [f"h{j}" for j in range(draw(st.integers(0, 4)))]
    order = draw(st.permutations([*hidden, "y"]))
    q = draw(st.integers(1, 6))
    incoming: dict[str, list] = {}
    edges = []
    for pos, node in enumerate(order):
        earlier = inputs + order[:pos]
        if pos and draw(st.booleans()):
            terms = incoming[draw(st.sampled_from(order[:pos]))]
        elif earlier:
            terms = draw(st.lists(st.tuples(st.sampled_from(earlier), st.integers(0, q - 1)), max_size=4))
        else:
            terms = []
        incoming[node] = terms
        edges += [Edge(src, node, i) for src, i in terms]
    return FeedforwardNet(inputs=tuple(inputs), hidden=tuple(hidden), edges=tuple(edges), weights=(0.0,) * q)


def slot_mapped(net, mask, slots):
    """``network.forward_source``'s pass with weight ``i`` read from the
    local ``w<slots[i]>``, as the trainer's segment reads it, as a function
    ``f(w, x)`` compiled by ``network.define``."""
    head, body, out = network.forward_source(net._plan, net.input_count, tuple(mask), tuple(slots), "w{}", network.tanh)
    names = "".join(f"w{i}, " for i in range(net.weight_count))
    lines = ["def forward(w, x):", f"    {names}= w", *(f"    {line}" for line in (*head, *body)), f"    return {out}"]
    return network.define("\n".join(lines), "forward")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(net=dags(), data=st.data())
def test_generated_code_matches_the_interpreted_loop(net, data):
    q = net.weight_count
    mask = data.draw(st.lists(st.booleans(), min_size=q, max_size=q))
    slots = data.draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q))
    w = data.draw(st.lists(VALUES, min_size=q, max_size=q))
    x = data.draw(st.lists(VALUES, min_size=net.input_count, max_size=net.input_count))
    got = net.evaluator(mask)(w, x)
    assert got.hex() == reference(net, w, mask, x).hex()
    assert net.eval_with(w, mask, x).hex() == got.hex()
    assert slot_mapped(net, mask, range(q))(w, x).hex() == got.hex()
    assert slot_mapped(net, mask, slots)(w, x).hex() == reference(net, w, mask, x, slots).hex()


def test_the_output_need_not_be_last_in_topological_order():
    # y feeds h, so h is evaluated after y; h's value must not be returned
    net = FeedforwardNet(
        inputs=("a",),
        hidden=("h",),
        edges=(Edge("a", "y", 0), Edge("y", "h", 1)),
        weights=(0.0, 0.0),
    )
    assert [slot for slot, _ in net._plan] == [2, 1]
    w = [0.5, 2.0]
    assert net.evaluator([True, True])(w, [1.0]) == tanh(0.5)


def test_a_zero_sum_keeps_its_sign():
    # 0.0 + -0.0 is 0.0: a sum started at its first term would give -0.0
    net = FeedforwardNet(inputs=("a",), edges=(Edge("a", "y", 0),))
    assert net.evaluator([True])([-0.0], [1.0]).hex() == "0x0.0p+0"
    assert net.evaluator([False])([math.nan], [1.0]).hex() == "0x0.0p+0"
    # so the written-out tanh, which has no zero test, never sees -0.0
    two = FeedforwardNet(inputs=("a", "b"), edges=(Edge("a", "y", 0), Edge("b", "y", 1)))
    for w, x in [((-0.0, -0.0), (1.0, 1.0)), ((1.0, 1.0), (-5e-324, 5e-324))]:
        assert two.evaluator(two.mask)(w, x).hex() == "0x0.0p+0"


def test_a_node_of_ten_thousand_edges_compiles_and_matches():
    # one expression of a few thousand terms would exceed the compiler's
    # recursion limit; one statement per term does not
    n = 10_000
    inputs = tuple(f"x{j}" for j in range(100))
    edges = tuple(Edge(f"x{j % 100}", "y", j) for j in range(n))
    net = FeedforwardNet(inputs=inputs, edges=edges)
    w = [((-1) ** j) * (j % 97) / 5003.0 for j in range(n)]
    x = [(j % 13 - 6) / 7.0 for j in range(100)]
    mask = [j % 11 != 0 for j in range(n)]
    assert net.evaluator(mask)(w, x).hex() == interpreted(net, w, mask, x).hex()


def test_the_cache_is_bounded():
    net = FeedforwardNet(inputs=("a",), edges=tuple(Edge("a", "y", i) for i in range(8)))
    for bits in range(2 * network.EVALUATORS_CACHED):
        net.evaluator([bool(bits >> i & 1) for i in range(8)])
    info = network._compile.cache_info()
    assert info.maxsize == network.EVALUATORS_CACHED
    assert info.currsize <= network.EVALUATORS_CACHED


def test_equal_nets_share_one_evaluator_and_a_plan_hashes_once():
    net, twin = default_topology(), default_topology()
    assert net._plan is not twin._plan
    assert net.evaluator(net.mask) is twin.evaluator(twin.mask)
    # the cache key's hash is stored with the plan, so a lookup does not
    # walk the plan's nodes and edges again
    assert net._plan._hash == hash(net._plan) == hash(tuple(net._plan))


def forward_outside_the_allowlist(source: str) -> list[str]:
    return outside_the_allowlist(source, "forward", ("tanh", "tanh_slow"), "TANH_TABLE")


def forward_text(net, mask, fn=network.tanh) -> str:
    """The evaluator's text, with ``elementary.TANH`` written out, or for
    another ``fn`` the call form."""
    return network._forward_text(net._plan, len(net.inputs), tuple(mask), fn)


FORWARD_NETS = {
    "default": default_topology,
    "no-inputs": lambda: FeedforwardNet(hidden=("h",), edges=(Edge("h", "y", 0),)),
    "output-first": lambda: FeedforwardNet(inputs=("a",), hidden=("h",), edges=(Edge("a", "y", 0), Edge("y", "h", 1))),
}


@pytest.mark.parametrize("name", FORWARD_NETS)
def test_generated_forward_pass_holds_only_arithmetic(name):
    # every weight on, every weight off, and each weight dropped alone
    net = FORWARD_NETS[name]()
    n = net.weight_count
    for mask in [(True,) * n, (False,) * n, *(tuple(i != j for i in range(n)) for j in range(n))]:
        assert forward_outside_the_allowlist(forward_text(net, mask)) == []
        assert forward_outside_the_allowlist(forward_text(net, mask, lambda s: s)) == []


def test_the_forward_allowlist_rejects_other_loads_and_operators():
    source = forward_text(default_topology(), default_topology().mask)
    for old, new, flagged in [
        ("s += w[0] * x0", "s += w[0] ** 2.0 * x0", ["BinOp: w[0] ** 2.0", "Pow: "]),
        ("s += w[0] * x0", "s += w[i] * x0", ["Subscript: w[i]", "Name: i"]),
        ("v2 = s_ + lo_", "v2 = abs(s_) + lo_", ["Call: abs(s_)", "Name: abs"]),
        ("key_ = s * 64.0", "key_ = s * 64", ["Constant: 64"]),
        ("TANH_TABLE[key_]", "EXP_TABLE[key_]", ["Subscript: EXP_TABLE[key_]", "Name: EXP_TABLE"]),
        ("v2 = tanh_slow(s)", "v2 = exp(s)", ["Call: exp(s)", "Name: exp"]),
    ]:
        assert old in source
        assert sorted(forward_outside_the_allowlist(source.replace(old, new, 1))) == sorted(flagged), new


@pytest.fixture
def tanh_calls(monkeypatch):
    """The number of tanh calls so far, in a one-item list."""
    calls = [0]

    def counted(s):
        calls[0] += 1
        return tanh(s)

    monkeypatch.setattr(network, "tanh", counted)
    return calls


def calls_per_iteration(scenario, calls):
    per = []
    for _ in train_online(scenario):
        per.append(calls[0])
        calls[0] = 0
    return per


def test_nodes_with_the_same_sum_share_one_tanh(tanh_calls):
    # uniform gains: h1 and h2 read x1 and x2 with one class's weight
    fig4 = dataclasses.replace(builtin_scenarios()["fig4"], horizon=300)
    assert calls_per_iteration(fig4, tanh_calls) == [2] * 300
    # fig7-shaped: the skip edge enabled, then dropped; h1 and h2 share either way
    events = (ScenarioEvent.set_input(100, 0, 0.15), ScenarioEvent.drop_weight(200, 6))
    fig7 = dataclasses.replace(builtin_scenarios()["fig7"], horizon=300, events=events)
    assert calls_per_iteration(fig7, tanh_calls) == [2] * 300
    # fig6-shaped: dropping w3 leaves h2 one term, so it has its own tanh
    events = (ScenarioEvent.drop_weight(0, 6), ScenarioEvent.drop_weight(100, 3))
    fig6 = dataclasses.replace(builtin_scenarios()["fig6"], horizon=200, events=events)
    assert calls_per_iteration(fig6, tanh_calls) == [2] * 99 + [3] * 101


def test_staggered_gains_give_every_node_its_tanh(tanh_calls):
    fig4 = dataclasses.replace(builtin_scenarios()["fig4"], horizon=50, stagger_rho=0.5)
    assert calls_per_iteration(fig4, tanh_calls) == [3] * 50


def test_an_evaluator_compiled_after_a_substitution_calls_it(monkeypatch):
    # the inline text has no tanh to look up: a substituted tanh is the
    # cache key of a text of its own, which calls it
    net = default_topology()
    w, x = [0.5] * 7, [0.2, 0.6]
    f = net.evaluator(net.mask)
    before = f(w, x)
    monkeypatch.setattr(network, "tanh", lambda s: 0.25)
    g = net.evaluator(net.mask)
    assert g is not f and g(w, x) == 0.25 != before
    assert net.evaluator(net.mask) is g
    monkeypatch.setattr(network, "tanh", lambda s: 0.5)
    assert net.evaluator(net.mask)(w, x) == 0.5
    monkeypatch.undo()
    assert net.evaluator(net.mask) is f and f(w, x) == before


def test_the_forward_pass_is_written_once():
    # evaluator and the trainer's segment both take network.forward_source's
    # text, and elementary.tanh and that text both take elementary.TANH
    package = pathlib.Path(network.__file__).parent
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py")))
    # the statements of a node, as the generator writes them
    assert text.count('"s = 0.0"') == text.count('tanh(s)"') == text.count('f"s += ') == 1
    assert "forward_source" in vars(trainer) and "_compile" not in vars(trainer)
    # the rounding test and the polynomial of the fast path
    assert text.count("(lo - (y - s)) * f") == text.count("t * a7") == 1


def test_a_segment_compiled_after_a_substitution_calls_it(monkeypatch):
    fig4 = dataclasses.replace(builtin_scenarios()["fig4"], horizon=5)
    before = [r.y for r in train_online(fig4)]
    misses = trainer._segment.cache_info().misses
    monkeypatch.setattr(network, "tanh", lambda s: 0.25)
    after = [r.y for r in train_online(fig4)]
    assert trainer._segment.cache_info().misses == misses + 1
    assert after == [0.25] * 5 != before
    # the substitute's segment is cached for it
    assert [r.y for r in train_online(fig4)] == after
    assert trainer._segment.cache_info().misses == misses + 1


@pytest.mark.parametrize("mask, shown", [(("false",) * 7, "'false'"), ((1,) * 7, "1")], ids=["mask-str", "mask-int"])
def test_the_mask_follows_its_rule(mask, shown):
    # each was a wrong evaluator: a string mask entry enabled its edge
    with pytest.raises(ValidationError) as err:
        default_topology().evaluator(mask)
    assert err.value.key == "mask"
    assert err.value.message.endswith(f", got {shown}")


def test_eval_with_checks_its_mask():
    net = default_topology()
    with pytest.raises(ValidationError) as err:
        net.eval_with(net.weights, ["false"] * 7, (0.2, 0.6))
    assert err.value.key == "mask"


def test_forward_does_not_check_the_nets_own_mask_again(monkeypatch):
    checks = []
    check = network._MASK
    monkeypatch.setattr(network, "_MASK", lambda mask, key: checks.append(key) or check(mask, key))
    net = network.set_mask(default_topology(), 6, False)
    x = (0.2, 0.6)
    y = network.forward(net, x)
    assert [network.forward(net, x) for _ in range(3)] == [y] * 3
    assert checks == []
    # a mask from outside is checked at every call, even one equal to the net's
    equal = tuple(list(net.mask))
    assert net.eval_with(net.weights, equal, x) == net.eval_with(net.weights, list(net.mask), x) == y
    assert checks == ["mask", "mask"]
    assert net.evaluator(equal) is net.evaluator(net.mask)
