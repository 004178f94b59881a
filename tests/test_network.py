"""Feedforward net: topology, forward pass, masks, clamping, symmetry."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paramodel import (
    Edge,
    FeedforwardNet,
    TrainingSample,
    ValidationError,
    default_topology,
    forward,
    set_mask,
    set_weight,
)
from paramodel.elementary import tanh

weights7 = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=7, max_size=7
)
inputs2 = st.tuples(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


def with_weights(net, ws):
    for i, w in enumerate(ws):
        net = set_weight(net, i, w)
    return net


def test_default_topology_shape():
    net = default_topology()
    assert net.weight_count == 7
    assert net.input_count == 2
    assert len(net.hidden) + 1 == 3  # three tanh nodes in total
    assert net.weights == (0.0,) * 7
    assert net.mask == (True,) * 7


def test_forward_all_zero():
    assert forward(default_topology(), (0.3, -0.9)) == 0.0


def test_forward_zero_hidden_activation():
    # only the hidden->output weight set: hidden activations are tanh(0) = 0
    net = set_weight(default_topology(), 4, 1.0)
    assert forward(net, (0.7, 0.2)) == 0.0


def test_forward_hand_value():
    # single path x1 -> h1 -> y with unit weights: tanh(tanh(0.5))
    net = with_weights(default_topology(), [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    got = forward(net, (0.5, 123.0))
    assert got == tanh(tanh(0.5))
    assert got == pytest.approx(0.4318081805950961, abs=1e-15)


def test_forward_dimension_mismatch():
    with pytest.raises(ValidationError):
        forward(default_topology(), (0.5,))


def test_index_out_of_range():
    net = default_topology()
    with pytest.raises(ValidationError):
        set_weight(net, 7, 0.1)
    with pytest.raises(ValidationError):
        set_mask(net, -1, False)


@pytest.mark.parametrize(
    "setter, value, key, message",
    [
        (set_weight, "0.3", "weights", "must be a finite number, got '0.3'"),
        (set_weight, True, "weights", "must be a finite number, got True"),
        (set_mask, "false", "mask", "must be true or false, got 'false'"),
        (set_mask, 0, "mask", "must be true or false, got 0"),
    ],
    ids=["str-weight", "bool-weight", "str-mask", "int-mask"],
)
def test_setters_follow_the_field_rules(setter, value, key, message):
    # no float() or bool(): bool("false") would enable the edge
    with pytest.raises(ValidationError) as info:
        setter(default_topology(), 2, value)
    assert (info.value.key, info.value.message) == (key, message)


@given(ws=weights7, x=inputs2)
def test_mask_off_equals_zero_weight(ws, x):
    net = with_weights(default_topology(), ws)
    for i in range(7):
        masked = set_mask(net, i, False)
        zeroed = set_weight(net, i, 0.0)
        assert forward(masked, x) == forward(zeroed, x)


@given(ws=weights7, x=inputs2)
def test_mask_involution(ws, x):
    net = with_weights(default_topology(), ws)
    toggled = set_mask(set_mask(net, 6, False), 6, True)
    assert forward(toggled, x) == forward(net, x)
    assert toggled == net


@given(ws=weights7, x=inputs2)
def test_output_bound(ws, x):
    y = forward(with_weights(default_topology(), ws), x)
    assert -1.0 < y < 1.0


@given(ws=weights7, x=inputs2)
def test_odd_symmetry(ws, x):
    # with the skip edge off, every node sum is odd in the inputs, and the
    # correctly rounded tanh is exactly odd, so negating the inputs negates
    # the output
    ws = list(ws[:6]) + [0.0]
    net = with_weights(default_topology(), ws)
    assert forward(net, x) == -forward(net, (-x[0], -x[1]))


def test_acyclicity_enforced():
    with pytest.raises(ValidationError):
        FeedforwardNet(
            inputs=("a",),
            hidden=("h1", "h2"),
            output="y",
            edges=(Edge("h1", "h2", 0), Edge("h2", "h1", 1), Edge("h1", "y", 2)),
            weights=(0.0, 0.0, 0.0),
            mask=(True, True, True),
        )


def test_edge_validation():
    with pytest.raises(ValidationError):  # unknown node
        FeedforwardNet(
            inputs=("a",), hidden=(), output="y",
            edges=(Edge("nope", "y", 0),), weights=(0.0,), mask=(True,),
        )
    with pytest.raises(ValidationError):  # edge into an input
        FeedforwardNet(
            inputs=("a",), hidden=("h",), output="y",
            edges=(Edge("h", "a", 0),), weights=(0.0,), mask=(True,),
        )
    with pytest.raises(ValidationError):  # weight index out of range
        FeedforwardNet(
            inputs=("a",), hidden=(), output="y",
            edges=(Edge("a", "y", 3),), weights=(0.0,), mask=(True,),
        )
    with pytest.raises(ValidationError):  # duplicate node ids
        FeedforwardNet(
            inputs=("a", "a"), hidden=(), output="y",
            edges=(), weights=(), mask=(),
        )
    with pytest.raises(ValidationError):  # mask/weights length mismatch
        FeedforwardNet(
            inputs=("a",), hidden=(), output="y",
            edges=(Edge("a", "y", 0),), weights=(0.0,), mask=(True, True),
        )


@pytest.mark.parametrize(
    "hidden, edges, message",
    [
        (("h1", "h2"), (("a", "h1"), ("h1", "h2"), ("h2", "h1"), ("h2", "y")), "network graph has a cycle"),
        (("h",), (("a", "h"), ("h", "h"), ("h", "y")), "network graph has a cycle"),
        (("a",), (("a", "y"),), "node ids must be unique across inputs/hidden/output"),
        (("y",), (("a", "y"),), "node ids must be unique across inputs/hidden/output"),
        ((), (("b", "y"),), "edge source 'b' is not a declared node"),
        ((), (("a", "z"),), "edge target 'z' is not a declared node"),
        ((), (("a", "y"), ("y", "a")), "edge target 'a' is an input node"),
    ],
    ids=["cycle", "self-loop", "input-named-as-hidden", "output-named-as-hidden", "undeclared-source", "undeclared-target", "edge-into-input"],
)
def test_graph_errors(hidden, edges, message):
    with pytest.raises(ValidationError) as info:
        FeedforwardNet(
            inputs=("a",),
            hidden=hidden,
            output="y",
            edges=tuple(Edge(src, dst, i) for i, (src, dst) in enumerate(edges)),
            weights=(0.0,) * len(edges),
            mask=(True,) * len(edges),
        )
    assert str(info.value) == message


def test_plan_is_a_topological_order():
    # hidden nodes declared after the nodes they feed still evaluate first
    net = FeedforwardNet(
        inputs=("a",),
        hidden=("h2", "h1"),
        output="y",
        edges=(Edge("a", "h1", 0), Edge("h1", "h2", 1), Edge("h2", "y", 2)),
        weights=(1.0, 1.0, 1.0),
        mask=(True, True, True),
    )
    assert forward(net, (0.5,)) == tanh(tanh(tanh(0.5)))


def test_disconnected_hidden_node_is_fine():
    # a hidden node nobody feeds evaluates to tanh(0); the output slot is
    # still the one returned
    net = FeedforwardNet(
        inputs=("a",),
        hidden=("h", "orphan"),
        output="y",
        edges=(Edge("a", "h", 0), Edge("h", "y", 1)),
        weights=(1.0, 1.0),
        mask=(True, True),
    )
    assert forward(net, (0.5,)) == tanh(tanh(0.5))


def test_defaults_follow_the_edges():
    # zeros, one per edge weight index, and every weight enabled
    net = FeedforwardNet(inputs=("a", "b", "c"), edges=(Edge("a", "y", 2), Edge("b", "y", 0), Edge("c", "y", 2)))
    assert (net.hidden, net.output) == ((), "y")
    assert net.weights == (0.0, 0.0, 0.0)
    assert net.mask == (True, True, True)
    assert FeedforwardNet() == FeedforwardNet(inputs=(), hidden=(), output="y", edges=(), weights=(), mask=())


@pytest.mark.parametrize(
    "net, key, message",
    [
        (dict(weights=(math.nan,) + (0.0,) * 6), "weights", "must be a finite number, got nan"),
        (dict(weights=(0.0,) * 6 + (math.inf,)), "weights", "must be a finite number, got inf"),
        (dict(weights=(0.0,) * 6), "weights", "an edge's weight index must be < 6, the number of weights, got 6"),
        (dict(mask=(True,) * 6), "mask", "needs one entry per weight (7), got 6"),
        (dict(mask=("false",) + (True,) * 6), "mask", "must be true or false, got 'false'"),
        (dict(mask=(True,) * 6 + (1,)), "mask", "must be true or false, got 1"),
    ],
    ids=["nan-weight", "inf-weight", "weights-shorter-than-edges", "mask-length", "str-mask", "int-mask"],
)
def test_weights_and_mask_rules(net, key, message):
    with pytest.raises(ValidationError) as info:
        replace(default_topology(), **net)
    assert (info.value.key, info.value.message) == (key, message)


def test_without_weights_an_edge_index_is_below_the_edge_count():
    # the default weights hold one entry per index, so an index of 4,000,000
    # would ask for two 4,000,000-entry tuples
    edges = (Edge("a", "y", 0), Edge("a", "y", 2))
    with pytest.raises(ValidationError) as info:
        FeedforwardNet(inputs=("a",), edges=edges)
    assert (info.value.key, info.value.message) == (
        "edges[1]",
        "edge a->y: without a weights list a weight index must be < 2, the number of edges, got 2",
    )
    # with weights given, their length bounds the index
    assert FeedforwardNet(inputs=("a",), edges=edges, weights=(0.5, 0.0, 0.25)).weight_count == 3


@pytest.mark.parametrize(
    "index, message",
    [
        (-1, "weight: must be >= 0, got -1"),
        (1.5, "weight: must be an integer, got 1.5"),
        (True, "weight: must be an integer, got True"),
        ("0", "weight: must be an integer, got '0'"),
    ],
    ids=["negative", "float", "bool", "str"],
)
def test_edge_weight_index_is_an_integer_from_0(index, message):
    with pytest.raises(ValidationError) as info:
        Edge("a", "y", index)
    assert str(info.value) == message


def test_training_sample_validation():
    s = TrainingSample(x=(0.2, 0.6), y=0.55)
    assert s.x == (0.2, 0.6)
    with pytest.raises(ValidationError):
        TrainingSample(x=(math.nan, 0.0), y=0.5)
    with pytest.raises(ValidationError):
        TrainingSample(x=(0.0,), y=math.inf)
