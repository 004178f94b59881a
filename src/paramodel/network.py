"""Small feedforward tanh network with indexed weights and an edge mask.

The network is the plant under control: a directed acyclic graph whose
non-input nodes apply tanh (``elementary.tanh``, correctly rounded) to
the weighted sum of their enabled incoming edges.  Every edge carries an
index into a shared weight vector, and edges can be disabled through a
boolean mask (dropout-style topology events) without losing their stored
weight.  The net stores weights as given; the training loop bounds them
(``Scenario.w_max``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from graphlib import CycleError, TopologicalSorter
from typing import Sequence

from .elementary import tanh
from .errors import ValidationError, check_fields

__all__ = [
    "Edge",
    "FeedforwardNet",
    "TrainingSample",
    "default_topology",
    "forward",
    "set_mask",
    "set_weight",
]


@dataclass(frozen=True, slots=True)
class Edge:
    """One directed connection: source node, target node, weight index."""

    src: str
    dst: str
    weight: int

    def __post_init__(self):
        check_fields(self)
        if self.weight < 0:
            raise ValidationError(f"edge {self.src}->{self.dst}: weight index must be an integer >= 0", got=self.weight)


@dataclass(frozen=True, slots=True)
class TrainingSample:
    """Input vector and target output the tuning loop tracks."""

    x: tuple[float, ...]
    y: float

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class FeedforwardNet:
    """Immutable network description plus a cached evaluation plan.

    ``inputs`` fixes the order in which an input vector is bound to input
    nodes.  ``weights`` (default zeros) and ``mask`` (default all enabled)
    hold one entry per edge weight index; without ``weights`` every index
    must be below the number of edges.  A masked-off edge contributes
    exactly zero regardless of its weight.
    """

    inputs: tuple[str, ...] = ()
    hidden: tuple[str, ...] = ()
    output: str = "y"
    edges: tuple[Edge, ...] = ()
    weights: tuple[float, ...] | None = None
    mask: tuple[bool, ...] | None = None
    # eval plan: per non-input node in topological order,
    # (value slot, [(source value slot, weight index), ...])
    _plan: tuple = field(init=False, repr=False, compare=False, default=())
    # initial values of the hidden and output slots, after the inputs
    _pad: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        check_fields(self)
        q = 1 + max((e.weight for e in self.edges), default=-1)
        if self.weights is None:
            # the default weights hold one entry per index: bound the index
            # by the edges, not by memory
            for i, e in enumerate(self.edges):
                if e.weight >= len(self.edges):
                    raise ValidationError(
                        f"edge {e.src}->{e.dst}: weight index {e.weight} needs a weights list; "
                        f"without one an index must be < {len(self.edges)}, the number of edges",
                        key=f"edges[{i}]",
                    )
            object.__setattr__(self, "weights", (0.0,) * q)
        if len(self.weights) < q:
            raise ValidationError(
                f"the edges use weight indices up to {q - 1}, so {q} entries are needed, got {len(self.weights)}",
                key="weights",
            )
        if self.mask is None:
            object.__setattr__(self, "mask", (True,) * len(self.weights))
        if len(self.mask) != len(self.weights):
            raise ValidationError(f"needs one entry per weight ({len(self.weights)}), got {len(self.mask)}", key="mask")
        object.__setattr__(self, "_plan", self._build_plan())
        object.__setattr__(self, "_pad", (0.0,) * (len(self.hidden) + 1))

    @property
    def weight_count(self) -> int:
        return len(self.weights)

    @property
    def input_count(self) -> int:
        return len(self.inputs)

    def _build_plan(self) -> tuple:
        nodes = list(self.inputs) + list(self.hidden) + [self.output]
        if len(set(nodes)) != len(nodes):
            raise ValidationError("node ids must be unique across inputs/hidden/output")
        slot = {name: i for i, name in enumerate(nodes)}
        incoming: dict[str, list[tuple[int, int]]] = {n: [] for n in nodes}
        graph = TopologicalSorter({n: () for n in nodes})
        for e in self.edges:
            if e.src not in slot:
                raise ValidationError(f"edge source {e.src!r} is not a declared node")
            if e.dst not in slot:
                raise ValidationError(f"edge target {e.dst!r} is not a declared node")
            if e.dst in self.inputs:
                raise ValidationError(f"edge target {e.dst!r} is an input node")
            incoming[e.dst].append((slot[e.src], e.weight))
            graph.add(e.dst, e.src)
        # any topological order gives the same values: a node reads only its sources
        try:
            order = [n for n in graph.static_order() if n not in self.inputs]
        except CycleError:
            raise ValidationError("network graph has a cycle") from None
        return tuple((slot[n], tuple(incoming[n])) for n in order)

    def eval_with(self, weights: Sequence[float], mask: Sequence[bool], x: Sequence[float]) -> float:
        """Forward pass using explicit weight/mask vectors, one x per input.

        This is the single evaluation path: ``forward`` and the training
        loop both come through here, so masked-vs-zeroed comparisons stay
        bit-exact.  Each node applies ``elementary.tanh``, correctly
        rounded, looked up as a global of this module at each call, so
        ``scripts/reference_traces.py`` can put mpmath's tanh in its place.
        """
        values = [*x, *self._pad]
        for node_slot, terms in self._plan:
            acc = 0.0
            for src_slot, w_idx in terms:
                if mask[w_idx]:
                    acc += weights[w_idx] * values[src_slot]
            values[node_slot] = tanh(acc)
        # the output node always occupies the last slot
        return values[-1]


def default_topology() -> FeedforwardNet:
    """Three tanh nodes, two inputs, seven weights.

    w0..w3 connect the inputs to two hidden nodes, w4/w5 connect the
    hidden nodes to the output, and w6 is an input-to-output skip edge.
    All weights start at zero with every edge enabled, the defaults.
    """
    edges = (
        Edge("x1", "h1", 0),
        Edge("x2", "h1", 1),
        Edge("x1", "h2", 2),
        Edge("x2", "h2", 3),
        Edge("h1", "y", 4),
        Edge("h2", "y", 5),
        Edge("x1", "y", 6),
    )
    return FeedforwardNet(
        inputs=("x1", "x2"),
        hidden=("h1", "h2"),
        edges=edges,
    )


def forward(net: FeedforwardNet, x: Sequence[float]) -> float:
    """Evaluate the network on input vector x; output is in (-1, 1)."""
    if len(x) != net.input_count:
        raise ValidationError(f"expected {net.input_count} inputs, got {len(x)}")
    return net.eval_with(net.weights, net.mask, x)


def set_weight(net: FeedforwardNet, index: int, value: float) -> FeedforwardNet:
    """Return a copy of the net with weight ``index`` set."""
    if not 0 <= index < net.weight_count:
        raise ValidationError(f"weight index {index} out of range [0, {net.weight_count})")
    w = list(net.weights)
    w[index] = value
    return replace(net, weights=tuple(w))


def set_mask(net: FeedforwardNet, index: int, enabled: bool) -> FeedforwardNet:
    """Return a copy of the net with edge weight ``index`` enabled/disabled."""
    if not 0 <= index < net.weight_count:
        raise ValidationError(f"weight index {index} out of range [0, {net.weight_count})")
    m = list(net.mask)
    m[index] = enabled
    return replace(net, mask=tuple(m))
