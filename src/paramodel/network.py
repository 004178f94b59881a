"""Small feedforward tanh network with indexed weights and an edge mask.

The network is the plant under control: a directed acyclic graph whose
non-input nodes apply tanh (``elementary.tanh``, correctly rounded) to
the weighted sum of their enabled incoming edges.  Every edge carries an
index into a shared weight vector, and edges can be disabled through a
boolean mask (dropout-style topology events) without losing their stored
weight.  The net stores weights as given; the training loop bounds them
(``Scenario.w_max``).

The forward pass is generated code with one text, ``forward_source``,
written from the net's plan: ``FeedforwardNet.evaluator`` compiles it into
one straight-line function per mask and caches it,
and ``eval_with`` calls it; the trainer writes it inline into the loop it
generates per event segment (``trainer.train_online``).  The text writes
tanh's fast path, ``elementary.TANH``, out for each node sum, so it calls
no tanh but on the exact path; in the trainer's loop each copy keeps its
table row from one iteration to the next.  While this module's ``tanh``
is replaced (``scripts/reference_traces.py`` puts mpmath's there), the
texts compiled meanwhile call it instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from graphlib import CycleError, TopologicalSorter
from typing import Callable, Sequence

from . import elementary
from .elementary import TANH_TABLE, tanh, tanh_slow  # noqa: F401, read by the generated text
from .errors import Index, ValidationError, check_fields, rule

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
    weight: Index

    def __post_init__(self):
        check_fields(self)


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
    # the checked mask, with its hash computed once
    _mask: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        check_fields(self)
        q = 1 + max((e.weight for e in self.edges), default=-1)
        if self.weights is None:
            # the default weights hold one entry per index: bound the index
            # by the edges, not by memory
            for i, e in enumerate(self.edges):
                if e.weight >= len(self.edges):
                    raise ValidationError(
                        f"edge {e.src}->{e.dst}: without a weights list a weight index must be "
                        f"< {len(self.edges)}, the number of edges",
                        key=f"edges[{i}]",
                        got=e.weight,
                    )
            object.__setattr__(self, "weights", (0.0,) * q)
        if len(self.weights) < q:
            raise ValidationError(
                f"an edge's weight index must be < {len(self.weights)}, the number of weights",
                key="weights",
                got=q - 1,
            )
        if self.mask is None:
            object.__setattr__(self, "mask", (True,) * len(self.weights))
        if len(self.mask) != len(self.weights):
            raise ValidationError(f"needs one entry per weight ({len(self.weights)}), got {len(self.mask)}", key="mask")
        object.__setattr__(self, "_mask", _Hashed(self.mask))
        object.__setattr__(self, "_plan", self._build_plan())

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
        return _Hashed((slot[n], tuple(incoming[n])) for n in order)

    def evaluator(self, mask: Sequence[bool]) -> Callable:
        """The forward pass under ``mask``, as a function ``f(w, x)``.

        ``f`` reads weight ``i`` from ``w[i]`` and ``x`` one value per input.
        It is straight-line code generated from the plan: each node's sum
        starts at ``0.0`` and adds the terms of its enabled edges in plan
        order, exactly as a loop over the edges would, and masked edges are
        left out.  Two nodes whose sums read the same weights from the same
        sources in the same order share one tanh, correctly rounded: the
        text of ``elementary.TANH`` written out, or a call of this module's
        ``tanh`` while it is not ``elementary.tanh``; the cache keeps one
        function per tanh (``forward_source``).
        The last ``EVALUATORS_CACHED`` functions are kept.  ``mask`` takes
        one bool per weight; the net's own ``mask``, checked when the net
        was built, is not checked again.
        """
        if mask is self.mask:
            mask = self._mask
        else:
            mask = _MASK(mask, "mask")
            if len(mask) != self.weight_count:
                raise ValidationError(f"needs one entry per weight ({self.weight_count}), got {len(mask)}", key="mask")
        return _compile(self._plan, len(self.inputs), mask, tanh)

    def eval_with(self, weights: Sequence[float], mask: Sequence[bool], x: Sequence[float]) -> float:
        """Forward pass using explicit weight/mask vectors, one x per input.

        A view of ``evaluator``: ``forward`` comes through it, and the
        training loop writes the same text (``forward_source``) inline, so
        masked-vs-zeroed comparisons stay bit-exact.
        """
        return self.evaluator(mask)(weights, x)


_MASK = rule(tuple[bool, ...])


class _Hashed(tuple):
    """A tuple that computes its hash once: a net's plan and its own mask
    are part of the key ``_compile``'s cache hashes at every ``evaluator``
    call."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


#: Compiled forward passes kept by ``FeedforwardNet.evaluator``, and
#: compiled segments kept by the trainer (one per distinct event segment):
#: a long run of topology events holds at most this many of each.
EVALUATORS_CACHED = 64

#: The distinct node sums a forward-pass text writes ``elementary.TANH``
#: out for; it calls ``tanh`` for the others.  Each copy is fourteen lines
#: to compile.  Writing and compiling the first segment of a 3,000-weight
#: staggered net of 1,001 sums took 0.74-0.90 s with no copy, 0.84-1.10 s
#: with 64 and 1.04-1.27 s with one per sum (the least of five in each of
#: several processes on a loaded 2-CPU Xeon, Python 3.11), and the peak
#: RSS of its first 20 iterations was 226.5, 229.6 and 274.0 MB: 64 copies
#: add a few per cent and 3 MB, and cover every net of up to 63 hidden
#: nodes.
TANH_INLINED = 64


@functools.lru_cache(maxsize=1)
def _tanh_copy(text: str) -> str:
    """The copy of the fast-path text ``text``, ``elementary.TANH``, for
    node slot ``n``, as a ``str.format`` template: it reads the node sum
    ``s`` and sets ``v<n>``, the row it keeps is its own (``row_<n>``,
    ``c_<n>``, ...), and its other locals end in ``_``, so they take no name
    of the text around it."""
    temporaries, row = elementary.assigned(text)
    names = {**{v: f"{v}_" for v in temporaries}, **{v: f"{v}_{{n}}" for v in row}, "x": "s", "y": "v{n}"}
    return elementary.rename(text, lambda v: names.get(v, v))


def forward_source(
    plan: tuple, n_inputs: int, mask: tuple, slots: tuple | None, weight: str, fn: Callable
) -> tuple[list[str], list[str], str]:
    """The text of the forward pass under ``mask``: ``(head, body, out)``.

    ``head`` binds the inputs ``x0, x1, ...`` from a tuple ``x`` and sets
    the ``row`` of each copy of ``elementary.TANH`` to ``NO_ROW``; ``body``
    holds the statements, each indented relative to the others, and ``out``
    is the name that holds the output's value.  ``head`` runs once before
    ``body``, which may run any number of times: the evaluator runs both
    once a call, the trainer's segment ``head`` once before its loop, so
    that each copy keeps its row from one iteration to the next.
    Weight ``i`` is read as ``weight.format(slots[i])`` (``slots[i]`` is
    ``i`` when ``slots`` is None): ``"w[{}]"`` for ``evaluator``, ``"w{}"``
    for the trainer's segment, which keeps each weight in a local.  One
    statement per term, so a node of any in-degree compiles (a single
    expression of a few thousand terms exceeds CPython's compiler recursion
    limit): each node's sum ``s`` starts at ``0.0`` and adds the terms of
    its enabled edges in plan order, so it is never ``-0.0``, and its value
    ``v<slot>`` is tanh of it.  A node whose sum has the key of an earlier
    node (the same weight slots read from the same sources in the same
    order) takes that node's variable, so the two share one tanh.

    ``fn`` is the tanh in use, this module's ``tanh``.  While it is
    ``elementary.tanh``, the text writes ``elementary.TANH`` out for the
    first ``TANH_INLINED`` distinct sums, reading ``s`` and setting
    ``v<slot>``, with its row in ``row_<slot>``, ``c_<slot>``, ...,
    ``f_<slot>``, and ``v<slot> = tanh(s)`` for the rest.  Any other ``fn``
    (``scripts/reference_traces.py`` puts mpmath's in its place) is called
    for every sum.
    """
    var = [f"x{j}" for j in range(n_inputs)] + [""] * len(plan)
    head = [f"{', '.join(var[:n_inputs])}, = x"] if n_inputs else []
    body: list[str] = []
    shared: dict[tuple, str] = {}
    inline = TANH_INLINED if fn is elementary.tanh else 0
    for node, terms in plan:
        key = tuple((var[src], i if slots is None else slots[i]) for src, i in terms if mask[i])
        if key not in shared:
            shared[key] = f"v{node}"
            body.append("s = 0.0")
            body += [f"s += {weight.format(i)} * {v}" for v, i in key]
            if len(shared) <= inline:
                head.append(f"row_{node} = {elementary.NO_ROW!r}")
                body += _tanh_copy(elementary.TANH).format(n=node).splitlines()
            else:
                body.append(f"v{node} = tanh(s)")
        var[node] = shared[key]
    # the output node always occupies the last slot
    return head, body, var[-1]


def define(source: str, name: str) -> Callable:
    """The function ``name`` that ``source`` defines, compiled with this
    module's globals: the ``tanh`` it calls is looked up here at each call,
    and so are ``TANH_TABLE`` and ``tanh_slow``, which the text of
    ``elementary.TANH`` reads."""
    namespace: dict = {}
    exec(source, globals(), namespace)
    return namespace[name]


def _forward_text(plan: tuple, n_inputs: int, mask: tuple, fn: Callable) -> str:
    """The text of the forward pass of ``FeedforwardNet.evaluator``,
    ``forward(w, x)``, from ``forward_source``."""
    head, body, out = forward_source(plan, n_inputs, mask, None, "w[{}]", fn)
    lines = ["def forward(w, x):", *(f"    {line}" for line in (*head, *body)), f"    return {out}"]
    return "\n".join(lines)


@functools.lru_cache(maxsize=EVALUATORS_CACHED)
def _compile(plan: tuple, n_inputs: int, mask: tuple, fn: Callable) -> Callable:
    """The function ``_forward_text`` defines, for the tanh ``fn``."""
    return define(_forward_text(plan, n_inputs, mask, fn), "forward")


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
    x = rule(tuple[float, ...])(x, "x")
    if len(x) != net.input_count:
        raise ValidationError(f"expected {net.input_count} inputs, got {len(x)}")
    return net.eval_with(net.weights, net.mask, x)


def set_weight(net: FeedforwardNet, index: int, value: float) -> FeedforwardNet:
    """Return a copy of the net with weight ``index`` set."""
    if not 0 <= rule(int)(index, "index") < net.weight_count:
        raise ValidationError(f"weight index must be in [0, {net.weight_count})", key="index", got=index)
    w = list(net.weights)
    w[index] = value
    return replace(net, weights=tuple(w))


def set_mask(net: FeedforwardNet, index: int, enabled: bool) -> FeedforwardNet:
    """Return a copy of the net with edge weight ``index`` enabled/disabled."""
    if not 0 <= rule(int)(index, "index") < net.weight_count:
        raise ValidationError(f"weight index must be in [0, {net.weight_count})", key="index", got=index)
    m = list(net.mask)
    m[index] = enabled
    return replace(net, mask=tuple(m))
