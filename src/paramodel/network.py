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
tanh's fast path, ``elementary.TANH``, out for the first
``TANH_INLINED`` node sums and calls this module's ``tanh`` for the
rest, so it calls no tanh but on the exact path for a net of up to 63
hidden nodes; in the trainer's loop each copy keeps its table row from
one iteration to the next.  Both names are read where they are used, so
the seam of ``scripts/reference_traces.py``, which sets ``TANH_INLINED``
to 0 and ``tanh`` to its reference, has every text written within it
call the reference for each sum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from graphlib import CycleError, TopologicalSorter
from typing import Callable, Sequence

from . import codegen, elementary
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
        sources in the same order share one tanh, correctly rounded
        (``forward_source``).  The last ``EVALUATORS_CACHED`` functions are
        kept.  ``mask`` takes one bool per weight; the net's own ``mask``,
        checked when the net was built, is not checked again.
        """
        mask = self._mask if mask is self.mask else self._per_weight(_MASK, mask, "mask")
        return _compile(self._plan, len(self.inputs), mask)

    def eval_with(self, weights: Sequence[float], mask: Sequence[bool], x: Sequence[float]) -> float:
        """Forward pass using explicit weight/mask vectors, one x per input.

        A view of ``evaluator``: ``forward`` comes through it, and the
        training loop writes the same text (``forward_source``) inline, so
        masked-vs-zeroed comparisons stay bit-exact.  ``weights`` takes one
        finite number per weight, as the net's own do, and ``x`` one per
        input; the net's own ``weights`` are not checked again.
        """
        if weights is not self.weights:
            weights = self._per_weight(_FLOATS, weights, "weights")
        x = _FLOATS(x, "x")
        if len(x) != self.input_count:
            raise ValidationError(f"expected {self.input_count} inputs, got {len(x)}", key="x")
        return self.evaluator(mask)(weights, x)

    def _per_weight(self, check: Callable, values: Sequence, key: str) -> tuple:
        """``values`` checked by ``check`` under ``key``, one per weight."""
        values = check(values, key)
        if len(values) != self.weight_count:
            raise ValidationError(f"needs one entry per weight ({self.weight_count}), got {len(values)}", key=key)
        return values


_MASK = rule(tuple[bool, ...])
_FLOATS = rule(tuple[float, ...])


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
    ``s`` and sets ``v<n>``, and every other name it assigns, its row
    (``row``, ``c``, ...) and its temporaries, is renamed ``<name>_<n>``,
    so that it takes no name of the text around it."""
    names = {**{v: f"{v}_{{n}}" for v in elementary.assigned(text)}, "x": "s", "y": "v{n}"}
    return codegen.rename(text, lambda v: names.get(v, v))


def forward_source(
    plan: tuple, n_inputs: int, mask: tuple, slots: tuple | None, weight: str
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

    The text writes ``elementary.TANH`` out for the first ``TANH_INLINED``
    distinct sums, reading ``s`` and setting ``v<slot>``, with every other
    name it assigns, ``row`` and ``c`` to ``lo``, renamed ``<name>_<slot>``,
    and ``v<slot> = tanh(s)`` for the rest.
    """
    var = [f"x{j}" for j in range(n_inputs)] + [""] * len(plan)
    head = [f"{', '.join(var[:n_inputs])}, = x"] if n_inputs else []
    body: list[str] = []
    shared: dict[tuple, str] = {}
    for node, terms in plan:
        key = tuple((var[src], i if slots is None else slots[i]) for src, i in terms if mask[i])
        if key not in shared:
            shared[key] = f"v{node}"
            body.append("s = 0.0")
            body += [f"s += {weight.format(i)} * {v}" for v, i in key]
            if len(shared) <= TANH_INLINED:
                head.append(f"row_{node} = {elementary.NO_ROW!r}")
                body += _tanh_copy(elementary.TANH).format(n=node).splitlines()
            else:
                body.append(f"v{node} = tanh(s)")
        var[node] = shared[key]
    # the output node always occupies the last slot
    return head, body, var[-1]


def _forward_text(plan: tuple, n_inputs: int, mask: tuple) -> str:
    """The text of the forward pass of ``FeedforwardNet.evaluator``,
    ``forward(w, x)``, from ``forward_source``."""
    head, body, out = forward_source(plan, n_inputs, mask, None, "w[{}]")
    return codegen.text("forward", ("w", "x"), [*head, *body, f"return {out}"])


@functools.lru_cache(maxsize=EVALUATORS_CACHED)
def _compile(plan: tuple, n_inputs: int, mask: tuple) -> Callable:
    """The function ``_forward_text`` defines, compiled with this module's
    globals: the ``tanh`` it calls past ``TANH_INLINED`` sums is looked up
    here at each call, and so are ``TANH_TABLE`` and ``tanh_slow``, which
    the text of ``elementary.TANH`` reads."""
    return codegen.define(_forward_text(plan, n_inputs, mask), "forward", globals())


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
