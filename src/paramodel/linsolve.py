"""Solving A x = b as a distributed tracking problem.

Each unknown x_j is driven by its own controller that steers the measured
row value y_j = (A x)_j toward the reference b_j, treating the coupling
through the other variables as a disturbance.  The controllers are
staggered: gains decrease geometrically with the variable index so each
loop stabilizes at a distinct speed.  When every y_j is held close to
b_j, x is close to the solution of the system.  ``solve_linear`` runs
one loop generated per shape, with each unknown's state and each value of
the problem in locals: ``controller.LAW`` written out once per unknown,
and y = A x written out as one expression per row (``_rows``), each row
summed in ``matvec``'s order, so the two agree bit for bit.
``as_records`` turns a solve's traces into one ``LinsolveRecord``
NamedTuple per iteration.  Both build their lists with the cyclic garbage
collector paused (``collector_paused``).
"""

from __future__ import annotations

import contextlib
import functools
import gc
from dataclasses import dataclass
from itertools import count, repeat
from typing import Callable, NamedTuple

from . import codegen
from .controller import ControllerParams, decays, divergence, law, stagger_params
from .dynamics import FirstOrderFilter
from .errors import Count, DivergenceError, ValidationError, check_fields

__all__ = [
    "LinearTrackingProblem",
    "LinsolveRecord",
    "as_records",
    "builtin_problem",
    "collector_paused",
    "matvec",
    "solve_linear",
    "stagger_params",
]

# 3x3 demo system used by the built-in "linsolve3" run, and the base gains
# and stagger ratio of its controllers.  A problem configured without a
# stagger ratio also takes DEMO_RHO.
DEMO_A = ((3.0, 0.5, 8.0), (4.0, 7.0, 4.5), (1.0, 9.0, 3.0))
DEMO_B = (7.95, 6.30, 3.80)
DEMO_GAINS = ControllerParams(k_beta=4.0)
DEMO_RHO = 0.5


@dataclass(frozen=True)
class LinearTrackingProblem:
    """Square system plus one controller/filter pair per unknown."""

    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    controllers: tuple[ControllerParams, ...]
    filters: tuple[FirstOrderFilter, ...]
    horizon: Count = 50_000

    def __post_init__(self):
        check_fields(self)
        n = len(self.b)
        if n == 0:
            raise ValidationError("system must have at least one variable")
        if len(self.a) != n or any(len(row) != n for row in self.a):
            raise ValidationError(f"matrix must be square {n}x{n} to match b")
        if len(self.controllers) != n:
            raise ValidationError(f"need {n} controller parameter sets, got {len(self.controllers)}")
        if len(self.filters) != n:
            raise ValidationError(f"need {n} filters, got {len(self.filters)}")


class LinsolveRecord(NamedTuple):
    """One recorded iteration: measured row values, references, unknowns."""

    k: int
    y: tuple[float, ...]
    b: tuple[float, ...]
    x: tuple[float, ...]


def matvec(a, x) -> tuple[float, ...]:
    """Row-major dense product A x: the definition of the order of
    summation that ``_rows`` writes out.

    Each row is summed left to right from 0.0 in plain IEEE arithmetic.
    ``sum()`` is not used: from Python 3.12 on it compensates float sums,
    which would make the traces depend on the Python version.
    """
    y = []
    for row in a:
        acc = 0.0
        for a_jc, x_c in zip(row, x):
            acc += a_jc * x_c
        y.append(acc)
    return tuple(y)


#: Terms of the largest matrix whose rows the solver's loop writes out as
#: code, n * n for n unknowns: 4096, so n <= 64; a larger matrix takes
#: ``matvec``.  A row is one expression nested a level per term, and
#: CPython's compiler fails on a row of 4,000 terms; writing and compiling
#: the loop of 64 unknowns takes about 35 ms.
PRODUCT_TERMS = 4096

#: Solver loops kept by ``solve_linear``, one per shape.
LOOPS_CACHED = 16


@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic garbage collector for an eager build of acyclic
    data, then restore the state it found: enabled stays enabled, disabled
    stays disabled.

    Tuples of floats hold no reference cycle, so a collection during such
    a build frees nothing; building 50,000 solver records and traces and
    reading them back ran hundreds of them.  The pause must not span a
    ``yield`` or a call into caller code, whose own allocations it would
    leave uncollected.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _rows(n: int) -> list[str]:
    """One expression per row of A x, ``0.0 + a<j>_0 * x0 + a<j>_1 * x1 +
    ...``, on the names of A's entries.

    ``+`` is left-associative, so each row adds its terms to 0.0 from left
    to right, as ``matvec`` does; the start 0.0 stays, because ``0.0 +
    (-0.0)`` is 0.0.
    """
    return ["0.0" + "".join(f" + a{j}_{c} * x{c}" for c in range(n)) for j in range(n)]


def solve_linear(
    problem: LinearTrackingProblem,
) -> tuple[list[tuple[float, ...]], list[tuple[float, ...]]]:
    """Run the distributed tracking loop; return (x trace, y trace).

    Iteration k measures y from the previous x, steps every controller
    against (b_j, y_j) synchronously, filters the raw controls into the
    new x, and records the pair (x_k, y_k = A x_k).  The loop is one
    function generated for the problem's shape (``_loop_source``),
    compiled once per shape (``_loop``), and run on the problem's values.
    Raises DivergenceError with k once a y is non-finite, naming the
    lowest non-finite unknown if any.
    """
    (n, groups, written), values, decaying = _loop_args(problem)
    mul = None if written else functools.partial(matvec, problem.a)
    columns = [decays(k_beta, dt) for k_beta, dt in decaying]
    x_trace: list[tuple[float, ...]] = []
    y_trace: list[tuple[float, ...]] = []
    start = tuple(f.state for f in problem.filters)
    loop = _loop(n, groups, written)
    with collector_paused():
        failed = loop(range(1, problem.horizon + 1), start, x_trace, y_trace, next, mul, values, *columns)
    if failed is not None:
        k, psis, integrals, us, x, y = failed
        # A is finite, so a non-finite x makes every y non-finite
        for j, xj in enumerate(x):
            if xj - xj != 0.0:
                raise divergence(k, psis[j], integrals[j], us[j], xj, f"unknown {j}: ")
        raise DivergenceError(f"measured output became non-finite: {y}", iteration=k)
    return x_trace, y_trace


@functools.lru_cache(maxsize=LOOPS_CACHED)
def _loop(n: int, groups: tuple[tuple[int, ...], ...], written: bool) -> Callable:
    """The function ``loop`` of ``_loop_source(n, groups, written)``.  The
    last ``LOOPS_CACHED`` are kept, keyed by the shape, so problems that
    differ only in their values share one loop and write no text."""
    # the generated code reads no global
    return codegen.define(_loop_source(n, groups, written), "loop", {"__builtins__": {}, "__name__": __name__})


def _groups(problem: LinearTrackingProblem) -> dict[tuple[float, float, float, float], list[int]]:
    """The unknowns of each distinct ``(k_alpha, k_beta, dt, tau)``, in index
    order: each group reads one decay column, once per iteration.  Keys that
    compare equal share a group and take its first key (0.0 and -0.0)."""
    by_key: dict[tuple[float, float, float, float], list[int]] = {}
    for j, (p, f) in enumerate(zip(problem.controllers, problem.filters)):
        by_key.setdefault((p.k_alpha, p.k_beta, p.dt, f.tau), []).append(j)
    return by_key


def _loop_args(problem: LinearTrackingProblem) -> tuple[tuple, tuple[float, ...], tuple]:
    """The shape of ``problem``'s loop, ``(n, groups, written)``: its n
    unknowns, the unknowns of each of its ``_groups`` and whether A is
    written out (``n * n`` within ``PRODUCT_TERMS``); the values that
    loop unpacks, in its order: k_alpha, dt, h = 0.5 * dt and tau per
    group, kp, ki and b_j per unknown, then A's entries row by row if A is
    written out; and the ``(k_beta, dt)`` of each group's decay column."""
    groups, n = _groups(problem), len(problem.b)
    written = n * n <= PRODUCT_TERMS
    values = [v for k_alpha, _, dt, tau in groups for v in (k_alpha, dt, 0.5 * float(dt), tau)]
    values += [v for p, b in zip(problem.controllers, problem.b) for v in (p.kp, p.ki, b)]
    values += [v for row in problem.a for v in row] if written else []
    return (n, tuple(map(tuple, groups.values())), written), tuple(map(float, values)), tuple(k[1:3] for k in groups)


def _loop_source(n: int, groups: tuple[tuple[int, ...], ...], written: bool) -> str:
    """The text of the solver's loop for ``n`` unknowns in the decay
    groups ``groups``, ``loop(ks, x, x_trace, y_trace, next, mul, values,
    column0, column1, ...)``; it holds no value of a problem.

    It first unpacks ``values`` (``_loop_args``) into the locals
    ``k_alpha<g>``, ``dt<g>``, ``h<g>`` and ``tau<g>`` of group g,
    ``kp<j>``, ``ki<j>`` and ``b<j>`` of unknown j, and, if ``written``,
    ``a<j>_<c>`` of A.  Unknown j keeps psi, integral, u and x in the
    locals ``psi<j>``, ``integral<j>``, ``u<j>`` and ``x<j>``, and y_j in
    ``y<j>``.  Iteration k takes ``kd<g> = k_alpha<g> * next(column<g>)``
    for group g and then ``LAW`` for each of the group's unknowns in index
    order, with ``a = kd<g> - y<j>`` and ``e = b<j> - y<j>``.  It then
    measures y: the rows of ``_rows(n)``, or ``mul(x)``, that is
    ``matvec``, past ``PRODUCT_TERMS``.  One sum of y is tested; only when
    it is non-finite is each y tested, so a sum that overflows stops
    nothing.  A non-finite y returns ``(k, psis, integrals, us, x, y)``;
    otherwise x and y are appended to the traces, and the loop returns
    None at the end.
    """

    def names(stem: str) -> str:
        return ", ".join(f"{stem}{j}" for j in range(n)) + ","

    xs, ys = names("x"), names("y")
    if written:
        measure = [f"y{j} = {row}" for j, row in enumerate(_rows(n))]
        x, y = f"({xs})", f"({ys})"
    else:
        measure = [f"x = ({xs})", "y = mul(x)", f"{ys} = y"]
        x, y = "x", "y"
    unpacked = [f"{v}{g}" for g in range(len(groups)) for v in ("k_alpha", "dt", "h", "tau")]
    unpacked += [f"{v}{j}" for j in range(n) for v in ("kp", "ki", "b")]
    unpacked += [f"a{j}_{c}" for j in range(n) for c in range(n)] if written else []
    params = ["ks", "x", "x_trace", "y_trace", "next", "mul", "values", *(f"column{g}" for g in range(len(groups)))]
    lines = [
        f"{', '.join(unpacked)}, = values",
        f"{xs} = x",
        *measure,
        f"{' = '.join(f'psi{j}' for j in range(n))} = 0.0",
        f"{' = '.join(f'integral{j}' for j in range(n))} = 0.0",
        "for k in ks:",
    ]
    for g, idx in enumerate(groups):
        lines.append(f"    kd{g} = k_alpha{g} * next(column{g})")
        for j in idx:
            inputs = dict(a=f"(kd{g} - y{j})", e=f"(b{j} - y{j})")
            own = {v: f"{v}{g}" for v in ("dt", "h", "tau")}
            own.update({v: f"{v}{j}" for v in ("kp", "ki", "psi", "integral", "u", "x")})
            lines.extend(f"    {line}" for line in law(inputs, own))
    lines += [f"    {line}" for line in measure]
    lines += [
        f"    s = {' + '.join(f'y{j}' for j in range(n))}",
        "    if s - s != 0.0:",
        f"        if {' + '.join(f'(y{j} - y{j})' for j in range(n))} != 0.0:",
        f"            return k, ({names('psi')}), ({names('integral')}), ({names('u')}), {x}, {y}",
        f"    x_trace.append({x})",
        f"    y_trace.append({y})",
    ]
    return codegen.text("loop", params, lines)


def as_records(problem: LinearTrackingProblem, x_trace, y_trace) -> list[LinsolveRecord]:
    """Zip solver traces into per-iteration records for CSV output.

    Each record is built by the C tuple constructor bound to
    ``LinsolveRecord``, which takes the fields as one tuple and skips the
    class's Python ``__new__``; every record holds the one ``problem.b``."""
    record = functools.partial(tuple.__new__, LinsolveRecord)
    with collector_paused():
        return list(map(record, zip(count(1), y_trace, repeat(problem.b), x_trace)))


def builtin_problem(horizon: int = LinearTrackingProblem.horizon) -> LinearTrackingProblem:
    """The 3x3 demo system with tuned staggered gains.

    The initialization decay is slower here (k_beta = 4) than in the
    network-training runs because the references are an order of magnitude
    larger: the series psi needs a correspondingly larger plateau to hold
    its sign over the whole run.  The filters take their default tau.
    """
    controllers = tuple(stagger_params(DEMO_GAINS, n=3, rho=DEMO_RHO))
    filters = (FirstOrderFilter(),) * 3
    return LinearTrackingProblem(
        a=DEMO_A, b=DEMO_B, controllers=controllers, filters=filters, horizon=horizon
    )
