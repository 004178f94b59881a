"""One allowlist for the text of every function the package generates.

Every generated function is compiled by ``paramodel.codegen.define``:
the step of the law (``controller._step_source``), the loop of a decay
block (``controller._decay_source``, with ``elementary.EXP`` written out
in it), exp and tanh (``elementary._exp_source``, ``_tanh_source``), the
linear solver's loop (``linsolve._loop_source``, which takes every value
of a problem as an argument), the evaluator's forward pass
(``network._forward_text``, with ``elementary.TANH`` written out in it),
the trainer's event segment (``trainer._segment_source``) and the trace
CSV codec's ``rows`` and ``parse`` (``config_io._codec``).  ``POLICY``
holds, by the function's name, the rule its text is read by, the names
it may call and the one global it may read.
The traces must not depend on the Python version, so the simulation's
texts may hold plain IEEE arithmetic only (``arithmetic``): no ``sum``
(compensated from Python 3.12 on), no ``fsum``, ``abs``, ``**`` or
``%``.  The codec's texts (``codec``) convert each field by ``int`` or
``float`` and write each float by its shortest round-trip repr.
``outside_the_allowlist`` parses a text and lists every node its policy
does not allow.
"""

from __future__ import annotations

import ast

OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.USub, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def is_float(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float


def outside_the_allowlist(source: str) -> list[str]:
    """The nodes of a generated function's text outside the allowlist, each
    as ``"<node type>: <its text>"``.

    The text is one ``def`` of plain arguments, whose name has an entry in
    ``POLICY``: its rule lists the nodes of the function it does not allow,
    given the names the text may call and the one global it may read.
    """
    module = ast.parse(source)
    fn = module.body[0] if module.body else None
    if len(module.body) != 1 or not isinstance(fn, ast.FunctionDef):
        return ["module: not one def"]
    if fn.name not in POLICY:
        return [f"def: {fn.name} has no policy"]
    args = fn.args
    plain = not (args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg or args.defaults)
    if fn.decorator_list or fn.returns or not plain or any(a.annotation for a in args.args):
        return [f"def: not {fn.name}(...) of plain arguments"]
    rule, calls, table = POLICY[fn.name]
    return rule(fn, calls, table)


def bound_names(fn: ast.FunctionDef) -> set[str]:
    """The arguments of ``fn`` and the names it assigns."""
    stores = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return {a.arg for a in fn.args.args} | stores


def arithmetic(fn: ast.FunctionDef, calls: tuple[str, ...], table: str | None) -> list[str]:
    """The nodes of ``fn`` outside plain IEEE arithmetic.

    Allowed: assignments to names and tuples of names, and ``+=`` to a
    name; a ``for`` over a name and a ``break`` out of it; an ``if``
    (``elif``, ``else``) on a comparison; a ``return`` of a tuple or of a
    bound name; a ``yield`` of a call, and a call as a statement.
    Expressions are built from ``+ - * /`` and comparisons over float
    literals (a negative one parses as ``-`` applied to a float), tuple
    displays, the names the function binds, and loads ``w[<int literal>]``
    of its first argument ``w``.  A call is allowed only of a name or an
    attribute (``x_trace.append``, say) listed in ``calls``, whose names
    need not be bound (``tanh`` is a global).  The one global read that is
    not a call is a load ``table[<expression>]`` of the name ``table``, by
    the arithmetic above: the row lookup of ``elementary.TANH``.  The one
    integer arithmetic is ``&`` and ``>>`` of a name that ``int(<name>)``
    binds, where ``int`` is in ``calls``, by an int literal: the row index
    and the power of two of ``elementary.EXP``.  So no ``sum``, ``fsum``,
    ``abs``, ``**`` or ``%``, and no int literal but an index of the first
    argument or the right operand of that ``&`` and ``>>``.
    """
    args = fn.args
    bound = bound_names(fn)
    first = args.args[0].arg if args.args else None
    loads = {
        n
        for n in ast.walk(fn)
        if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Load) and isinstance(n.value, ast.Name)
        and n.value.id == first and isinstance(n.slice, ast.Constant) and type(n.slice.value) is int
    }
    indexes = {n.slice for n in loads}
    rows = {
        n
        for n in ast.walk(fn)
        if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Load) and isinstance(n.value, ast.Name)
        and n.value.id == table
    }
    tables = {n.value for n in rows}
    ints = {
        t.id
        for n in ast.walk(fn)
        if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call) and isinstance(n.value.func, ast.Name)
        and n.value.func.id == "int" and "int" in calls and [type(a) for a in n.value.args] == [ast.Name]
        and not n.value.keywords
        for t in n.targets
        if isinstance(t, ast.Name)
    }
    bits = {
        n
        for n in ast.walk(fn)
        if isinstance(n, ast.BinOp) and isinstance(n.op, (ast.BitAnd, ast.RShift)) and isinstance(n.left, ast.Name)
        and n.left.id in ints and isinstance(n.right, ast.Constant) and type(n.right.value) is int
    }
    # an & or >> is judged with its BinOp, below
    skipped = (ast.Load, ast.Store, ast.arguments, ast.arg, ast.Break, ast.BitAnd, ast.RShift, *OPS)
    bad = []
    for node in ast.walk(fn):
        if node is fn or isinstance(node, skipped):
            continue
        if isinstance(node, ast.Assign):
            ok = all(
                isinstance(t, ast.Name) or isinstance(t, ast.Tuple) and all(isinstance(e, ast.Name) for e in t.elts)
                for t in node.targets
            )
        elif isinstance(node, ast.AugAssign):
            ok = isinstance(node.target, ast.Name) and isinstance(node.op, ast.Add)
        elif isinstance(node, ast.For):
            ok = isinstance(node.target, ast.Name) and isinstance(node.iter, ast.Name) and not node.orelse
        elif isinstance(node, ast.If):
            ok = isinstance(node.test, ast.Compare)
        elif isinstance(node, ast.Return):
            value = node.value
            ok = isinstance(value, ast.Tuple) or isinstance(value, ast.Name) and value.id in bound
        elif isinstance(node, ast.Expr):
            ok = isinstance(node.value, (ast.Call, ast.Yield))
        elif isinstance(node, ast.Yield):
            ok = isinstance(node.value, ast.Call)
        elif isinstance(node, ast.Call):
            # an attribute called is judged as an attribute, below
            func = node.func
            ok = not node.keywords and (isinstance(func, ast.Name) and func.id in calls or isinstance(func, ast.Attribute))
        elif isinstance(node, ast.Attribute):
            ok = ast.unparse(node) in calls
        elif isinstance(node, ast.BinOp):
            ok = isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)) or node in bits
        elif isinstance(node, ast.UnaryOp):
            ok = isinstance(node.op, ast.USub) and is_float(node.operand)
        elif isinstance(node, ast.Name):
            ok = node.id in bound or node.id in calls or node in tables
        else:
            ok = isinstance(node, (ast.Compare, ast.Tuple)) or is_float(node) or node in loads or node in indexes
            ok = ok or node in rows or any(node is b.right for b in bits)
        if not ok:
            bad.append(f"{type(node).__name__}: {ast.unparse(node)}")
    return bad


def codec(fn: ast.FunctionDef, calls: tuple[str, ...], table: str | None) -> list[str]:
    """The nodes of ``fn``, the trace CSV codec's ``rows`` or ``parse``,
    outside its rule.

    A value written into a row is a float by ``!r`` (its shortest
    round-trip repr) with no format spec, or as it is the int ``k`` or a
    name bound to such an f-string; a field read is converted only by
    ``int(<name>)`` or ``float(<name>)``; the only arithmetic is ``k %
    decimation``, and no literal is a float.  Allowed besides: assignments
    to names, to tuples and lists of names and to ``<name>[:]``; a ``for``
    over a name; an ``if`` on comparisons and ``or``; a ``return`` of a
    name; a ``yield`` of an f-string and a call as a statement; attributes
    of a bound name; tuple and list displays.  A call is allowed only of a
    name or an attribute listed in ``calls``, and the one global read that
    is not a call is the name ``table``: the sentinel a reused field's
    object starts from.
    """
    bound = bound_names(fn)
    texts = {"k"} | {
        t.id
        for n in ast.walk(fn)
        if isinstance(n, ast.Assign) and isinstance(n.value, ast.JoinedStr)
        for t in n.targets
        if isinstance(t, ast.Name)
    }
    # an operator is judged with its BinOp, Compare or BoolOp
    skipped = (ast.expr_context, ast.operator, ast.cmpop, ast.boolop, ast.arguments, ast.arg, ast.JoinedStr)
    bad = []
    for node in ast.walk(fn):
        if node is fn or isinstance(node, skipped):
            continue
        if isinstance(node, ast.Assign):
            ok = all(
                isinstance(t, ast.Name)
                or isinstance(t, (ast.Tuple, ast.List)) and all(isinstance(e, ast.Name) for e in t.elts)
                or isinstance(t, ast.Subscript)
                for t in node.targets
            )
        elif isinstance(node, ast.For):
            ok = isinstance(node.target, ast.Name) and isinstance(node.iter, ast.Name) and not node.orelse
        elif isinstance(node, ast.If):
            ok = isinstance(node.test, (ast.Compare, ast.BoolOp))
        elif isinstance(node, ast.Return):
            ok = isinstance(node.value, ast.Name)
        elif isinstance(node, ast.Expr):
            ok = isinstance(node.value, (ast.Call, ast.Yield))
        elif isinstance(node, ast.Yield):
            ok = isinstance(node.value, ast.JoinedStr)
        elif isinstance(node, ast.FormattedValue):
            as_is = node.conversion == -1 and isinstance(node.value, ast.Name) and node.value.id in texts
            ok = node.format_spec is None and (node.conversion == ord("r") or as_is)
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            ok = not node.keywords and name in calls
            if name in ("int", "float"):
                ok = ok and [type(a) for a in node.args] == [ast.Name]
        elif isinstance(node, ast.Attribute):
            ok = isinstance(node.value, ast.Name) and node.value.id in bound
        elif isinstance(node, ast.BinOp):
            ok = ast.unparse(node) == "k % decimation"
        elif isinstance(node, ast.BoolOp):
            ok = isinstance(node.op, ast.Or)
        elif isinstance(node, ast.Subscript):
            ok = isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name) and isinstance(node.slice, ast.Slice)
        elif isinstance(node, ast.Slice):
            ok = node.lower is node.upper is node.step is None
        elif isinstance(node, ast.Name):
            ok = node.id in bound or node.id in calls or node.id == table
        elif isinstance(node, ast.Constant):
            ok = type(node.value) in (int, str, bytes, type(None))
        else:
            ok = isinstance(node, (ast.Compare, ast.Tuple, ast.List))
        if not ok:
            bad.append(f"{type(node).__name__}: {ast.unparse(node)}")
    return bad


#: The policy of each generated function, by its name: the rule its text
#: is read by, the names it may call, and the one global it may read that
#: it does not call (a table of a fast path, or the codec's sentinel).
POLICY = {
    "step": (arithmetic, (), None),
    "decay_block": (arithmetic, ("append", "int", "ldexp", "exp_slow"), "EXP_TABLE"),
    "exp": (arithmetic, ("int", "ldexp", "exp_slow"), "EXP_TABLE"),
    "tanh": (arithmetic, ("tanh_slow",), "TANH_TABLE"),
    "loop": (arithmetic, ("next", "mul", "x_trace.append", "y_trace.append"), None),
    "forward": (arithmetic, ("tanh", "tanh_slow"), "TANH_TABLE"),
    "segment": (arithmetic, ("tanh", "tanh_slow", "next", "record"), "TANH_TABLE"),
    "rows": (codec, (), "_unset"),
    "parse": (codec, ("int", "float", "record", "append", "line.split"), None),
}
