"""One allowlist for the text of every function the package generates.

The step of the law (``controller._step_source``), the linear solver's
loop (``linsolve._loop_source``, which takes every value of a problem as
an argument), the trainer's event segment
(``trainer._segment_source``), the evaluator's forward pass
(``network._forward_text``, with ``elementary.TANH`` written out in it)
and the loop of a decay block (``controller._decay_source``, with
``elementary.EXP`` written out in it) are written as source text and
compiled.
The traces must not depend on the Python version, so that text may hold
plain IEEE arithmetic only: no ``sum`` (compensated from Python 3.12 on),
no ``fsum``, ``abs``, ``**`` or ``%``.  ``outside_the_allowlist`` parses
a text and lists every node it does not allow.
"""

from __future__ import annotations

import ast

OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.USub, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def is_float(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float


def outside_the_allowlist(
    source: str, name: str, calls: tuple[str, ...] = (), table: str | None = None
) -> list[str]:
    """The nodes of a generated function's text outside the allowlist, each
    as ``"<node type>: <its text>"``.

    Allowed: one ``def name`` of plain arguments; assignments to names and
    tuples of names, and ``+=`` to a name; a ``for`` over a name and a
    ``break`` out of it; an ``if`` (``elif``, ``else``) on a comparison; a
    ``return`` of a tuple or of a bound name; a ``yield`` of a call, and a
    call as a statement.  Expressions are built from ``+ - * /`` and
    comparisons over float literals (a negative one parses as ``-`` applied
    to a float), tuple displays, the names the function binds, and loads
    ``w[<int literal>]`` of its first argument ``w``.  A call is allowed
    only of a name or an attribute (``x_trace.append``, say) listed in
    ``calls``, whose names need not be bound (``tanh`` is a global).  The
    one global read that is not a call is a load ``table[<expression>]``
    of the name ``table``, by the arithmetic above: the row lookup of
    ``elementary.TANH``.  The one integer arithmetic is ``&`` and ``>>``
    of a name that ``int(<name>)`` binds, where ``int`` is in ``calls``, by
    an int literal: the row index and the power of two of
    ``elementary.EXP``.  So no ``sum``, ``fsum``, ``abs``, ``**`` or
    ``%``, and no int literal but an index of the first argument or the
    right operand of that ``&`` and ``>>``.
    """
    module = ast.parse(source)
    fn = module.body[0]
    if len(module.body) != 1 or not isinstance(fn, ast.FunctionDef):
        return ["module: not one def"]
    args = fn.args
    plain = not (args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg or args.defaults)
    if fn.name != name or fn.decorator_list or fn.returns or not plain or any(a.annotation for a in args.args):
        return [f"def: not {name}(...) of plain arguments"]
    bound = {a.arg for a in args.args}
    bound |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
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
