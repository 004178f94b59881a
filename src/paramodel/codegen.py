"""The one home of the package's generated code.

Ten functions are generated from source text: ``controller.step`` and
the loop of a decay block, ``elementary.exp`` and ``elementary.tanh``,
the linear solver's loop, the forward pass and the trainer's segment,
the trace CSV codec's ``rows`` and ``parse``, and a record's tracking
error (``config_io.error_measure``).  Each generator writes
its text with ``text`` and compiles it with ``define``, passing the
globals the text reads: its module's own where it reads a table or
calls a function there, looked up at each call, a dict of its own for
the codec and the tracking error, and ``{"__builtins__": {}}`` where it
reads no global.  ``define`` is the only place the package compiles
text, so one test (``tests/test_codegen.py``) can read every text a run
compiles.  ``rename`` changes the names in a text, as ``controller.law``
and ``network.forward_source`` write ``LAW`` and ``elementary.TANH`` out
on their own locals.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable

__all__ = ["define", "rename", "text"]

# A number literal is one token, so that the ``e`` of ``1e-05`` is no name.
_TOKEN = re.compile(r"([A-Za-z_]\w*)|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def text(name: str, params: Iterable[str], body: Iterable[str]) -> str:
    """The text of ``def name(params):`` with the lines ``body``, each
    indented one level."""
    return "\n".join([f"def {name}({', '.join(params)}):", *(f"    {line}" for line in body)])


def define(source: str, name: str, env: dict, doc: str | None = None) -> Callable:
    """The function ``name`` that ``source`` defines, compiled with the
    globals ``env``, which it reads at each call; its ``__module__`` is
    ``env["__name__"]`` and its docstring ``doc``, if given."""
    namespace: dict = {}
    exec(source, env, namespace)
    fn = namespace[name]
    if doc is not None:
        fn.__doc__ = doc
    return fn


def rename(source: str, name: Callable[[str], str]) -> str:
    """``source`` with ``name(v)`` written for each name ``v`` in it; number
    literals stay as they are."""
    return _TOKEN.sub(lambda m: name(m[1]) if m[1] else m[0], source)
