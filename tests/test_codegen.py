"""One audit of every text the package compiles.

``paramodel.codegen.define`` is the one place the package compiles text.
Here it is spied on while a process runs the five built-ins on short
horizons (events scaled down), a sample of the determinism corpus, a
forward pass, and a trace write and read-back of each built-in, with
every cache of compiled functions cleared first.  Each text it compiled,
and the four compiled at import (``step``, the decay block, ``exp`` and
``tanh``), is checked against ``POLICY`` of ``allowlist.py``, by the name
its ``def`` gives; a name missing from the table fails.  An ``ast`` check
over the package keeps the one home: no other module calls ``exec``,
``eval`` or ``compile`` by name, or sets a ``__doc__`` or ``__module__``.
"""

from __future__ import annotations

import ast
import pathlib

import pytest
from allowlist import POLICY, outside_the_allowlist
from test_determinism_corpus import PINNED, corpus, outcome

from paramodel import codegen, config_io, controller, elementary, linsolve, network, trainer
from paramodel.config_io import builtin_config_dict, config_from_dict, read_trace, run_records, write_trace

BUILTINS = ("fig4", "fig5", "fig6", "fig7", "linsolve3")

#: Every sixth configuration of the corpus: train and linsolve, the forced
#: cases train-00 and linsolve-00 among them.
CORPUS_SAMPLE = sorted(corpus())[::6]


def short(name: str) -> dict:
    """The built-in ``name`` with a horizon of 100 and every event
    iteration divided by 1000."""
    doc = builtin_config_dict(name)
    section = doc.get("scenario") or doc["problem"]
    section["horizon"] = 100
    for event in section.get("events", ()):
        event["at"] //= 1000
    return doc


@pytest.fixture(scope="module")
def compiled(tmp_path_factory) -> list[tuple[str, str]]:
    """``(name, text)`` of the four functions compiled at import, then of
    every function ``codegen.define`` compiles in the run above."""
    texts = [
        ("step", controller._step_source()),
        ("decay_block", controller._decay_source()),
        ("exp", elementary._exp_source()),
        ("tanh", elementary._tanh_source()),
    ]
    define = codegen.define

    def spy(source, name, env, doc=None):
        texts.append((name, source))
        return define(source, name, env, doc)

    for cache in (linsolve._loop, network._compile, trainer._segment, config_io._codec):
        cache.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codegen, "define", spy)
        for name in BUILTINS:
            records = list(run_records(config_from_dict(short(name))))
            path = str(tmp_path_factory.mktemp("codegen") / f"{name}.csv")
            write_trace(records, path)
            assert read_trace(path) == records
        docs = corpus()
        for name in CORPUS_SAMPLE:
            assert outcome(docs[name]) == PINNED[name]
        net = network.default_topology()
        network.forward(net, (0.2, 0.6))
    return texts


def test_every_generated_function_is_compiled(compiled):
    assert {name for name, _ in compiled} == set(POLICY)


def test_every_compiled_text_passes_its_policy(compiled):
    for name, source in compiled:
        assert ast.parse(source).body[0].name == name
        assert outside_the_allowlist(source) == [], name


def test_a_function_without_a_policy_fails():
    assert outside_the_allowlist("def double(x):\n    return x + x") == ["def: double has no policy"]


def codec_text(compiled, name: str) -> str:
    """The text of the codec's ``name``, ``rows`` or ``parse``, for solver
    records of three unknowns."""
    [source] = {s for n, s in compiled if n == name and "b3" in s and "b4" not in s}
    return source


@pytest.mark.parametrize(
    "name, old, new, flagged",
    [
        ("rows", "{y1!r}", "{y1:.17g}", ["FormattedValue: {y1:.17g}"]),
        ("rows", "{x3!r}", "{x3!r:.17g}", ["FormattedValue: {x3!r:.17g}"]),
        ("rows", "{k}", "{k:d}", ["FormattedValue: {k:d}"]),
        ("rows", "k % decimation", "k % decimation + 0", ["BinOp: k % decimation + 0"]),
        ("parse", "float(b1)", "float(b1) + 0.0", ["BinOp: float(b1) + 0.0", "Constant: 0.0"]),
        ("parse", "float(y1)", "float(y1.strip())", ["Call: float(y1.strip())", "Call: y1.strip()"]),
        ("parse", "int(k)", "int(k, 16)", ["Call: int(k, 16)"]),
    ],
)
def test_a_mutated_codec_is_flagged(compiled, name, old, new, flagged):
    source = codec_text(compiled, name)
    assert old in source
    assert sorted(outside_the_allowlist(source.replace(old, new, 1))) == sorted(flagged)


PACKAGE = pathlib.Path(codegen.__file__).parent


def compiles_text(source: str) -> list[str]:
    """Each call of ``exec``, ``eval`` or ``compile`` by name in
    ``source``, and each assignment to a ``__doc__`` or ``__module__``, as
    ``"<line>: <its text>"``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            hit = node.func.id in ("exec", "eval", "compile")
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            hit = (node.id if isinstance(node, ast.Name) else node.attr) in ("__doc__", "__module__")
        else:
            hit = False
        if hit:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_only_codegen_compiles_text():
    found = {
        path.name: compiles_text(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "codegen.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
    assert compiles_text((PACKAGE / "codegen.py").read_text(encoding="utf-8"))


def test_the_guard_finds_exec_and_a_patched_docstring():
    source = "exec(text, env, ns)\nf = ns['f']\nf.__module__, f.__doc__ = __name__, doc\nre.compile(p)\n"
    assert compiles_text(source) == ["1: exec(text, env, ns)", "3: f.__module__", "3: f.__doc__"]
