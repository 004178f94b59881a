"""Run configuration, the run driver, settling analysis and CSV traces.

A run is described by a small YAML document (see README for the schema).
``builtin: NAME`` expands to the configuration of one of the named
built-in runs, and the rest of the document is merged into it
(``merge``).  The CLI and the tests load, run and judge a configuration
through the one definition of each here: ``load_config_dict``,
``run_records``, ``error_measure`` (of which ``tracking_error`` is a
view), ``segment_starts`` and ``segment_settling``.  Traces are written
as plain CSV with shortest round-trip float formatting, so re-reading a
trace reproduces the recorded values exactly.
"""

from __future__ import annotations

import functools
import re
import sys
from bisect import bisect_left
from dataclasses import MISSING, dataclass, fields, is_dataclass
from itertools import chain, islice
from types import UnionType
from typing import Iterable, Iterator, Union, get_args, get_origin

from . import codegen, linsolve, trainer
from .controller import ControllerParams, stagger_params
from .dynamics import DEFAULT_TAU, FirstOrderFilter
from .errors import _SHOWN, Count, ParseError, Positive, Ratio, ValidationError, check_fields, field_types, rule
from .linsolve import LinearTrackingProblem, LinsolveRecord, collector_paused
from .network import Edge
from .trainer import EVENT_ARGS, Scenario, ScenarioEvent, TraceRecord, builtin_scenarios

__all__ = [
    "RunConfig",
    "builtin_config_dict",
    "builtin_names",
    "config_from_dict",
    "error_measure",
    "expand_builtin",
    "load_config_dict",
    "merge",
    "parse_config",
    "read_trace",
    "run_records",
    "segment_settling",
    "segment_starts",
    "serialize_config",
    "tracking_error",
    "write_trace",
]

DEFAULT_DECIMATION = 100
DEFAULT_TOLERANCE = 0.01
#: the deepest node nesting a document may have (a configuration needs six);
#: composing takes three Python frames a level, 600 of the default limit 1000
MAX_DEPTH = 200

#: The section each mode runs; a configuration leaves the other one out.
SECTIONS = {"train": "scenario", "linsolve": "problem"}


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one run: what to simulate and how to report."""

    mode: str
    scenario: Scenario | None = None
    problem: LinearTrackingProblem | None = None
    output: str | None = None
    decimation: Count = DEFAULT_DECIMATION
    tolerance: Positive = DEFAULT_TOLERANCE

    def __post_init__(self):
        check_fields(self)
        if self.mode not in SECTIONS:
            raise ValidationError(f"must be one of {tuple(SECTIONS)}", key="mode", got=self.mode)
        for mode, section in SECTIONS.items():
            given = getattr(self, section) is not None
            if mode == self.mode and not given:
                raise ValidationError(f"{mode} mode needs a {section}", key=section)
            if mode != self.mode and given:
                raise ValidationError(f"{self.mode} mode does not use a {section}", key=section)
        if self.output == "":
            raise ValidationError("must be a file path, or null for no trace, got ''", key="output")


# ---------------------------------------------------------------------------
# running


def run_records(config: RunConfig) -> Iterator[TraceRecord | LinsolveRecord]:
    """Run a configuration, yielding one record per iteration: a TraceRecord
    in train mode, a LinsolveRecord in linsolve mode."""
    if config.mode == "train":
        yield from trainer.train_online(config.scenario)
    else:
        p = config.problem
        yield from linsolve.as_records(p, *linsolve.solve_linear(p))


def tracking_error(rec: TraceRecord | LinsolveRecord) -> float:
    """|y - y_ref| of a training record, max_j |y_j - b_j| of a solver record."""
    return error_measure(rec)(rec)


def error_measure(rec: TraceRecord | LinsolveRecord):
    """The tracking error of records of ``rec``'s type and width, a function
    of one record.  A run takes it once, from its first record, and calls
    it on every record.  A solver record of width 0 has no error: it
    raises ValueError."""
    if isinstance(rec, TraceRecord):
        return _measure(TraceRecord, 0)
    return _measure(LinsolveRecord, len(rec.y))


@functools.cache
def _measure(cls, width: int):
    """The function ``error(rec)`` of ``cls`` at ``width``, generated.

    A training record's is ``abs(rec.y - rec.y_ref)``.  A solver record's
    unpacks ``(y0, y1, ...), (b0, b1, ...) = rec.y, rec.b`` and returns
    ``max(abs(y0 - b0), abs(y1 - b1), ...)``, or ``abs(y0 - b0)`` at width
    1.  A ``max`` of several arguments keeps ``max(iterable)``'s rule: the
    first value stands unless a later one is strictly greater, so a NaN
    wins only where it is the first value.
    """
    if cls is TraceRecord:
        lines = ["return abs(rec.y - rec.y_ref)"]
    elif width == 0:
        raise ValueError("a solver record of width 0 has no tracking error")
    else:
        ys, bs = (", ".join(f"{v}{j}" for j in range(width)) for v in "yb")
        terms = ", ".join(f"abs(y{j} - b{j})" for j in range(width))
        lines = [f"({ys},), ({bs},) = rec.y, rec.b", f"return {terms}" if width == 1 else f"return max({terms})"]
    return codegen.define(codegen.text("error", ("rec",), lines), "error", {"__name__": __name__})


def segment_starts(events) -> list[int]:
    """The first iteration of each segment of a run: 1, then the iteration
    of each event after 0 (an event at 0 is the initial state)."""
    return [1, *(e.at for e in events if e.at > 0)]


def segment_settling(violations, starts, horizon: int) -> list[tuple[int, int, bool]]:
    """(start, iterations to settle, settled) for each segment of a run.

    ``violations`` are the iterations, ascending, whose tracking error is at
    or above the tolerance; ``starts`` are the segments' first iterations
    (repeats merged).  A segment runs up to the next start, the last one
    through ``horizon``.  It settles at its start if it holds no violation,
    else just after its last one, and counts as settled if that iteration
    is still inside it.
    """
    starts = sorted(set(starts))
    out = []
    for k0, k1 in zip(starts, starts[1:] + [horizon + 1]):
        i = bisect_left(violations, k1)
        settled_at = violations[i - 1] + 1 if i and violations[i - 1] >= k0 else k0
        out.append((k0, settled_at - k0, settled_at < k1))
    return out


# ---------------------------------------------------------------------------
# parsing

#: Plain scalars read as floats.  PyYAML follows YAML 1.1, whose floats need
#: a dot and a signed exponent, so ``1e-5``, ``2e3`` and ``1.0e308`` would
#: load as strings.  This adds YAML 1.2's forms (an exponent without a dot
#: or without a sign, a sign before a leading dot) to the 1.1 ones; a
#: plain integer still reads as an int.
_FLOAT = re.compile(
    r"""^(?:[-+]?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+]?[0-9]+)?
    |[-+]?[0-9][0-9_]*[eE][-+]?[0-9]+
    |[-+]?\.[0-9][0-9_]*(?:[eE][-+]?[0-9]+)?
    |[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*
    |[-+]?\.(?:inf|Inf|INF)
    |\.(?:nan|NaN|NAN))$""",
    re.X,
)


def _with_yaml12_floats(cls):
    """``cls`` with its float resolver replaced by ``_FLOAT``."""
    cls.yaml_implicit_resolvers = {
        first: [(tag, _FLOAT if tag == "tag:yaml.org,2002:float" else regexp) for tag, regexp in resolvers]
        for first, resolvers in cls.yaml_implicit_resolvers.items()
    }
    return cls


@functools.cache
def _loader():
    """(the loader class, PyYAML's module), built at the first parse.

    PyYAML is imported here, not with the package.  The loader takes its
    events from libyaml's parser and composes, resolves and constructs
    them with PyYAML's Python classes, so the checks below run on every
    document (``yaml.CSafeLoader`` composes in C and would skip them).
    There is no pure-Python event source to fall back on: one document
    would then parse differently on two machines.
    """
    import yaml
    from yaml.composer import Composer, ComposerError
    from yaml.constructor import ConstructorError, SafeConstructor
    from yaml.resolver import Resolver

    try:
        from yaml.cyaml import CParser
    except ImportError as err:
        raise ImportError(
            "paramodel reads YAML with libyaml, and this PyYAML has no libyaml bindings (yaml.cyaml); "
            "install a PyYAML wheel, which ships them"
        ) from err

    class Loader(Composer, SafeConstructor, Resolver, CParser):
        """Reads floats by ``_FLOAT`` and rejects a key written twice in one
        mapping, which PyYAML would silently let the last value win; a key
        a ``<<`` merge brings in may still be set beside it."""

        depth = 0  # of the node being composed

        def __init__(self, text: str):
            """Checks the whole text first, by the set of PyYAML's reader: a
            character YAML does not allow (such as NUL or a lone surrogate)
            is an error, and so is a byte order mark that is not the first.
            libyaml reads the text in 16 KB blocks, so it would report an
            error before such a character further on first; and it skips a
            byte order mark at the start of any line, which PyYAML read as
            text."""
            bad = yaml.reader.Reader.NON_PRINTABLE.search(text)
            at = bad.start() if bad else text.find("\ufeff", 1)
            if at >= 0:
                why = "special characters are not allowed" if bad else "only the first character may be a byte order mark"
                line = text.count("\n", 0, at) + 1
                raise ParseError(f"unacceptable character #x{ord(text[at]):04x}: {why}", line=line)
            CParser.__init__(self, text)
            Composer.__init__(self)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)

        def compose_node(self, parent, index):
            """A node deeper than ``MAX_DEPTH`` is an error at its line, before
            Python's recursion limit; a composed mapping may repeat no key."""
            if self.depth == MAX_DEPTH:
                raise ComposerError(None, None, "nested too deeply", self.peek_event().start_mark)
            mapping = self.check_event(yaml.MappingStartEvent)  # not an alias of one
            self.depth += 1
            node = super().compose_node(parent, index)
            self.depth -= 1
            if mapping:
                seen = set()
                for key, _ in node.value:
                    if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                        if (key.tag, key.value) in seen:
                            raise ComposerError(None, None, f"duplicate key {key.value!r}", key.start_mark)
                        seen.add((key.tag, key.value))
            return node

        def construct_object(self, node, deep=False):
            """A ValueError raised while a node is built (a date that does
            not exist, an integer past Python's limit on decimal digits)
            becomes an error marked with the node's line."""
            try:
                return super().construct_object(node, deep)
            except ValueError as err:
                raise ConstructorError(None, None, str(err), node.start_mark) from None

    return _with_yaml12_floats(Loader), yaml


@functools.cache
def _dumper():
    """(SafeDumper quoting every string the loader would read as a float,
    PyYAML's module); the pure-Python emitter, as before the loader moved
    to libyaml, so ``serialize_config`` writes the same bytes."""
    import yaml

    class Dumper(yaml.SafeDumper):
        pass

    return _with_yaml12_floats(Dumper), yaml


def _without_advice(message: str) -> str:
    """The message without advice to call sys.set_int_max_str_digits, which a configuration cannot follow."""
    if "sys.set_int_max_str_digits" in message:
        return f"integer too long: more than {sys.get_int_max_str_digits()} digits"
    return message


def load_config_dict(text: str) -> dict:
    """YAML text to a configuration dict, ``builtin: NAME`` expanded."""
    Loader, yaml = _loader()
    loader = Loader(text)
    try:
        raw = loader.get_single_data()
    except yaml.MarkedYAMLError as err:
        # libyaml puts the end of a text with no final line break on a line
        # of its own; count it on the text's last line
        last = len((text + ".").splitlines()) - 1
        raise ParseError(_without_advice(str(err.problem)), line=min(err.problem_mark.line, last) + 1) from None
    except RecursionError:  # under MAX_DEPTH, only from a caller deep in its own recursion
        raise ParseError("nested too deeply") from None
    finally:
        loader.dispose()
    if raw is None:
        raise ParseError("empty configuration")
    if not isinstance(raw, dict):
        raise ParseError(f"top level must be a mapping, got {type(raw).__name__}")
    return expand_builtin(raw)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    return config_from_dict(load_config_dict(text))


def expand_builtin(raw: dict) -> dict:
    """Resolve a top-level ``builtin: NAME`` key into a full config dict.

    The other keys of the document are merged into the expanded ones.
    """
    d = dict(raw)
    builtin = d.pop("builtin", None)
    if builtin is None:
        return d
    base = builtin_config_dict(str(builtin))
    if "mode" in d and d["mode"] != base["mode"]:
        raise ValidationError(f"builtin {builtin!r} runs in {base['mode']!r} mode", key="mode", got=d["mode"])
    return merge(base, d)


def merge(base: dict, edit: dict, key: str = "") -> dict:
    """Apply ``edit`` to the document ``base`` in place and return it.

    A mapping merges into a mapping, key by key; any other value replaces
    the old one.  A mapping applied to an existing value that is not one
    is an error naming that key.
    """
    for sub, value in edit.items():
        if isinstance(value, dict) and sub in base:
            merge(_map(base[sub], _key(key, sub)), value, _key(key, sub))
        else:
            base[sub] = value
    return base


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from a parsed document (builtin expansion included)."""
    return _section(RunConfig, expand_builtin(raw), "")


def _key(key: str, sub) -> str:
    return f"{key}.{sub}" if key else str(sub)


def _map(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"must be a mapping, got {type(value).__name__}", key=key)
    return value


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"must be a list, got {type(value).__name__}", key=key)
    return value


#: The YAML keys of the sections whose keys are not their field names in
#: field order, each with its field: what a field's annotation cannot say.
_KEYS = {
    Scenario: dict(horizon="horizon", stagger_rho="stagger_rho", tau="tau", w_max="w_max", gains="base_params",
                   sample="initial_sample", network="net", events="events"),
    Edge: {"from": "src", "to": "dst", "weight": "weight"},
    LinearTrackingProblem: dict(a="a", b="b", horizon="horizon", controllers="controllers", filters="filters"),
}

#: The keys of a ``problem`` that generate the list named beside them, none
#: a field, with the annotation each is read by.
_GENERATOR = {"gains": ("controllers", ControllerParams), "stagger_rho": ("controllers", Ratio), "tau": ("filters", Positive)}


@functools.cache
def _table(cls) -> dict:
    """{YAML key: (field, reader, required)} of each init field of ``cls``,
    in the order a document is written."""
    hints = field_types(cls)
    keys = _KEYS.get(cls, {name: name for name in hints})
    if sorted(keys.values()) != sorted(hints):
        raise TypeError(f"the YAML keys of {cls.__name__} do not match its fields")
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    return {sub: (name, _reader(hints[name]), name in required) for sub, name in keys.items()}


def _of(tp):
    """X of an annotation ``X | None``, else the annotation."""
    if get_origin(tp) in (Union, UnionType):
        return next(t for t in get_args(tp) if t is not type(None))
    return tp


@functools.cache
def _reader(tp):
    """``read(value, key)``, the checked value of a key of annotation ``tp``:
    a section from a mapping, a tuple of sections from a list of mappings
    each keyed ``key[i]``, and any other value by the rule of its annotation."""
    if is_dataclass(section := _of(tp)):
        return functools.partial(_READERS.get(section, _section), section)
    item = get_args(tp)[0] if get_origin(tp) is tuple else None
    if is_dataclass(item):
        read = _reader(item)
        return lambda value, key: tuple(read(v, f"{key}[{i}]") for i, v in enumerate(_list(value, key)))
    return rule(tp)


def _read(table: dict, d, key: str) -> dict:
    """The checked value of each key of mapping ``d``, by field; a key the
    table does not hold is an error.  Keys are checked in document order, so
    an error names the first bad key of the document (the class checks the
    value again, for library callers)."""
    values = {}
    for sub, value in _map(d, key).items():
        if sub not in table:
            raise ValidationError("unknown key", key=_key(key, sub))
        name, read, _ = table[sub]
        values[name] = read(value, _key(key, sub))
    return values


def _make(cls, values: dict, key: str):
    """``cls`` from checked values; a key left out takes its field's default.
    An error of ``cls`` names ``key``, joined with the field key it names."""
    for sub, (name, _, required) in _table(cls).items():
        if required and name not in values:
            raise ValidationError("missing required key", key=_key(key, sub))
    try:
        return cls(**values)
    except ValidationError as err:
        raise ValidationError(err.message, key=_key(key, err.key) if err.key else key or None) from None


def _section(cls, d, key: str):
    """The ``cls`` of a mapping of its keys."""
    return _make(cls, _read(_table(cls), d, key), key)


def _problem(cls, d, key: str) -> LinearTrackingProblem:
    """The problem of a ``problem`` mapping.  Without explicit lists, its n
    = len(b) controllers are staggered from ``gains`` by ``stagger_rho``
    (default ``linsolve.DEMO_RHO``) and its n filters take ``tau``."""
    table = {**_table(cls), **{sub: (sub, _reader(tp), False) for sub, (_, tp) in _GENERATOR.items()}}
    v = _read(table, d, key)
    gen = {sub: v.pop(sub) for sub in _GENERATOR if sub in v}
    for sub, (explicit, _) in _GENERATOR.items():
        if sub in gen and explicit in v:
            raise ValidationError(f"cannot be combined with an explicit {explicit} list", key=f"{key}.{sub}")
    n = len(v.get("b", ()))
    if "controllers" not in v:
        rho = gen.get("stagger_rho", linsolve.DEMO_RHO)
        v["controllers"] = tuple(stagger_params(gen.get("gains", ControllerParams()), n, rho)) if n else ()
    if "filters" not in v:
        v["filters"] = (FirstOrderFilter(gen.get("tau", DEFAULT_TAU)),) * n
    return _make(cls, v, key)


def _event(cls, d, key: str) -> ScenarioEvent:
    """``{at: K, KIND: ARGUMENT}``, or ``{at: K, KIND: {NAME: ARGUMENT, ...}}``
    for a kind of more than one argument; an argument may not be null."""
    hints = field_types(cls)
    d = dict(_map(d, key))
    if "at" not in d:
        raise ValidationError("event needs an 'at' iteration", key=f"{key}.at")
    at = rule(hints["at"])(d.pop("at"), f"{key}.at")
    kind = next((k for k in d if k in EVENT_ARGS), None)
    if kind is None:
        raise ValidationError(f"event needs one of {'/'.join(EVENT_ARGS)}", key=key)
    spec = d.pop(kind)
    if d:
        raise ValidationError(f"unknown event keys {sorted(map(str, d))}", key=key)
    names, sub = EVENT_ARGS[kind], f"{key}.{kind}"
    table = {name: (name, rule(_of(hints[name])), True) for name in names}
    args = _read(table, spec, sub) if len(names) > 1 else {names[0]: table[names[0]][1](spec, sub)}
    try:
        return cls(at, kind, **args)
    except ValidationError as err:
        raise ValidationError(str(err), key=key) from None


#: The reader of each section a mapping of its fields cannot express.
_READERS = {LinearTrackingProblem: _problem, ScenarioEvent: _event}


# ---------------------------------------------------------------------------
# serialization


def serialize_config(config: RunConfig) -> str:
    """YAML form of a RunConfig; parse_config(serialize_config(c)) == c."""
    dumper, yaml = _dumper()
    return yaml.dump(config_to_dict(config), Dumper=dumper, sort_keys=False)


def config_to_dict(config: RunConfig) -> dict:
    """The document of a configuration, a RunConfig: every key that sets a
    field, the problem in its explicit form, and no key whose value is
    None."""
    return _dump(rule(RunConfig)(config, "config"))


def _dump(value):
    if isinstance(value, ScenarioEvent):
        names = EVENT_ARGS[value.kind]
        args = {name: getattr(value, name) for name in names}
        return {"at": value.at, value.kind: args if len(names) > 1 else args[names[0]]}
    if is_dataclass(value):
        items = ((sub, getattr(value, name)) for sub, (name, _, _) in _table(type(value)).items())
        return {sub: _dump(v) for sub, v in items if v is not None}
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# built-in runs


def builtin_names() -> list[str]:
    return [*builtin_scenarios().keys(), "linsolve3"]


def builtin_config_dict(name: str) -> dict:
    """Configuration dict of one built-in run.

    linsolve3's problem is in the generator form (gains, stagger_rho, tau),
    so that every gain, ratio and time-constant override edits a key that
    takes effect.
    """
    scenarios = builtin_scenarios()
    output = f"{name}_trace.csv"
    if name in scenarios:
        return config_to_dict(RunConfig(mode="train", scenario=scenarios[name], output=output))
    if name == "linsolve3":
        d = config_to_dict(RunConfig(mode="linsolve", problem=linsolve.builtin_problem(), output=output))
        problem = d["problem"]
        del problem["controllers"], problem["filters"]
        problem.update(stagger_rho=linsolve.DEMO_RHO, tau=DEFAULT_TAU, gains=_dump(linsolve.DEMO_GAINS))
        return d
    raise ValidationError(f"unknown built-in (available: {', '.join(builtin_names())})", key="builtin", got=name)


# ---------------------------------------------------------------------------
# trace CSV

#: The column layout of each record type: its scalar fields (the int ``k``,
#: then floats) and then its tuple fields, all of one width, each written as
#: columns ``<field>1..<field><width>``.  A tuple field in the last entry
#: keeps its text while consecutive rows hold the same tuple object, as
#: every solver record holds ``problem.b``.
_LAYOUTS = {
    TraceRecord: (("k", "t", "y", "y_ref"), ("w", "u"), ()),
    LinsolveRecord: (("k",), ("y", "b", "x"), ("b",)),
}


def _header(cls, width: int) -> str:
    scalars, vectors, _ = _LAYOUTS[cls]
    return ",".join([*scalars, *(f"{v}{i + 1}" for v in vectors for i in range(width))])


@functools.cache
def _codec(cls, width: int):
    """(header, rows, parse) of ``cls`` at ``width``, generated from its layout.

    ``rows(records, decimation)`` yields the CSV line of every record whose
    ``k`` is a multiple of ``decimation``: one f-string with ``!r`` (the
    shortest round-trip repr) per float.  ``parse(lines, last)`` turns a
    block of lines of bytes into a list of ``cls``: it splits each line
    once and builds the record from straight-line ``int``/``float`` calls
    through the C tuple constructor (``tuple.__new__`` bound to ``cls``,
    which skips the class's Python ``__new__``); it raises ValueError for a
    wrong field count or a non-numeric field.  The mirror of ``rows``, it
    keeps a reused field's tuple while consecutive rows hold the same bytes
    in its columns, and parses them only when they change.  ``last`` is a
    list, empty before the first block, in which it leaves those bytes and
    that tuple for the next block.  Both are generated with one statement
    per field and name their locals after the columns.
    """
    scalars, vectors, reused = _LAYOUTS[cls]
    if (*scalars, *vectors) != cls._fields:
        raise TypeError(f"the layout of {cls.__name__} does not match its fields")
    header = _header(cls, width)
    names = header.split(",")
    cols = {v: names[len(scalars) + i * width :][:width] for i, v in enumerate(vectors)}
    reused = reused if width else ()

    def reprs(v):
        return ",".join(f"{{{c}!r}}" for c in cols[v])

    row = ["{k}", *(f"{{rec.{s}!r}}" for s in scalars[1:])]
    row += [f"{{{v}_text}}" if v in reused else reprs(v) for v in vectors if width]
    lines = [f"{v}_obj = _unset" for v in reused]
    lines += ["for rec in records:", "    k = rec.k", "    if k % decimation == 0:"]
    for v in vectors:
        if v in reused:
            lines += [
                f"        if rec.{v} is not {v}_obj:",
                f"            {v}_obj = rec.{v}",
                f"            [{', '.join(cols[v])}] = {v}_obj",
                f'            {v}_text = f"{reprs(v)}"',
            ]
        else:
            lines.append(f"        [{', '.join(cols[v])}] = rec.{v}")
    lines.append(f'        yield f"{",".join(row)}\\n"')
    rows = codegen.text("rows", ("records", "decimation"), lines)

    def floats(v):
        return f"({''.join(f'float({c}), ' for c in cols[v])})"

    kept = [name for v in reused for name in (*(f"{c}_was" for c in cols[v]), v)]
    args = [f"int({scalars[0]})", *(f"float({s})" for s in scalars[1:])]
    args += [v if v in reused else floats(v) for v in vectors]
    lines = [f"[{', '.join(kept)}] = last or {(None,) * len(kept)}"] if kept else []
    lines += ["out = []", "append = out.append", "for line in lines:"]
    lines.append(f"    [{', '.join(names)}] = line.split(b',')")
    for v in reused:
        changed = " or ".join(f"{c} != {c}_was" for c in cols[v])
        lines += [
            f"    if {changed}:",
            f"        [{', '.join(f'{c}_was' for c in cols[v])}] = {', '.join(cols[v])},",
            f"        {v} = {floats(v)}",
        ]
    lines.append(f"    append(record(({', '.join(args)})))")
    if kept:
        lines.append(f"last[:] = {', '.join(kept)},")
    lines.append("return out")
    parse = codegen.text("parse", ("lines", "last"), lines)
    env = {"__name__": __name__, "_unset": object(), "record": functools.partial(tuple.__new__, cls)}
    return header, codegen.define(rows, "rows", env), codegen.define(parse, "parse", env)


#: Rows ``write_trace`` joins into one write: enough to make the call per
#: write small against the rows' formatting, few enough that a block of
#: wide rows adds little to the peak memory of a run.
ROWS_PER_WRITE = 256


def write_trace(records: Iterable, path: str, decimation: int = 1) -> None:
    """Write records as CSV, keeping every ``decimation``-th iteration
    (a ``Count``: an int >= 1).

    Train-mode records give ``k,t,y,y_ref,w1..wq,u1..uq``; linear-solver
    records give ``k,y1..yn,b1..bn,x1..xn``.  Floats are written with
    shortest round-trip formatting, so reading the file back reproduces
    the values bit-exactly.  The rows are written in blocks of
    ``ROWS_PER_WRITE``, each joined into one string and written at once,
    so at most one block is held in memory.  The first record, even one
    the decimation drops, gives the header of its mode and width; no
    record at all gives the scalar train-mode header only.  Every record must have the width of
    the first: a tuple of another length raises ValueError.
    """
    decimation = rule(Count)(decimation, "decimation")
    it = iter(records)
    first = next(it, None)
    with open(path, "w", encoding="ascii", newline="") as fh:
        if first is None:
            fh.write(_header(TraceRecord, 0) + "\n")
            return
        cls = next((c for c in _LAYOUTS if isinstance(first, c)), None)
        if cls is None:
            raise ValidationError(f"cannot write records of type {type(first).__name__}")
        header, rows, _ = _codec(cls, len(getattr(first, _LAYOUTS[cls][1][0])))
        fh.write(header + "\n")
        lines = rows(chain((first,), it), decimation)
        while block := "".join(islice(lines, ROWS_PER_WRITE)):
            fh.write(block)


#: Every byte a row of write_trace holds: those of a float's repr, comma
#: and newline, not the whitespace and underscores float() passes over.
_ROW_BYTES = b"0123456789+-.eainf,\n"


def read_trace(path: str) -> list:
    """Read a trace CSV back into records (inverse of write_trace).

    Raises ParseError, with the 1-based line number, for a header other
    than one write_trace emits, a row whose field count differs from the
    header's, or a field that is not a number (an integer for ``k``) as
    write_trace writes it: a field holding a byte write_trace never
    writes, such as a space, an underscore or a byte outside ASCII, is
    reported with its column.  A long field or header is shown shortened
    in the message.  The file is read in blocks of lines, each checked for
    such bytes at once, and never held whole in memory; the records are
    built with the cyclic garbage collector paused.  Consecutive solver
    rows with the same ``b`` text share one tuple.
    """
    records = []
    with open(path, "rb") as fh:
        header = fh.readline().decode("latin-1").removesuffix("\n")
        parse = _parser_for(header)
        last: list = []  # a reused field's bytes and tuple, from block to block
        lineno = 2  # of the block's first line
        with collector_paused():
            while lines := fh.readlines(1 << 16):
                try:
                    if b"".join(lines).translate(None, _ROW_BYTES):
                        raise ValueError("a byte write_trace never writes")
                    records += parse(lines, last)
                except ValueError:
                    raise _first_bad_row(lines, lineno, header.split(",")) from None
                lineno += len(lines)
    return records


def _parser_for(header: str):
    ncols = header.count(",") + 1
    for cls, (scalars, vectors, _) in _LAYOUTS.items():
        width, rest = divmod(ncols - len(scalars), len(vectors))
        if width >= 0 and not rest and header == _header(cls, width):
            return _codec(cls, width)[2]
    raise ParseError(f"unrecognized trace header: {_SHOWN.repr(header)}", line=1)


def _first_bad_row(lines, lineno: int, cols: list[str]) -> ParseError:
    """The error of the first malformed row of ``lines``, whose first line
    is line ``lineno``."""
    for lineno, line in enumerate(lines, start=lineno):
        values = line.removesuffix(b"\n").split(b",")
        if len(values) != len(cols):
            return ParseError(f"expected {len(cols)} fields, got {len(values)}", line=lineno)
        for i, (col, field) in enumerate(zip(cols, values)):
            try:
                if field.translate(None, _ROW_BYTES):
                    raise ValueError
                int(field) if i == 0 else float(field)
            except ValueError:
                kind = "an integer" if i == 0 else "a number"
                return ParseError(f"{col} is not {kind}: {_SHOWN.repr(field.decode('latin-1'))}", line=lineno)
