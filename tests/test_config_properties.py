"""Properties of the run configuration over a grammar of near-valid documents.

The grammar writes YAML documents for both modes, with short horizons.
Beside valid documents it writes the section the mode does not use, a
mode that is no mode, floats with an exponent but no dot (``1e-05``, as
``repr`` writes them), node names YAML reads as numbers (an unquoted
``1e3``), the retired ``network.w_max`` key, a generator key beside the
explicit list it replaces, and one junk value or deleted key at a random
place.  The same grammar checks the loader, whose events come from
libyaml, against PyYAML's pure-Python reader, scanner and parser.
"""

from __future__ import annotations

import copy
import math

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from yaml.composer import Composer
from yaml.constructor import SafeConstructor
from yaml.parser import Parser
from yaml.reader import Reader, ReaderError
from yaml.resolver import Resolver
from yaml.scanner import Scanner

from paramodel import config_io
from paramodel.cli import main
from paramodel.config_io import config_from_dict, load_config_dict, parse_config, serialize_config
from paramodel.errors import ParseError, ValidationError


class ReprFloatDumper(yaml.SafeDumper):
    """Writes a float as ``repr`` does, so 1e-05 has an exponent and no dot
    (SafeDumper would write 1.0e-05)."""


def _repr_float(dumper, value):
    if math.isnan(value):
        text = ".nan"
    elif math.isinf(value):
        text = ".inf" if value > 0 else "-.inf"
    else:
        text = repr(value)
    return dumper.represent_scalar("tag:yaml.org,2002:float", text)


ReprFloatDumper.add_representer(float, _repr_float)

DTS = st.sampled_from([1e-5, 2e-5, 5e-6])
TAUS = st.sampled_from([1e-5, 2e-5, 3e-5])
#: names YAML reads as strings, and names it reads as numbers once written
#: (SafeDumper leaves 1e3 unquoted; 1000.0 and 3 are numbers already)
NODE_NAMES = st.sampled_from(["n1", "7", "1e3", 1000.0, 3, "x1"])
JUNK = st.sampled_from([None, "abc", [], {}, -1, 0, 1.5, True, math.inf, [1.0, "x"]])


def optional(draw, d, key, strategy):
    if draw(st.booleans()):
        d[key] = draw(strategy)


@st.composite
def gains(draw):
    d = {}
    optional(draw, d, "kp", st.floats(0.1, 2.0))
    optional(draw, d, "ki", st.floats(0.001, 0.05))
    optional(draw, d, "k_alpha", st.sampled_from([100.0, 166.5]))
    optional(draw, d, "k_beta", st.sampled_from([4.0, 40.0]))
    optional(draw, d, "dt", DTS)
    return d


@st.composite
def networks(draw):
    names = {n: n for n in ("x1", "x2", "h1", "h2", "y")}
    if draw(st.booleans()):
        names[draw(st.sampled_from(sorted(names)))] = draw(NODE_NAMES)
    edges = [("x1", "h1"), ("x2", "h1"), ("x1", "h2"), ("x2", "h2"), ("h1", "y"), ("h2", "y"), ("x1", "y")]
    d = {
        "inputs": [names["x1"], names["x2"]],
        "hidden": [names["h1"], names["h2"]],
        "output": names["y"],
        "edges": [{"from": names[a], "to": names[b], "weight": i} for i, (a, b) in enumerate(edges)],
    }
    optional(draw, d, "weights", st.lists(st.floats(-1.5, 1.5), min_size=7, max_size=7))
    optional(draw, d, "mask", st.lists(st.booleans(), min_size=7, max_size=7))
    if draw(st.integers(0, 4)) == 0:
        d["w_max"] = 1.0
    return d


@st.composite
def events(draw, horizon):
    out = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["set_input", "set_reference", "drop_weight", "restore_weight"]))
        if kind == "set_input":
            arg = {"index": draw(st.integers(0, 1)), "value": draw(st.floats(-1.0, 1.0))}
        elif kind == "set_reference":
            arg = draw(st.floats(-0.9, 0.9))
        else:
            arg = draw(st.integers(0, 6))
        out.append({"at": draw(st.integers(0, horizon)), kind: arg})
    return sorted(out, key=lambda e: e["at"])


@st.composite
def scenarios(draw):
    horizon = draw(st.integers(1, 60))
    d = {"horizon": horizon}
    optional(draw, d, "stagger_rho", st.floats(0.2, 1.0))
    optional(draw, d, "tau", TAUS)
    optional(draw, d, "w_max", st.floats(0.5, 2.0))
    optional(draw, d, "gains", gains())
    d["sample"] = {"x": [draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))], "y": draw(st.floats(-0.9, 0.9))}
    optional(draw, d, "network", networks())
    optional(draw, d, "events", events(horizon))
    return d


@st.composite
def problems(draw):
    n = draw(st.integers(1, 3))
    d = {
        "a": [[draw(st.floats(-3.0, 9.0)) for _ in range(n)] for _ in range(n)],
        "b": [draw(st.floats(-8.0, 8.0)) for _ in range(n)],
        "horizon": draw(st.integers(1, 60)),
    }
    if draw(st.booleans()):
        d["controllers"] = [draw(gains()) for _ in range(n)]
        filters = [{} for _ in range(n)]
        for f in filters:
            optional(draw, f, "tau", TAUS)
            optional(draw, f, "state", st.floats(-1.0, 1.0))
        d["filters"] = filters
        if draw(st.integers(0, 5)) == 0:  # a generator key beside its explicit list
            d[draw(st.sampled_from(["gains", "stagger_rho", "tau"]))] = draw(st.sampled_from([{}, 0.5, 1e-5]))
    else:
        optional(draw, d, "gains", gains())
        optional(draw, d, "stagger_rho", st.floats(0.2, 1.0))
        optional(draw, d, "tau", TAUS)
    return d


def paths(node, prefix=()):
    """Every key path and list index path below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield (*prefix, k)
        yield from paths(v, (*prefix, k))


@st.composite
def documents(draw):
    mode = draw(st.sampled_from(["train", "linsolve"]))
    used, unused = ("scenario", "problem") if mode == "train" else ("problem", "scenario")
    sections = {"scenario": scenarios(), "problem": problems()}
    doc = {"mode": mode, used: draw(sections[used])}
    if draw(st.integers(0, 3)) == 0:
        doc[unused] = draw(sections[unused])
    optional(draw, doc, "decimation", st.integers(1, 20))
    optional(draw, doc, "tolerance", st.floats(0.005, 0.1))
    if draw(st.integers(0, 7)) == 0:
        doc["mode"] = draw(st.sampled_from(["bogus", [1], None]))
    if draw(st.integers(0, 3)) == 0:
        # one junk value or deleted key; a horizon stays, so every run is short
        path = draw(st.sampled_from(list(paths(doc))))
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        if isinstance(parent, dict) and path[-1] != "horizon" and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JUNK)
    return doc


@st.composite
def texts(draw):
    return yaml.dump(draw(documents()), Dumper=draw(st.sampled_from([yaml.SafeDumper, ReprFloatDumper])), sort_keys=False)


def outcome(doc):
    """The configuration of a document, or the key its error names."""
    try:
        return config_from_dict(copy.deepcopy(doc))
    except ValidationError as err:
        return ("ValidationError", err.key)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts())
def test_serialize_then_parse_is_the_identity(text):
    try:
        config = parse_config(text)
    except (ParseError, ValidationError):
        return
    assert parse_config(serialize_config(config)) == config


#: the documented default of each key that has one, by section
DEFAULT_NETWORK = {
    "inputs": ["x1", "x2"],
    "hidden": ["h1", "h2"],
    "output": "y",
    "edges": [
        {"from": a, "to": b, "weight": i}
        for i, (a, b) in enumerate([("x1", "h1"), ("x2", "h1"), ("x1", "h2"), ("x2", "h2"), ("h1", "y"), ("h2", "y"), ("x1", "y")])
    ],
}
GAINS = {"kp": 1.0, "ki": 0.01, "k_alpha": 166.5, "k_beta": 40.0, "dt": 1e-5}
DEFAULTS = {
    "top": {"decimation": 100, "tolerance": 0.01, "output": None},
    "scenario": {
        "horizon": 100_000,
        "stagger_rho": 1.0,
        "tau": 1e-5,
        "w_max": 1.0,
        "gains": {},
        "network": DEFAULT_NETWORK,
        "events": [],
    },
    "gains": GAINS,
    "network": {"inputs": [], "hidden": [], "output": "y", "edges": []},
    "problem": {"horizon": 50_000, "stagger_rho": 0.5, "tau": 1e-5, "gains": {}},
    "filter": {"tau": 1e-5, "state": 0.0},
}


def default_sites(doc):
    """(the mapping, its key, the key's default) for each defaulted key of ``doc``."""
    sites = [(doc, k, v) for k, v in DEFAULTS["top"].items()]
    s = doc.get("scenario")
    if isinstance(s, dict):
        sites += [(s, k, v) for k, v in DEFAULTS["scenario"].items()]
        if isinstance(s.get("gains"), dict):
            sites += [(s["gains"], k, v) for k, v in GAINS.items()]
        net = s.get("network")
        if isinstance(net, dict):
            sites += [(net, k, v) for k, v in DEFAULTS["network"].items()]
            edges = net.get("edges")
            if isinstance(edges, list) and all(isinstance(e, dict) and isinstance(e.get("weight"), int) for e in edges):
                q = 1 + max((e["weight"] for e in edges), default=-1)
                weights = net.get("weights", [0.0] * q)
                sites.append((net, "weights", [0.0] * q))
                if isinstance(weights, list):
                    sites.append((net, "mask", [True] * len(weights)))
    p = doc.get("problem")
    if isinstance(p, dict):
        # a generator key has its default only where no explicit list replaces it
        explicit = {"gains": "controllers", "stagger_rho": "controllers", "tau": "filters"}
        sites += [(p, k, v) for k, v in DEFAULTS["problem"].items() if explicit.get(k) not in p]
        if isinstance(p.get("gains"), dict):
            sites += [(p["gains"], k, v) for k, v in GAINS.items()]
        for c in p.get("controllers", []) if isinstance(p.get("controllers"), list) else []:
            if isinstance(c, dict):
                sites += [(c, k, v) for k, v in GAINS.items()]
        for f in p.get("filters", []) if isinstance(p.get("filters"), list) else []:
            if isinstance(f, dict):
                sites += [(f, k, v) for k, v in DEFAULTS["filter"].items()]
    return sites


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_a_left_out_key_equals_its_default_written(doc):
    doc = load_config_dict(yaml.safe_dump(doc, sort_keys=False))
    for i in range(len(default_sites(doc))):
        # the i-th site in a fresh copy, written and left out
        with_default, without = copy.deepcopy(doc), copy.deepcopy(doc)
        parent, key, default = default_sites(with_default)[i]
        parent[key] = copy.deepcopy(default)
        parent, key, _ = default_sites(without)[i]
        parent.pop(key, None)
        assert outcome(with_default) == outcome(without), key


FLAGS = st.lists(
    st.sampled_from(
        [
            ["--kp", "0.5"],
            ["--ki", "0.02"],
            ["--k-alpha", "100"],
            ["--k-beta", "30"],
            ["--dt", "2e-5"],
            ["--tau", "2e-5"],
            ["--tau", "-1"],
            ["--rho", "0.5"],
            ["--rho", "0"],
            ["--horizon", "20"],
            ["--horizon", "0"],
            ["--decimate", "3"],
            ["--decimate", "0"],
            ["--tol", "0.05"],
            ["--tol", "-1"],
        ]
    ),
    max_size=3,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts(), FLAGS, st.booleans())
def test_main_returns_an_exit_code_and_never_raises(tmp_path_factory, text, flags, write):
    tmp = tmp_path_factory.mktemp("run")
    cfg = tmp / "run.yaml"
    cfg.write_text(text)
    out = ["--out", str(tmp / "trace.csv")] if write else []
    assert main(["run", str(cfg), *out, *(f for pair in flags for f in pair)]) in {0, 1, 2, 3, 4}


# ---------------------------------------------------------------------------
# libyaml's events against PyYAML's pure-Python reader, scanner and parser


class PythonEventsLoader(Reader, Scanner, Parser, config_io._loader()[0]):
    """The loader's own composer, constructor and resolvers (its duplicate-key
    check, ``_FLOAT`` and its marked errors) over PyYAML's pure-Python
    reader, scanner and parser, which come first in the MRO: the loader as
    it was before its events came from libyaml.  libyaml's parser, last in
    the MRO, is neither initialized nor called."""

    def __init__(self, text):
        Reader.__init__(self, text)
        Scanner.__init__(self)
        Parser.__init__(self)
        Composer.__init__(self)
        SafeConstructor.__init__(self)
        Resolver.__init__(self)


def python_events_load(text: str) -> dict:
    """``load_config_dict`` as it was over PyYAML's pure-Python parser."""
    try:
        loader = PythonEventsLoader(text)
    except ReaderError as err:
        raise ParseError(str(err).partition("\n")[0], line=text.count("\n", 0, err.position) + 1) from None
    try:
        raw = loader.get_single_data()
    except yaml.MarkedYAMLError as err:
        raise ParseError(config_io._without_advice(str(err.problem)), line=err.problem_mark.line + 1) from None
    except (yaml.YAMLError, ValueError) as err:  # a %YAML directive of 5000 digits
        raise ParseError(config_io._without_advice(str(err)), line=loader.line + 1) from None
    except RecursionError:
        raise ParseError("nested too deeply") from None
    finally:
        loader.dispose()
    if raw is None:
        raise ParseError("empty configuration")
    if not isinstance(raw, dict):
        raise ParseError(f"top level must be a mapping, got {type(raw).__name__}")
    return config_io.expand_builtin(raw)


def read(load, text):
    """The dict ``load`` reads from ``text``, or the line of its ParseError."""
    try:
        return load(text)
    except ParseError as err:
        return ("ParseError", err.line)


def assert_read_alike(text):
    assert read(load_config_dict, text) == read(python_events_load, text)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts())
def test_libyaml_reads_each_text_as_the_python_parser(text):
    assert_read_alike(text)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_libyaml_reads_each_document_as_the_python_parser(doc):
    assert_read_alike(yaml.safe_dump(doc, sort_keys=False))


#: past libyaml's 16 KB read block
PAD = "".join(f"k{i}: {i}\n" for i in range(3000))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("mode: train\nname: é€😀\nscenario:\n  horizon: 1\x00\n", ("ParseError", 4)),
        ("mode: train\n# \ud800\nscenario: {}\n", ("ParseError", 2)),
        ("mode: train\nscenario:\n\thorizon: 3\n", ("ParseError", 3)),
        ("mode: train\nscenario:\n  gains: " + "[" * 900 + "]" * 900 + "\n", ("ParseError", 3)),
        ("mode: train\nscenario: {horizon: 10, horizon: 20}\n", ("ParseError", 2)),
        (
            "base: &b {kp: 0.5, ki: 0.02}\nmode: train\nscenario:\n  gains: {<<: *b, kp: 0.7}\n",
            {"base": {"kp": 0.5, "ki": 0.02}, "mode": "train", "scenario": {"gains": {"kp": 0.7, "ki": 0.02}}},
        ),
        ("\ufeffmode: train\x85scenario:\x85  horizon: 5\x85", {"mode": "train", "scenario": {"horizon": 5}}),
        ("\ufeffmode: train\x85scenario: [\x85", ("ParseError", 3)),
        ("mode: train\u2028scenario: [\r\n", ("ParseError", 3)),
        ("mode: train\nscenario: {horizon: 2020-02-30}\n", ("ParseError", 2)),
        ("%YAML 1." + "1" * 5000 + "\n---\nmode: train\n", ("ParseError", 1)),
        ("mode: train\nscenario: {horizon: 1" + "0" * 4999 + "}\n", ("ParseError", 2)),
        ("mode: train\nscenario: [", ("ParseError", 2)),
        ("mode: train\nscenario: {a: 1, a: 2}\n" + PAD + "end: \x00\n", ("ParseError", 3003)),
        ("mode: train\nscenario: [\n\tx]\n" + PAD + "end: \x00\n", ("ParseError", 3004)),
    ],
    ids=[
        "nul-after-non-ascii-lines",
        "lone-surrogate",
        "tab-indentation",
        "nested-900-deep",
        "duplicate-key",
        "merge",
        "bom-and-nel-line-breaks",
        "bom-and-nel-line-breaks-error",
        "ls-and-crlf-line-breaks-error",
        "date-that-does-not-exist",
        "yaml-directive-of-5000-digits",
        "integer-of-5000-digits",
        "error-at-the-end-of-a-text-without-a-final-line-break",
        "nul-beyond-16-kb-after-a-duplicate-key",
        "nul-beyond-16-kb-after-a-syntax-error",
    ],
)
def test_libyaml_reads_each_edge_case_as_the_python_parser(text, expected):
    assert read(load_config_dict, text) == read(python_events_load, text) == expected


@pytest.mark.parametrize(
    "text, libyaml, python",
    [
        ("mode:\ttrain\n", {"mode": "train"}, ("ParseError", 1)),
        ("mode: train\n\ufeffscenario: {}\n", ("ParseError", 2), {"mode": "train", "\ufeffscenario": {}}),
        ("%FOO bar\n---\nmode: train\n", ("ParseError", 1), {"mode": "train"}),
        ('mode: "\\ud800"\n', ("ParseError", 1), {"mode": "\ud800"}),
        ("mode: train\ntau: !!floa, 1\nx: [\n", ("ParseError", 2), ("ParseError", 4)),
    ],
    ids=["tab-between-tokens", "bom-after-the-first-character", "unknown-directive", "escaped-surrogate", "bad-tag"],
)
def test_where_libyaml_reads_otherwise(text, libyaml, python):
    # the documented differences: YAML allows a tab between the tokens of a
    # line, where PyYAML's scanner rejected it; the loader rejects a byte
    # order mark that is not the first character, which libyaml would skip
    # at the start of a line; libyaml rejects an unknown directive and an
    # escaped lone surrogate, and checks a tag's characters where it reads them
    assert (read(load_config_dict, text), read(python_events_load, text)) == (libyaml, python)
