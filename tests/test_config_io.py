"""Config parsing/serialization round trips and CSV trace fidelity."""

from __future__ import annotations

import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from paramodel import (
    ControllerParams,
    FirstOrderFilter,
    ParseError,
    RunConfig,
    Scenario,
    TrainingSample,
    ValidationError,
    builtin_config_dict,
    builtin_names,
    builtin_problem,
    builtin_scenarios,
    default_topology,
    parse_config,
    read_trace,
    serialize_config,
    train_online,
    write_trace,
)
from paramodel.config_io import (
    MAX_DEPTH,
    ROWS_PER_WRITE,
    _codec,
    config_from_dict,
    config_to_dict,
    error_measure,
    load_config_dict,
    merge,
    segment_settling,
    segment_starts,
    tracking_error,
)
from paramodel.linsolve import LinsolveRecord, as_records, solve_linear
from paramodel.trainer import TraceRecord

CUSTOM = """\
mode: train
output: run.csv
decimation: 10
tolerance: 0.02
scenario:
  horizon: 500
  stagger_rho: 0.5
  tau: 1.0e-05
  w_max: 0.8
  gains: {kp: 0.9, ki: 0.02, k_alpha: 100.0, k_beta: 35.0, dt: 1.0e-05}
  sample: {x: [0.2, 0.6], y: 0.5}
  network:
    inputs: [x1, x2]
    hidden: [h1, h2]
    output: y
    edges:
      - {from: x1, to: h1, weight: 0}
      - {from: x2, to: h1, weight: 1}
      - {from: x1, to: h2, weight: 2}
      - {from: x2, to: h2, weight: 3}
      - {from: h1, to: y, weight: 4}
      - {from: h2, to: y, weight: 5}
      - {from: x1, to: y, weight: 6}
  events:
    - {at: 0, drop_weight: 6}
    - {at: 100, set_input: {index: 0, value: 0.15}}
    - {at: 200, set_reference: 0.6}
    - {at: 300, restore_weight: 6}
"""


def test_builtin_alias_expands_to_full_config():
    cfg = parse_config("builtin: fig4\n")
    assert cfg == RunConfig(
        mode="train",
        scenario=builtin_scenarios()["fig4"],
        output="fig4_trace.csv",
    )


def test_builtin_alias_linsolve():
    cfg = parse_config("builtin: linsolve3\n")
    assert cfg.mode == "linsolve"
    assert cfg.problem == builtin_problem()


def test_builtin_alias_allows_top_level_overrides():
    cfg = parse_config("builtin: fig4\noutput: other.csv\ndecimation: 7\n")
    assert cfg.output == "other.csv"
    assert cfg.decimation == 7
    assert cfg.scenario == builtin_scenarios()["fig4"]


def test_builtin_mode_conflict():
    with pytest.raises(ValidationError):
        parse_config("builtin: fig4\nmode: linsolve\n")


def test_merge_edits_the_base_in_place():
    base = {"a": {"b": 1, "c": [1, 2]}, "d": 2}
    assert merge(base, {"a": {"c": [3], "e": {"f": 4}}, "d": None}) is base
    # a mapping merges into a mapping; a list, a scalar and None replace
    assert base == {"a": {"b": 1, "c": [3], "e": {"f": 4}}, "d": None}
    # a key the base lacks takes the edit's value
    assert merge({}, {"a": {"b": 2}}) == {"a": {"b": 2}}


def test_merge_of_a_mapping_onto_a_value_names_the_key():
    for base in ({"a": {"b": [1]}}, {"a": {"b": None}}):
        with pytest.raises(ValidationError) as err:
            merge(base, {"a": {"b": {"c": 1}}})
        assert err.value.key == "a.b"
        assert "must be a mapping" in str(err.value)


def test_builtin_merges_a_partial_section():
    cfg = parse_config("builtin: fig4\nscenario: {horizon: 5, gains: {kp: 0.5}}\n")
    fig4 = builtin_scenarios()["fig4"]
    gains = dataclasses.replace(fig4.base_params, kp=0.5)
    assert cfg.scenario == dataclasses.replace(fig4, horizon=5, base_params=gains)


def test_builtin_beside_an_explicit_list_cannot_be_combined():
    text = "builtin: linsolve3\nproblem:\n  controllers: [{kp: 1.0}, {kp: 0.5}, {kp: 0.25}]\n"
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.key == "problem.gains"
    assert "cannot be combined with an explicit controllers list" in str(err.value)


def test_unknown_builtin():
    with pytest.raises(ValidationError) as err:
        parse_config("builtin: fig99\n")
    assert "fig99" in str(err.value)


def test_custom_config_parses():
    cfg = parse_config(CUSTOM)
    assert cfg.mode == "train"
    assert cfg.decimation == 10
    assert cfg.tolerance == 0.02
    s = cfg.scenario
    assert s.horizon == 500
    assert s.stagger_rho == 0.5
    assert s.w_max == 0.8
    assert s.base_params == ControllerParams(
        kp=0.9, ki=0.02, k_alpha=100.0, k_beta=35.0, dt=1e-5
    )
    assert s.initial_sample == TrainingSample(x=(0.2, 0.6), y=0.5)
    assert len(s.events) == 4


def test_default_mask_follows_the_weights_list():
    # an eighth weight no edge uses: the default mask has one entry per weight
    edge = "      - {from: x1, to: y, weight: 6}\n"
    weights = "    weights: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25]\n"
    cfg = parse_config(CUSTOM.replace(edge, edge + weights))
    assert cfg.scenario.net.mask == (True,) * 8
    assert cfg.scenario.net.weights[7] == 0.25


def test_roundtrip_custom():
    cfg = parse_config(CUSTOM)
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("name", ["fig4", "fig5", "fig6", "fig7", "linsolve3"])
def test_roundtrip_builtins(name):
    cfg = config_from_dict(builtin_config_dict(name))
    assert parse_config(serialize_config(cfg)) == cfg


def test_builtin_names_order():
    assert builtin_names() == ["fig4", "fig5", "fig6", "fig7", "linsolve3"]


def test_negative_gain_rejected():
    text = CUSTOM.replace("kp: 0.9", "kp: -1")
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert "kp" in str(err.value)
    assert err.value.key.startswith("scenario.gains")


def test_reference_guard_rejected():
    text = CUSTOM.replace("y: 0.5}", "y: 1.5}")
    with pytest.raises(ValidationError):
        parse_config(text)


def test_parse_error_reports_line():
    with pytest.raises(ParseError):
        parse_config("mode: [unclosed\n  - broken yaml\n")
    with pytest.raises(ParseError):
        parse_config("- just\n- a list\n")
    with pytest.raises(ParseError):
        parse_config("")


@pytest.mark.parametrize(
    "nested",
    [
        # the root mapping is level 1: x's value is level 2
        lambda levels: "x:\n  " + "[" * (levels - 1) + "]" * (levels - 1) + "\n",
        lambda levels: "x:\n  " + "{a: " * (levels - 2) + "1" + "}" * (levels - 2) + "\n",
    ],
    ids=["sequences", "mappings"],
)
def test_nesting_deeper_than_the_limit_is_an_error_at_its_line(nested):
    assert "x" in load_config_dict(nested(MAX_DEPTH))
    with pytest.raises(ParseError, match=re.escape("line 2: nested too deeply")):
        load_config_dict(nested(MAX_DEPTH + 1))

    # a caller that leaves less of the recursion limit than the limit takes
    def deep(n):
        return deep(n - 1) if n else load_config_dict(nested(MAX_DEPTH))

    with pytest.raises(ParseError, match="^nested too deeply$"):
        deep(sys.getrecursionlimit() - 2 * MAX_DEPTH)


def test_a_key_a_merge_brings_in_may_be_set_beside_it():
    text = (
        "mode: linsolve\nproblem:\n  a: [[2.0, 0.0], [0.0, 2.0]]\n  b: [1.0, 1.0]\n"
        "  controllers: [&c {kp: 1.0, ki: 0.02}, {<<: *c, kp: 0.5}]\n"
    )
    first, second = parse_config(text).problem.controllers
    assert (first.kp, first.ki, second.kp, second.ki) == (1.0, 0.02, 0.5, 0.02)
    with pytest.raises(ParseError, match="^line 5: duplicate key 'kp'$"):
        parse_config(text.replace("{<<: *c, kp: 0.5}", "{<<: *c, kp: 0.5, kp: 0.4}"))


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError) as err:
        parse_config("builtin: fig4\nturbo: yes\n")
    assert err.value.key == "turbo"
    with pytest.raises(ValidationError):
        parse_config(CUSTOM.replace("stagger_rho: 0.5", "stagger_rh: 0.5"))


def test_event_validation_messages():
    bad = CUSTOM.replace("- {at: 0, drop_weight: 6}", "- {drop_weight: 6}")
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    assert "at" in str(err.value)
    bad = CUSTOM.replace("- {at: 0, drop_weight: 6}", "- {at: 0, explode: 6}")
    with pytest.raises(ValidationError):
        parse_config(bad)


def test_mode_required():
    with pytest.raises(ValidationError) as err:
        parse_config("decimation: 5\n")
    assert err.value.key == "mode"
    with pytest.raises(ValidationError):
        parse_config("mode: bogus\n")


def test_linsolve_explicit_controllers_roundtrip():
    cfg = parse_config("builtin: linsolve3\n")
    text = serialize_config(cfg)
    assert "controllers" in text
    assert parse_config(text) == cfg


def test_builtin_linsolve3_is_in_generator_form():
    problem = builtin_config_dict("linsolve3")["problem"]
    assert "controllers" not in problem and "filters" not in problem
    assert problem["stagger_rho"] == 0.5
    assert problem["gains"]["kp"] == 1.0 and problem["tau"] == 1e-5


def test_segment_settling():
    # no violations: every segment is settled at its start
    assert segment_settling([], [1, 50], 100) == [(1, 0, True), (50, 0, True)]
    # a violation at the horizon: the last segment never settles
    assert segment_settling([3, 100], [1, 50], 100) == [(1, 3, True), (50, 51, False)]
    # repeated (and unsorted) starts are one segment
    assert segment_settling([3, 60], [50, 1, 50], 100) == [(1, 3, True), (50, 11, True)]
    # a violation on a boundary belongs to the segment it starts...
    assert segment_settling([50], [1, 50], 100) == [(1, 0, True), (50, 1, True)]
    # ...and one just before it leaves the earlier segment unsettled
    assert segment_settling([49], [1, 50], 100) == [(1, 49, False), (50, 0, True)]
    assert segment_settling([5], [], 100) == []


def test_segment_starts():
    ev = builtin_scenarios()["fig7"].events
    assert segment_starts(ev) == [1, 20_000, 20_000, 40_000, 60_000]
    # an event at 0 is the initial state and starts no segment
    assert segment_starts(builtin_scenarios()["fig4"].events) == [1]
    assert segment_starts(()) == [1]


def test_tracking_error_of_both_record_kinds():
    train = next(iter(train_online(tiny_scenario())))
    assert tracking_error(train) == abs(train.y - train.y_ref)
    problem = builtin_problem(horizon=1)
    (rec,) = as_records(problem, *solve_linear(problem))
    assert tracking_error(rec) == max(abs(y - b) for y, b in zip(rec.y, problem.b))


# --- trace CSV ---


def tiny_scenario(horizon=30):
    return Scenario(
        net=default_topology(),
        base_params=ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=40.0, dt=1e-5),
        initial_sample=TrainingSample(x=(0.2, 0.6), y=0.55),
        horizon=horizon,
    )


def test_write_trace_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_trace([], str(path), 1)
    assert path.read_text() == "k,t,y,y_ref\n"


def test_train_trace_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(train_online(tiny_scenario()), str(path), 1)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert len(header) == 4 + 2 * 7
    assert header[:4] == ["k", "t", "y", "y_ref"]
    assert header[4] == "w1" and header[10] == "w7"
    assert header[11] == "u1" and header[17] == "u7"
    assert len(lines) == 1 + 30


def test_decimation_row_count(tmp_path):
    path = tmp_path / "d.csv"
    write_trace(train_online(tiny_scenario(50)), str(path), 10)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 5
    assert [line.split(",")[0] for line in lines[1:]] == ["10", "20", "30", "40", "50"]


def test_train_trace_roundtrip_bitexact(tmp_path):
    recs = list(train_online(tiny_scenario()))
    path = tmp_path / "rt.csv"
    write_trace(recs, str(path), 1)
    assert read_trace(str(path)) == recs


def test_linsolve_trace_roundtrip_bitexact(tmp_path):
    problem = builtin_problem(horizon=40)
    x_trace, y_trace = solve_linear(problem)
    recs = as_records(problem, x_trace, y_trace)
    path = tmp_path / "ls.csv"
    write_trace(recs, str(path), 1)
    assert read_trace(str(path)) == recs
    header = path.read_text().splitlines()[0]
    assert header == "k,y1,y2,y3,b1,b2,b3,x1,x2,x3"


@pytest.mark.parametrize("decimation", [0, -1, True, 1.5, 2.0, "2", None])
def test_write_trace_bad_decimation(tmp_path, decimation):
    # True and 1.5 wrote traces, and "2" ended in a bare TypeError
    path = tmp_path / "x.csv"
    with pytest.raises(ValidationError) as err:
        write_trace([TraceRecord(1, 0.0, 0.0, 0.0, (), ())], str(path), decimation)
    assert err.value.key == "decimation"
    assert not path.exists()


def test_write_trace_rejects_a_record_of_unknown_type(tmp_path):
    with pytest.raises(ValidationError, match="^cannot write records of type int$"):
        write_trace([1, 2], str(tmp_path / "x.csv"))


# --- YAML 1.2 floats ---


@pytest.mark.parametrize(
    "text, value",
    [("1e-5", 1e-5), ("2e3", 2000.0), ("1E+3", 1000.0), ("1.0e308", 1.0e308), ("-.5", -0.5), ("+1e5", 1e5)],
)
def test_exponent_floats_load_as_floats(text, value):
    d = load_config_dict(f"mode: train\nscenario:\n  gains: {{dt: {text}}}\n")
    got = d["scenario"]["gains"]["dt"]
    assert type(got) is float and got == value


def test_plain_scalars_keep_their_yaml_types():
    d = load_config_dict("mode: train\ndecimation: 10\noutput: x1e5\nscenario: {horizon: 1_000, tau: 1.0e-05}\n")
    assert d["decimation"] == 10 and type(d["decimation"]) is int
    assert d["scenario"]["horizon"] == 1000 and type(d["scenario"]["horizon"]) is int
    assert d["scenario"]["tau"] == 1e-5
    assert d["output"] == "x1e5"


def run_python(code: str, cwd: pathlib.Path) -> str:
    """stdout of ``code`` in a fresh interpreter that imports paramodel from
    src, run in ``cwd`` so that what it writes stays out of the checkout."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pyyaml_is_imported_at_the_first_parse_only(tmp_path):
    out = run_python(
        "import sys\n"
        "import paramodel\n"
        "from paramodel import cli, config_io\n"
        "print('yaml' in sys.modules)\n"
        "cli.main(['run', '--builtin', 'linsolve3', '--horizon', '10'])\n"
        "print('yaml' in sys.modules)\n"
        "config_io.load_config_dict('builtin: fig4')\n"
        "print('yaml' in sys.modules)\n",
        tmp_path,
    )
    assert out.splitlines()[0] == "False"
    assert out.splitlines()[-2:] == ["False", "True"]
    assert (tmp_path / "linsolve3_trace.csv").is_file()


def test_without_libyaml_the_first_parse_says_so(tmp_path):
    out = run_python(
        "import sys\n"
        "sys.modules['yaml._yaml'] = None  # a PyYAML built without its libyaml bindings\n"
        "from paramodel import config_io, builtin_scenarios, serialize_config, RunConfig\n"
        "try:\n"
        "    config_io.load_config_dict('builtin: fig4')\n"
        "except ImportError as err:\n"
        "    print(err)\n"
        "print(serialize_config(RunConfig(mode='train', scenario=builtin_scenarios()['fig4']))[:11])\n",
        tmp_path,
    )
    assert out.splitlines() == [
        "paramodel reads YAML with libyaml, and this PyYAML has no libyaml bindings (yaml.cyaml); "
        "install a PyYAML wheel, which ships them",
        "mode: train",
    ]


#: Each end of each range of the characters YAML allows, and its neighbours.
EDGES = [0x00, 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x1F, 0x20, 0x7E, 0x7F, 0x84, 0x85, 0x86, 0x9F, 0xA0]
EDGES += [0xD7FF, 0xE000, 0xFEFF, 0xFFFD, 0xFFFE, 0xFFFF, 0x10000, 0x10FFFF]


@pytest.mark.parametrize("code", EDGES, ids=[f"{c:#x}" for c in EDGES])
def test_libyaml_rejects_no_character_the_loader_lets_through(code):
    # so libyaml's reader never raises: the loader checks the whole text
    # first, by the set PyYAML's reader checks (a lone surrogate, which
    # libyaml's input cannot hold, included)
    from yaml.cyaml import CParser

    text = f"a: '{chr(code)}'\n"
    try:
        CParser(text).raw_parse()
        libyaml_rejects = False
    except yaml.reader.ReaderError:
        libyaml_rejects = True
    assert libyaml_rejects == bool(yaml.reader.Reader.NON_PRINTABLE.search(text))
    if libyaml_rejects:
        with pytest.raises(ParseError, match=f"^line 1: unacceptable character #x{code:04x}: special characters"):
            load_config_dict(text)


def test_exponent_dt_in_a_file_parses():
    # at YAML 1.1 this was the string '1e-5' and exit 2
    cfg = parse_config(CUSTOM.replace("dt: 1.0e-05", "dt: 1e-5"))
    assert cfg.scenario.base_params.dt == 1e-5


@pytest.mark.parametrize("name", builtin_names())
def test_serialized_text_is_unchanged(name):
    cfg = config_from_dict(builtin_config_dict(name))
    assert serialize_config(cfg) == yaml.safe_dump(config_to_dict(cfg), sort_keys=False)


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("hidden: [h1, h2]", "hidden: [1e3, h2]", "scenario.network.hidden"),
        ("inputs: [x1, x2]", "inputs: [1.50, x2]", "scenario.network.inputs"),
        ("output: y\n", "output: 7\n", "scenario.network.output"),
        ("{from: h1, to: y, weight: 4}", "{from: 1000.0, to: y, weight: 4}", "scenario.network.edges[4].from"),
        ("{from: x1, to: h1, weight: 0}", "{from: x1, to: 1e3, weight: 0}", "scenario.network.edges[0].to"),
        ("{from: x1, to: h1, weight: 0}", "{from: x1, to: null, weight: 0}", "scenario.network.edges[0].to"),
    ],
)
def test_numeric_node_names_are_rejected(old, new, key):
    # YAML reads these as numbers; str() of them would rename the node
    assert old in CUSTOM
    with pytest.raises(ValidationError, match="must be a string") as err:
        parse_config(CUSTOM.replace(old, new))
    assert err.value.key == key


def test_network_w_max_is_not_a_key():
    # the one weight bound is scenario.w_max, which the trainer applies
    text = CUSTOM.replace("    output: y\n", "    output: y\n    w_max: 0.8\n")
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.key == "scenario.network.w_max"


@pytest.mark.parametrize(
    "event, key, message",
    [
        ("{at: 300, set_input: {index: 0}}", "scenario.events[3]", "set_input needs value"),
        ("{at: 300, set_input: {index: 0, value: 0.1, scale: 2}}", "scenario.events[3].set_input.scale", "unknown key"),
        ("{at: 300, set_input: 0.1}", "scenario.events[3].set_input", "must be a mapping"),
        ("{at: 300, drop_weight: 0.5}", "scenario.events[3].drop_weight", "must be an integer"),
        ("{at: 300, set_reference: 1}", "scenario.events[3]", "set_reference value must satisfy"),
        # keys of two types: sorting them for the message used to raise TypeError
        ("{at: 300, drop_weight: 1, 7: 2, x: 3}", "scenario.events[3]", "unknown event keys ['7', 'x']"),
        ("{at: -1, drop_weight: 1}", "scenario.events[3].at", "must be >= 0, got -1"),
        ("{at: 501, drop_weight: 1}", "scenario.events[3]", "event iteration is beyond horizon 500, got 501"),
        ("{at: 150, drop_weight: 1}", "scenario.events[3]", "events must be sorted by iteration"),
        ("{at: 300, drop_weight: 7}", "scenario.events[3]", "drop_weight index must be in [0, 7), got 7"),
        ("{at: 300, set_input: {index: 2, value: 0.1}}", "scenario.events[3]", "set_input index must be in [0, 2), got 2"),
        # the YAML checkers reject these before the event's own type rules
        ("{at: 300.5, drop_weight: 1}", "scenario.events[3].at", "must be an integer, got 300.5"),
        ("{at: 300, drop_weight: true}", "scenario.events[3].drop_weight", "must be an integer, got True"),
        ("{at: 300, set_reference: '0.3'}", "scenario.events[3].set_reference", "must be a finite number, got '0.3'"),
    ],
)
def test_event_errors_name_their_key(event, key, message):
    with pytest.raises(ValidationError, match=re.escape(message)) as err:
        parse_config(CUSTOM.replace("{at: 300, restore_weight: 6}", event))
    assert err.value.key == key


def test_a_left_out_key_takes_its_field_default():
    # the paper's operating point is the gain set's default, and every other
    # scenario default is the built-in runs' value: fig4 needs only its sample
    # and its one event
    assert ControllerParams() == ControllerParams(kp=1.0, ki=0.01, k_alpha=166.5, k_beta=40.0, dt=1e-5)
    cfg = parse_config("mode: train\nscenario:\n  sample: {x: [0.2, 0.6], y: 0.55}\n  events: [{at: 0, drop_weight: 6}]\n")
    assert cfg.scenario == builtin_scenarios()["fig4"]
    assert (cfg.decimation, cfg.tolerance, cfg.output) == (100, 0.01, None)
    problem = parse_config("mode: linsolve\nproblem: {a: [[1.0]], b: [0.5]}\n").problem
    assert problem.horizon == 50_000
    assert problem.controllers == (ControllerParams(),)
    assert problem.filters == (FirstOrderFilter(tau=1e-5, state=0.0),)
    explicit = parse_config("mode: linsolve\nproblem: {a: [[1.0]], b: [0.5], controllers: [{}], filters: [{}]}\n")
    assert explicit.problem == problem


@pytest.mark.parametrize(
    "text, key",
    [
        ("mode: train\n", "scenario"),
        ("mode: train\nscenario: {horizon: 5}\n", "scenario.sample"),
        ("mode: train\nscenario: {sample: {x: [0.2, 0.6]}}\n", "scenario.sample.y"),
        ("mode: linsolve\nproblem: {b: [1.0]}\n", "problem.a"),
        ("mode: linsolve\nproblem: {a: [[1.0]]}\n", "problem.b"),
        ("mode: linsolve\nproblem: {a: [], b: []}\n", "problem"),
        ("mode: train\nscenario: {sample: {x: [0.2], y: 0.5}, network: {inputs: [x1], edges: [{from: x1, weight: 0}]}}\n", "scenario.network.edges[0].to"),
    ],
)
def test_missing_keys_are_named(text, key):
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.key == key


def test_readme_yaml_blocks_parse():
    # the documented schema is the parser's: every yaml example must load
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    assert len(blocks) >= 2
    for block in blocks:
        parse_config(block)


def test_float_like_strings_roundtrip():
    # a node name that the loader would read as a float is quoted when written
    cfg = parse_config(CUSTOM.replace("h1", "'1e3'"))
    assert cfg.scenario.net.hidden == ("1e3", "h2")
    assert "'1e3'" in serialize_config(cfg)
    assert parse_config(serialize_config(cfg)) == cfg


# --- trace CSV: generated codecs ---

# every double, including -0.0, subnormals, +-1.7e308 and 17-digit values
any_float = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308]),
    st.sampled_from([0.1 + 0.2, 1 / 3, 2 / 3, 0.17032763475060728, 1.0000000000000002]),
)


@st.composite
def record_lists(draw):
    """(records, decimation): one record type and width per list, k from 1."""
    m = draw(st.integers(0, 12))
    if draw(st.booleans()):
        q = draw(st.integers(0, 9))
        vec = st.tuples(*[any_float] * q)
        recs = [
            TraceRecord(k, draw(any_float), draw(any_float), draw(any_float), draw(vec), draw(vec))
            for k in range(1, m + 1)
        ]
    else:
        n = draw(st.integers(1, 5))
        vec = st.tuples(*[any_float] * n)
        b = draw(vec)
        recs = []
        for k in range(1, m + 1):
            # the same b object (as as_records passes), an equal copy, or a new b
            how = draw(st.sampled_from(["same", "copy", "new"]))
            b = b if how == "same" else tuple(list(b)) if how == "copy" else draw(vec)
            recs.append(LinsolveRecord(k, draw(vec), b, draw(vec)))
    return recs, draw(st.integers(1, 7))


def reference_csv(records, decimation) -> str:
    """The trace CSV written out literally: str(k), then repr of each float."""
    if not records:
        return "k,t,y,y_ref\n"
    r = records[0]
    if isinstance(r, TraceRecord):
        q = len(r.w)
        cols = ["k", "t", "y", "y_ref", *[f"w{i + 1}" for i in range(q)], *[f"u{i + 1}" for i in range(q)]]
    else:
        n = len(r.y)
        cols = ["k", *[f"{c}{j + 1}" for c in "ybx" for j in range(n)]]
    lines = [",".join(cols)]
    for r in records:
        if r.k % decimation == 0:
            if isinstance(r, TraceRecord):
                values = (r.t, r.y, r.y_ref, *r.w, *r.u)
            else:
                values = (*r.y, *r.b, *r.x)
            lines.append(",".join([str(r.k), *map(repr, values)]))
    return "\n".join(lines) + "\n"


def hexed(rec):
    """The record's values as float.hex, which tells -0.0 from 0.0."""
    return [type(rec), rec.k] + [
        [v.hex() for v in value] if isinstance(value, tuple) else value.hex()
        for value in (getattr(rec, f) for f in rec._fields if f != "k")
    ]


@settings(max_examples=200, deadline=None)
@given(record_lists())
def test_trace_roundtrip_is_bit_exact(tmp_path_factory, case):
    records, decimation = case
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    write_trace(records, str(path), decimation)
    text = path.read_text()
    assert text == reference_csv(records, decimation)
    kept = [r for r in records if r.k % decimation == 0]
    back = read_trace(str(path))
    assert [hexed(r) for r in back] == [hexed(r) for r in kept]
    again = path.with_name("again.csv")
    write_trace(back, str(again), 1)
    if kept or not records:
        assert again.read_text() == text


#: Any float, with the values where max() and abs() could differ drawn often.
special_float = st.floats() | st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(*[st.tuples(special_float, special_float)] * n)))
def test_tracking_error_equals_max(pairs):
    # NaN included: the measure must keep max()'s first-unless-strictly-greater rule
    y, b = (tuple(col) for col in zip(*pairs))
    rec = LinsolveRecord(1, y, b, y)
    want = max(abs(yj - bj) for yj, bj in zip(y, b))
    assert tracking_error(rec).hex() == want.hex()
    assert error_measure(rec)(rec).hex() == want.hex()


@pytest.mark.parametrize("n", range(1, 9))
def test_tracking_error_keeps_the_position_of_a_nan(n):
    for at in range(n):
        for fill in (0.0, -0.0, 1.0, math.inf, -math.inf):
            y = tuple(math.nan if j == at else fill + j for j in range(n))
            want = max(abs(v) for v in y)
            assert tracking_error(LinsolveRecord(1, y, (0.0,) * n, y)).hex() == want.hex(), (at, fill)


def test_tracking_error_of_a_training_record():
    for y, y_ref in [(0.5, 0.55), (-0.0, 0.0), (math.inf, 0.6), (math.nan, 0.6), (0.6, -math.inf)]:
        rec = TraceRecord(1, 0.0, y, y_ref, (), ())
        assert tracking_error(rec).hex() == abs(y - y_ref).hex()


def test_one_measure_per_record_type_and_width():
    train = TraceRecord(1, 0.0, 0.5, 0.55, (0.1,), (0.2,))
    assert error_measure(train) is error_measure(train._replace(w=(), u=()))
    wide, narrow = (LinsolveRecord(1, (0.0,) * n, (1.0,) * n, (0.0,) * n) for n in (3, 2))
    assert error_measure(wide) is error_measure(wide._replace(k=2))
    assert error_measure(wide) is not error_measure(narrow)
    assert error_measure(wide) is not error_measure(train)


def test_tracking_error_of_no_unknowns_raises():
    with pytest.raises(ValueError):
        tracking_error(LinsolveRecord(1, (), (), ()))
    with pytest.raises(ValueError):
        error_measure(LinsolveRecord(1, (), (), ()))


LINSOLVE_CSV = "k,y1,y2,b1,b2,x1,x2\n1,0.1,0.2,1.0,2.0,0.5,0.6\n2,0.1,0.2,1.0,2.0,0.5,0.6\n"


@pytest.mark.parametrize(
    "text, line",
    [
        (LINSOLVE_CSV.replace("0.5,0.6\n2", "0.5\n2"), 2),  # a row missing its last field
        (LINSOLVE_CSV.replace(",0.6\n", ",0.6,0.7\n", 1), 2),  # an extra field
        (LINSOLVE_CSV + "3,0.1,0.2,1.0,2.0,0.5\n", 4),
        (LINSOLVE_CSV.replace("2,0.1", "2,abc"), 3),  # a non-numeric field
        (LINSOLVE_CSV.replace("2,0.1", "2.0,0.1"), 3),  # a non-integer k
        (LINSOLVE_CSV.replace("\n2,", "\n\n2,"), 3),  # a blank line
        (LINSOLVE_CSV + "\n", 4),  # a blank line at the end
        ("k,t,y,y_ref,w1,u1\n1,0.0,0.5,0.5,0.1,x\n", 2),
        (LINSOLVE_CSV.replace("2,0.1", "2,0.\u00e91"), 3),  # a byte outside ASCII
        ("k,y1,b1,x\u00e91\n", 1),
        ("k,t,y,y_ref\n1,0.0,0.5\n", 2),
        ("k,y1,b1,x1,z1\n1,0,0,0,0\n", 1),  # headers no writer emits
        ("k,y1,y2,b1,b2,x1,x3\n", 1),
        ("k,t,y,yref,w1,u1\n", 1),
        ("k, t,y,y_ref\n", 1),
        ("t,k,y,y_ref\n", 1),
        ("", 1),
    ],
)
def test_read_trace_rejects_malformed_files(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_trace(str(path))
    assert err.value.line == line


def test_read_trace_bounds_a_long_field_and_header_in_its_message(tmp_path):
    # the first quoted the whole field, about 5 KB, and the second the
    # whole header
    path = tmp_path / "bad.csv"
    path.write_text(LINSOLVE_CSV.replace("\n2,", "\n" + "7" * 5_000 + ",", 1))
    with pytest.raises(ParseError) as err:
        read_trace(str(path))
    assert str(err.value).startswith("line 3: k is not an integer: '7777")
    assert len(str(err.value)) < 200
    path.write_text(LINSOLVE_CSV.replace(",0.6\n", ",0." + "6" * 100_000 + "x\n", 1))
    with pytest.raises(ParseError) as err:
        read_trace(str(path))
    assert str(err.value).startswith("line 2: x2 is not a number: '0.666")
    assert len(str(err.value)) < 200
    path.write_text("k,y1,b1," + "x" * 1_000_000 + "\n")
    with pytest.raises(ParseError) as err:
        read_trace(str(path))
    assert str(err.value).startswith("line 1: unrecognized trace header: 'k,y1,b1,xxx")
    assert len(str(err.value)) < 200


def test_read_trace_names_the_bad_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(LINSOLVE_CSV.replace("2,0.1,0.2,1.0", "2,0.1,0.2,1.0x"))
    with pytest.raises(ParseError, match=r"line 3: b1 is not a number: '1.0x'"):
        read_trace(str(path))
    path.write_text(LINSOLVE_CSV.replace(",0.6\n", "\n", 1))
    with pytest.raises(ParseError, match="line 2: expected 7 fields, got 6"):
        read_trace(str(path))


@pytest.mark.parametrize(
    "row, message",
    [
        # float() and int() take these, write_trace never writes them
        (b"2,0.5,1_0, 2.5", "b1 is not a number: '1_0'"),
        (b"2,0.5,1.0, 2.5", "x1 is not a number: ' 2.5'"),
        (b"2,0.5,1.0,2.5 ", "x1 is not a number: '2.5 '"),
        (b"2,0.5,1.0,\t2.5", "x1 is not a number: '\\t2.5'"),
        (b"2,0.5,1.0,2.5\r", "x1 is not a number: '2.5\\r'"),
        (b"2,0.5,1.0,\x0c2.5", "x1 is not a number: '\\x0c2.5'"),
        (b"2,0.5,1.0,\x1f2.5", "x1 is not a number: '\\x1f2.5'"),
        (b"2,0.5,\xa01.0,2.5", "b1 is not a number: '\\xa01.0'"),
        (b"2,0.5,1.0\x85,2.5", "b1 is not a number: '1.0\\x85'"),
        (b" 2,0.5,1.0,2.5", "k is not an integer: ' 2'"),
        (b"2_0,0.5,1.0,2.5", "k is not an integer: '2_0'"),
    ],
)
def test_read_trace_rejects_a_byte_write_trace_never_writes(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"k,y1,b1,x1\n1,0.5,1.0,2.5\n" + row + b"\n3,0.5,1.0,2.5\n")
    with pytest.raises(ParseError) as err:
        read_trace(str(path))
    assert err.value.line == 3
    assert str(err.value) == f"line 3: {message}"


def test_read_trace_numbers_lines_across_blocks(tmp_path):
    # enough rows for several blocks of lines, the bad one in a later block
    rows = [f"{k},0.5,1.0,2.5\n".encode() for k in range(1, 20_001)]
    rows[15_000] = b"15001,0.5,1.0,2.5 \n"
    path = tmp_path / "long.csv"
    path.write_bytes(b"k,y1,b1,x1\n" + b"".join(rows))
    with pytest.raises(ParseError, match=r"^line 15002: x1 is not a number: '2.5 '$"):
        read_trace(str(path))
    rows[15_000] = b"15001,0.5,1.0,2.5\n"
    path.write_bytes(b"k,y1,b1,x1\n" + b"".join(rows))
    assert [r.k for r in read_trace(str(path))] == list(range(1, 20_001))


def width3_records(rows: int, b=(0.5, 0.1, 0.8)) -> list:
    """Solver records of width 3 whose floats print in full, all holding ``b``."""
    return [LinsolveRecord(k, (k / 3, k / 7, k / 11), b, (1 / k, 2 / k, 3 / k)) for k in range(1, rows + 1)]


def test_read_trace_holds_one_b_tuple(tmp_path):
    # the reader's mirror of the writer's reused text: about 372 bytes a row
    # with one shared b tuple, about 508 with a tuple and three floats a row
    rows = 20_000
    path = str(tmp_path / "t.csv")
    write_trace(width3_records(rows), path)
    tracemalloc.start()
    try:
        records = read_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == rows
    assert peak / rows < 440
    # consecutive rows share one tuple, over every block of lines
    assert all(r.b is prev.b for prev, r in zip(records, records[1:]))


def test_read_trace_reads_each_b_text_by_its_own_bits(tmp_path):
    texts = ["0.5,0.1,0.8", "0.5,0.1,0.8000000000000002", "-0.0,0.1,0.8", "0.0,0.1,0.8", "nan,-inf,inf"]
    # runs of each text, one changing in a later block of lines
    runs = [(texts[0], 3), (texts[1], 2), (texts[2], 15_000), (texts[3], 1), (texts[0], 2), (texts[4], 2)]
    lines, bs = [], []
    for text, count in runs:
        for _ in range(count):
            lines.append(f"{len(lines) + 1},0.25,0.5,0.75,{text},1.0,2.0,3.0\n")
            bs.append(text)
    path = tmp_path / "b.csv"
    path.write_text("k,y1,y2,y3,b1,b2,b3,x1,x2,x3\n" + "".join(lines))
    records = read_trace(str(path))
    assert [[v.hex() for v in r.b] for r in records] == [[float(v).hex() for v in t.split(",")] for t in bs]
    assert [r.k for r in records] == list(range(1, len(lines) + 1))
    # a row shares its predecessor's tuple exactly when its b text is the same
    assert [r.b is prev.b for prev, r in zip(records, records[1:])] == [a == b for a, b in zip(bs, bs[1:])]


def test_read_trace_of_headers_only(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("k,t,y,y_ref\n")
    assert read_trace(str(path)) == []
    path.write_text("k,y1,b1,x1")  # no newline after the header
    assert read_trace(str(path)) == []


@pytest.mark.parametrize("count", [0, 1, ROWS_PER_WRITE - 1, ROWS_PER_WRITE, ROWS_PER_WRITE + 1, 2 * ROWS_PER_WRITE + 1])
@pytest.mark.parametrize("decimation", [1, 3])
@pytest.mark.parametrize("kind", ["train", "linsolve"])
def test_written_bytes_do_not_depend_on_the_blocks(tmp_path, count, decimation, kind):
    # each row of the codec, joined: blocks of rows are written at once
    if kind == "train":
        records = [TraceRecord(k, k * 1e-5, k / 3, 0.55, (k / 7, -0.0), (1 / k, 2.0)) for k in range(1, count + 1)]
        cls, width = TraceRecord, 2
    else:
        records, cls, width = width3_records(count), LinsolveRecord, 3
    path = tmp_path / "t.csv"
    write_trace(records, str(path), decimation)
    text = path.read_bytes().decode("ascii")
    assert text == reference_csv(records, decimation)
    assert text.partition("\n")[2] == "".join(_codec(cls, width)[1](records, decimation))
    assert len(text.splitlines()) == 1 + count // decimation


def test_write_trace_rejects_a_row_of_another_width(tmp_path):
    recs = [LinsolveRecord(1, (0.0,), (1.0,), (0.0,)), LinsolveRecord(2, (0.0, 0.0), (1.0, 1.0), (0.0, 0.0))]
    with pytest.raises(ValueError):
        write_trace(recs, str(tmp_path / "w.csv"), 1)
