"""Config parsing/serialization round trips and CSV trace fidelity."""

from __future__ import annotations

import pytest

from paramodel import (
    ControllerParams,
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
from paramodel.config_io import config_from_dict, segment_settling, tracking_error
from paramodel.linsolve import as_records, solve_linear

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
    w_max: 0.8
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
    assert s.net.w_max == 0.8


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


def test_write_trace_bad_decimation(tmp_path):
    with pytest.raises(ValidationError):
        write_trace([], str(tmp_path / "x.csv"), 0)
