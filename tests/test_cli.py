"""CLI: flags, exit codes, summaries, override equivalence."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml

from paramodel import config_io
from paramodel.cli import _apply_overrides, _build_parser, main
from paramodel.config_io import builtin_config_dict, builtin_names, parse_config, serialize_config

FAST_TRAIN = """\
mode: train
decimation: 10
scenario:
  horizon: 3000
  gains: {kp: 1.0, ki: 0.01, k_alpha: 166.5, k_beta: 40.0, dt: 1.0e-05}
  sample: {x: [0.2, 0.6], y: 0.55}
  events:
    - {at: 0, drop_weight: 6}
"""

DIVERGING_LINSOLVE = """\
mode: linsolve
problem:
  a: [[3.0, 0.5, 8.0], [4.0, 7.0, 4.5], [1.0, 9.0, 3.0]]
  b: [7.95, 6.3, 3.8]
  horizon: 50000
  stagger_rho: 1.0
  gains: {kp: 1.0, ki: 0.01, k_alpha: 166.5, k_beta: 40.0, dt: 1.0e-05}
"""

# one edge of weight index 2, so the weights list needs three entries
ONE_EDGE_NET = """\
mode: train
scenario:
  horizon: 10
  sample: {x: [0.2], y: 0.5}
  network:
    inputs: [x1]
    output: y
    edges: [{from: x1, to: y, weight: 2}]
    weights: [0.1]
"""

# a network with no edge has no weight to train
EDGELESS_NET = """\
mode: train
scenario:
  horizon: 10
  sample: {x: [0.2], y: 0.5}
  network: {inputs: [x1], output: y}
"""


def test_list_output(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == ["fig4", "fig5", "fig6", "fig7", "linsolve3"]


def test_run_fast_train_converges(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(FAST_TRAIN)
    out_csv = tmp_path / "trace.csv"
    code = main(["run", str(cfg), "--out", str(out_csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged: yes" in out
    assert "final |y - y_ref|" in out
    assert out_csv.exists()
    assert len(out_csv.read_text().splitlines()) == 1 + 300


def test_run_missing_config(tmp_path, capsys):
    code = main(["run", str(tmp_path / "missing.cfg")])
    err = capsys.readouterr().err
    assert code == 4
    assert "IoError" in err


def test_run_invalid_yaml(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("mode: [unclosed\n")
    assert main(["run", str(cfg)]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_run_invalid_gain(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(FAST_TRAIN.replace("kp: 1.0", "kp: -1"))
    assert main(["run", str(cfg)]) == 2
    assert "kp" in capsys.readouterr().err


def test_run_divergence_exit_code(tmp_path, capsys):
    cfg = tmp_path / "div.yaml"
    cfg.write_text(DIVERGING_LINSOLVE)
    assert main(["run", str(cfg)]) == 3
    assert "divergence" in capsys.readouterr().err


def test_run_nonconvergence_exit_code(tmp_path, capsys):
    cfg = tmp_path / "short.yaml"
    cfg.write_text(FAST_TRAIN.replace("horizon: 3000", "horizon: 50"))
    code = main(["run", str(cfg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "converged: no" in out


def test_run_needs_exactly_one_source(capsys):
    assert main(["run"]) == 2
    assert main(["run", "a.yaml", "--builtin", "fig4"]) == 2


def test_config_path_is_positional_only(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--config", "a.yaml"])
    assert err.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["fig4", "linsolve3"])
def test_trace_with_no_row_has_the_header_of_its_mode(tmp_path, capsys, name):
    # a horizon below the decimation keeps no row, yet the header is the
    # one the same run writes at --decimate 1
    empty, full = tmp_path / "empty.csv", tmp_path / "full.csv"
    main(["run", "--builtin", name, "--horizon", "50", "--out", str(empty)])
    main(["run", "--builtin", name, "--horizon", "50", "--decimate", "1", "--out", str(full)])
    assert "(0 rows, decimation 100)" in capsys.readouterr().out
    assert empty.read_text() == full.read_text().splitlines(keepends=True)[0]


def test_unwritable_out_exits_4_before_the_run(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(config_io, "run_records", lambda config: ran.append(config) or iter(()))
    assert main(["run", "--builtin", "fig4", "--out", str(tmp_path / "missing" / "x.csv")]) == 4
    out, err = capsys.readouterr()
    assert not ran and out == ""
    assert "IoError: [Errno 2] No such file or directory" in err


def test_diverging_run_leaves_an_empty_trace(tmp_path, capsys):
    cfg = tmp_path / "diverge.yaml"
    cfg.write_text(DIVERGING_LINSOLVE)
    out = tmp_path / "trace.csv"
    out.write_text("an earlier trace\n")
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert "divergence:" in capsys.readouterr().err
    assert out.read_bytes() == b""


def test_override_flags_equal_config_edit(tmp_path, capsys):
    base = tmp_path / "base.yaml"
    base.write_text(FAST_TRAIN)
    edited = tmp_path / "edited.yaml"
    edited.write_text(
        FAST_TRAIN.replace("kp: 1.0", "kp: 0.9").replace("horizon: 3000", "horizon: 2000")
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = main(["run", str(edited), "--out", str(out_a)])
    code_b = main(
        ["run", str(base), "--kp", "0.9", "--horizon", "2000", "--out", str(out_b)]
    )
    capsys.readouterr()
    assert code_a == code_b
    assert out_a.read_bytes() == out_b.read_bytes()


def test_override_tau_rho_tol(tmp_path, capsys):
    base = tmp_path / "base.yaml"
    base.write_text(FAST_TRAIN)
    edited = tmp_path / "edited.yaml"
    edited.write_text(
        FAST_TRAIN.replace("scenario:\n  horizon: 3000", "tolerance: 0.02\nscenario:\n  horizon: 3000\n  tau: 2.0e-05\n  stagger_rho: 0.5")
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = main(["run", str(edited), "--out", str(out_a)])
    code_b = main(
        ["run", str(base), "--tau", "2e-5", "--rho", "0.5", "--tol", "0.02", "--out", str(out_b)]
    )
    capsys.readouterr()
    assert code_a == code_b
    assert out_a.read_bytes() == out_b.read_bytes()


def test_run_builtin_fig4(tmp_path, capsys):
    out_csv = tmp_path / "fig4.csv"
    code = main(["run", "--builtin", "fig4", "--out", str(out_csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged: yes" in out
    assert "settled from iteration 1979" in out
    assert out_csv.exists()


def test_run_builtin_linsolve(tmp_path, capsys):
    out_csv = tmp_path / "l3.csv"
    code = main(["run", "--builtin", "linsolve3", "--out", str(out_csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "max |y_j - b_j|" in out
    assert "converged: yes" in out
    assert out_csv.read_text().splitlines()[0] == "k,y1,y2,y3,b1,b2,b3,x1,x2,x3"


def test_builtin_with_a_partial_section_equals_the_flag(tmp_path, capsys):
    # the file's section merges into the expanded one, as the flag edits it
    cfg = tmp_path / "short.yaml"
    cfg.write_text("builtin: fig4\nscenario: {horizon: 5}\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(["run", str(cfg), "--out", str(a), "--decimate", "1"])
    code_b = main(["run", "--builtin", "fig4", "--horizon", "5", "--out", str(b), "--decimate", "1"])
    capsys.readouterr()
    assert code_a == code_b == 1
    assert len(a.read_text().splitlines()) == 1 + 5
    assert a.read_bytes() == b.read_bytes()


def test_summary_has_no_segment_lines_without_events(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(FAST_TRAIN)
    assert main(["run", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["run:", "final", "settled", "converged:"]


def test_summary_of_a_segment_that_does_not_settle(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(FAST_TRAIN.replace("horizon: 3000", "horizon: 2020") + "    - {at: 2000, set_reference: 0.6}\n")
    assert main(["run", str(cfg)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2:5] == [
        "did not settle within the horizon",
        "initial segment: settled from iteration 1979",
        "event at iteration 2000: did not settle within its segment",
    ]


def test_unknown_builtin_exit_code(capsys):
    assert main(["run", "--builtin", "fig99"]) == 2
    assert "fig99" in capsys.readouterr().err
    assert main(["run", "--builtin", ""]) == 2
    assert "unknown built-in (available: fig4, fig5, fig6, fig7, linsolve3), got ''" in capsys.readouterr().err


def short_builtin(path, name, horizon=300, **edits):
    """Write a built-in's configuration, cut to its first iterations."""
    d = builtin_config_dict(name)
    section = d.get("scenario") or d["problem"]
    section.update(horizon=horizon, **edits)
    if "events" in section:
        section["events"] = [e for e in section["events"] if e["at"] <= horizon]
    path.write_text(yaml.safe_dump(d, sort_keys=False))
    return str(path)


OVERRIDES = [
    ("--kp", "0.5"),
    ("--ki", "0.02"),
    ("--k-alpha", "100"),
    ("--k-beta", "30"),
    ("--dt", "2e-5"),
    ("--tau", "2e-5"),
    ("--rho", "0.25"),
    ("--horizon", "200"),
    ("--decimate", "7"),
    ("--tol", "0.05"),
    ("--out", ""),
]


@pytest.mark.parametrize("flag,value", OVERRIDES)
@pytest.mark.parametrize("name", builtin_names())
def test_every_override_takes_effect_or_is_rejected(tmp_path, capsys, name, flag, value):
    cfg = short_builtin(tmp_path / "run.yaml", name)
    out = tmp_path / "trace.csv"
    results = []
    for extra in ([], [flag, value]):
        code = main(["run", cfg, "--out", str(out), *extra])
        results.append((code, capsys.readouterr().out, out.exists(), out.read_bytes() if out.exists() else b""))
        out.unlink(missing_ok=True)
    (base_code, *base), (code, *flagged) = results
    assert base_code in (0, 1)
    # a run that is not rejected writes its trace, so a missing one is no change
    assert base[1] and (code not in (0, 1) or flagged[1]), f"{flag} {value} wrote no trace on {name}"
    # --tol leaves the trace alone and changes the printed summary
    assert code == 2 or flagged != base, f"{flag} {value} was ignored on {name}"


def test_linsolve3_rho_flag_equals_file_edit(tmp_path, capsys):
    edited = short_builtin(tmp_path / "edited.yaml", "linsolve3", 2000, stagger_rho=0.25)
    base = short_builtin(tmp_path / "base.yaml", "linsolve3", 2000)
    runs = {
        "edited": ["run", edited],
        "flag": ["run", base, "--rho", "0.25"],
        "builtin": ["run", "--builtin", "linsolve3", "--horizon", "2000", "--rho", "0.25"],
        "unedited": ["run", base],
    }
    traces = {}
    for label, argv in runs.items():
        out = tmp_path / f"{label}.csv"
        assert main([*argv, "--out", str(out)]) in (0, 1)
        traces[label] = out.read_bytes()
    capsys.readouterr()
    assert traces["flag"] == traces["edited"] == traces["builtin"]
    assert traces["flag"] != traces["unedited"]


@pytest.mark.parametrize(
    "flag,value,key", [("--rho", "0.25", "stagger_rho"), ("--kp", "0.5", "gains"), ("--tau", "2e-5", "tau")]
)
def test_override_shadowed_by_explicit_list_exits_2(tmp_path, capsys, flag, value, key):
    cfg = tmp_path / "explicit.yaml"
    cfg.write_text(serialize_config(parse_config("builtin: linsolve3\n")))
    assert main(["run", str(cfg), flag, value]) == 2
    assert f"problem.{key}: cannot be combined with an explicit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content,flags,message",
    [
        (FAST_TRAIN.replace("x: [0.2, 0.6]", "x: 5").encode(), [], "ValidationError: scenario.sample.x: must be a list"),
        (DIVERGING_LINSOLVE.replace("a: [[3.0,", "a: [[.inf,").encode(), [], "ValidationError: problem.a: must be a finite number, got inf"),
        (b"", [], "ParseError: empty configuration"),
        (b"\xff\xfe\x00mode: train\n", [], "ParseError: 'utf-8' codec can't decode"),
        (b"mode: train\nscenario: 5\n", ["--kp", "0.5"], "ValidationError: scenario: must be a mapping"),
        (b"mode: train\nscenario: {gains: 5}\n", ["--kp", "0.5"], "ValidationError: scenario.gains: must be a mapping"),
        (
            ONE_EDGE_NET.encode(),
            [],
            "ValidationError: scenario.network.weights: an edge's weight index must be < 1, the number of weights, got 2",
        ),
        (
            ONE_EDGE_NET.replace("weights: [0.1]", "weights: [0.1, 0.2, 0.3]\n    mask: [true]").encode(),
            [],
            "ValidationError: scenario.network.mask: needs one entry per weight (3), got 1",
        ),
        (
            FAST_TRAIN.replace("dt: 1.0e-05}", "dt: 1.0e-05, init_decay: time}").encode(),
            [],
            "ValidationError: scenario.gains.init_decay: unknown key",
        ),
        (
            DIVERGING_LINSOLVE.replace("dt: 1.0e-05}", "dt: 1.0e-05, init_decay: time}").encode(),
            [],
            "ValidationError: problem.gains.init_decay: unknown key",
        ),
        (
            b"mode: linsolve\nproblem:\n  a: [[2.0]]\n  b: [1.0]\n  controllers: [{kp: 1.0, init_decay: time}]\n",
            [],
            "ValidationError: problem.controllers[0].init_decay: unknown key",
        ),
        ((FAST_TRAIN + 'output: ""\n').encode(), [], "ValidationError: output: must be a file path, or null for no trace"),
        (FAST_TRAIN.encode(), ["--out", ""], "ValidationError: output: must be a file path, or null for no trace"),
        (
            FAST_TRAIN.replace("kp: 1.0", "kp: 1" + "0" * 400).encode(),
            [],
            "ValidationError: scenario.gains.kp: must be a finite number, got 1000",
        ),
        (b"mode: train\nscenario:\n  gains: " + b"[" * 900 + b"]" * 900 + b"\n", [], "ParseError: line 3: nested too deeply"),
        (EDGELESS_NET.encode(), [], "ValidationError: scenario: network has no weight to train"),
        (b"mode: train\nscenario: {horizon: 10, horizon: 20}\n", [], "ParseError: line 2: duplicate key 'horizon'"),
        (b"mode: train\nscenario: {horizon: 2020-02-30}\n", [], "ParseError: line 2: day is out of range for month"),
        (
            FAST_TRAIN.replace("kp: 1.0", "kp: 1" + "0" * 4999).encode(),
            [],
            "ParseError: line 5: integer too long: more than 4300 digits\n",
        ),
        (
            b"%YAML 1." + b"1" * 5000 + b"\n---\n" + FAST_TRAIN.encode(),
            [],
            "ParseError: line 1: found extremely long version number\n",
        ),
        (
            FAST_TRAIN.replace("y: 0.55", "y: \x000.55").encode(),
            [],
            "ParseError: line 6: unacceptable character #x0000: special characters are not allowed\n",
        ),
        (
            DIVERGING_LINSOLVE.replace("stagger_rho: 1.0", "stagger_rho: 1.5").encode(),
            [],
            "ValidationError: problem.stagger_rho: must be > 0 and <= 1, got 1.5\n",
        ),
        ((FAST_TRAIN + "tolerance: 0\n").encode(), [], "ValidationError: tolerance: must be > 0, got 0.0\n"),
        (
            FAST_TRAIN.replace("horizon: 3000", "horizon: 3000\n  w_max: 0").encode(),
            [],
            "ValidationError: scenario.w_max: must be > 0, got 0.0\n",
        ),
        (FAST_TRAIN.replace("horizon: 3000", "horizon: 0").encode(), [], "ValidationError: scenario.horizon: must be >= 1, got 0\n"),
        (
            FAST_TRAIN.replace("  events:", "  network: {mask: [1]}\n  events:").encode(),
            [],
            "ValidationError: scenario.network.mask: must be true or false, got 1",
        ),
        (
            b"mode: linsolve\nproblem:\n  a: [[2.0]]\n  b: [1.0]\n  filters: []\n",
            [],
            "ValidationError: problem: need 1 filters, got 0",
        ),
    ],
    ids=[
        "sample-not-a-list",
        "inf-in-a",
        "empty",
        "undecodable",
        "scenario-not-a-mapping",
        "gains-not-a-mapping",
        "weights-shorter-than-edges",
        "mask-length",
        "init-decay-in-scenario-gains",
        "init-decay-in-problem-gains",
        "init-decay-in-a-controller",
        "empty-output",
        "empty-out-flag",
        "integer-beyond-float-range",
        "nested-900-deep",
        "network-with-no-edge",
        "duplicate-key",
        "date-that-does-not-exist",
        "integer-of-5000-digits",
        "yaml-directive-of-5000-digits",
        "nul-byte",
        "stagger-rho-above-1",
        "zero-tolerance",
        "zero-w-max",
        "zero-horizon",
        "mask-entry-not-a-bool",
        "empty-filters-list",
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, content, flags, message):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(content)
    assert main(["run", str(cfg), *flags]) == 2
    out, err = capsys.readouterr()
    assert message in err
    # rejected before the run: no summary line, no trace truncated
    assert out == ""


def test_a_deeply_nested_value_is_shown_bounded(tmp_path, capsys):
    # 193 levels load (the limit is 200); the message shows three of them
    cfg = tmp_path / "deep.yaml"
    cfg.write_text(FAST_TRAIN.replace("kp: 1.0", "kp: " + "[" * 190 + "]" * 190))
    assert main(["run", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "ValidationError: scenario.gains.kp: must be a finite number, got [[[[...]]]]\n")
    assert len(err.encode()) < 200


def test_an_edge_weight_index_costs_no_memory(tmp_path, capsys):
    # without weights, the default ones would hold 4,000,001 entries (61 MB)
    cfg = tmp_path / "big-index.yaml"
    cfg.write_text(
        "mode: train\n"
        "scenario: {sample: {x: [0.2], y: 0.5}, network: {inputs: [x1], edges: [{from: x1, to: y, weight: 4000000}]}}\n"
    )
    config_io.load_config_dict("mode: train\n")  # PyYAML imported before the trace
    tracemalloc.start()
    try:
        assert main(["run", str(cfg)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr().err == (
        "ValidationError: scenario.network.edges[0]: edge x1->y: without a weights list a weight index must be "
        "< 1, the number of edges, got 4000000\n"
    )


@pytest.mark.parametrize("content,status", [(EDGELESS_NET, 2), (DIVERGING_LINSOLVE, 3)], ids=["edgeless", "diverging"])
def test_exit_status_reaches_the_shell_without_a_traceback(tmp_path, content, status):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(content)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "paramodel", "run", str(cfg)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == status
    assert "Traceback" not in proc.stderr


def test_exponent_float_in_file_equals_flag(tmp_path, capsys):
    # YAML 1.1 reads 2e-5 as a string; the loader reads it as YAML 1.2 does
    base = tmp_path / "base.yaml"
    base.write_text(FAST_TRAIN)
    edited = tmp_path / "edited.yaml"
    edited.write_text(FAST_TRAIN.replace("dt: 1.0e-05", "dt: 2e-5"))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = main(["run", str(edited), "--out", str(out_a)])
    code_b = main(["run", str(base), "--dt", "2e-5", "--out", str(out_b)])
    capsys.readouterr()
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()


SCENARIO_SECTION = """\
scenario:
  horizon: 300
  sample: {x: [0.2, 0.6], y: 0.55}
"""


@pytest.mark.parametrize(
    "text, unused",
    [(DIVERGING_LINSOLVE.replace("50000", "300") + SCENARIO_SECTION, "scenario"), (FAST_TRAIN + "problem: {a: [[1.0]], b: [1.0]}\n", "problem")],
    ids=["linsolve-with-scenario", "train-with-problem"],
)
@pytest.mark.parametrize("flags", [[], ["--kp", "0.3", "--horizon", "5"]])
def test_section_the_mode_does_not_use_exits_2(tmp_path, capsys, text, unused, flags):
    cfg = tmp_path / "leftover.yaml"
    cfg.write_text(text)
    out = tmp_path / "trace.csv"
    assert main(["run", str(cfg), "--out", str(out), *flags]) == 2
    mode = "linsolve" if unused == "scenario" else "train"
    assert f"ValidationError: {unused}: {mode} mode does not use a {unused}" in capsys.readouterr().err
    assert not out.exists()


def test_overrides_edit_the_section_of_the_mode():
    args = _build_parser().parse_args(["run", "x.yaml", "--kp", "0.3", "--horizon", "5", "--rho", "0.5"])
    for mode, used, unused in (("linsolve", "problem", "scenario"), ("train", "scenario", "problem")):
        # the unused section comes first, as it did in the file that used to be edited wrongly
        d = {"mode": mode, unused: {"horizon": 300}, used: {"horizon": 300}}
        _apply_overrides(d, args)
        assert d[unused] == {"horizon": 300}
        assert d[used] == {"horizon": 5, "gains": {"kp": 0.3}, "stagger_rho": 0.5}
    # no section yet: the flags add the one the mode runs, as an edit of the file would
    d = _apply_overrides({"mode": "train"}, args)
    assert d["scenario"] == {"horizon": 5, "gains": {"kp": 0.3}, "stagger_rho": 0.5}
    # no valid mode: nothing to edit, the parser rejects the document
    for mode in (None, "bogus", [1]):
        d = {"mode": mode, "scenario": {}}
        assert _apply_overrides(d, args)["scenario"] == {}


@pytest.mark.parametrize("content", ["mode: bogus\n", "mode: [1]\n", "decimation: 5\n"])
def test_overrides_with_no_valid_mode_exit_2(tmp_path, capsys, content):
    cfg = tmp_path / "nomode.yaml"
    cfg.write_text(content)
    assert main(["run", str(cfg), "--kp", "0.3"]) == 2
    assert "ValidationError: mode:" in capsys.readouterr().err
