"""scripts/run_builtins.py: the golden regeneration command, and the CLI
summary it prints for every built-in, per event segment."""

from __future__ import annotations

import contextlib
import io
import pathlib

import pytest

from paramodel.config_io import builtin_names

from conftest import event_resettled_within, script, settled_from

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

#: the settling of each segment of the built-ins with events: the initial
#: settling iteration, then the re-settling time after each event
SEGMENTS = {"fig5": (1979, 16, 33), "fig6": (1979, 71), "fig7": (1879, 22, 34, 32)}


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    """Exit code, output directory and stdout of the golden regeneration
    command, ``run_builtins.py --outdir DIR --decimate 100``, run in-process."""
    outdir = tmp_path_factory.mktemp("regenerated")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = script("run_builtins").main(["--outdir", str(outdir), "--decimate", "100"])
    summaries = {block.split()[1]: block.splitlines() for block in stdout.getvalue().strip().split("\n\n")}
    return code, outdir, summaries


def test_regeneration_command_writes_the_goldens(regenerated):
    code, outdir, _ = regenerated
    assert code == 0
    names = [f"{name}_trace.csv" for name in builtin_names()]
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(names)
    for name in names:
        assert (outdir / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


@pytest.mark.parametrize("name", ["fig5", "fig6", "fig7"])
def test_summary_reports_every_event_segment(regenerated, builtin_run, name):
    _, _, summaries = regenerated
    run = builtin_run(name)
    initial, *resettled = SEGMENTS[name]
    pairs = event_resettled_within(run.scenario, run.violations)
    assert [settle for _, settle in pairs] == resettled
    first = pairs[0][0]
    assert settled_from([k for k in run.violations if k < first], first - 1) == initial
    expected = [
        f"settled from iteration {settled_from(run.violations, run.horizon)} of {run.horizon}",
        f"initial segment: settled from iteration {initial}",
        *(f"event at iteration {at}: re-settled after {settle} iterations" for at, settle in pairs),
    ]
    assert summaries[name][2 : 2 + len(expected)] == expected

