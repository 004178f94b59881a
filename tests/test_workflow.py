"""The CI workflow, checked where it is written: it runs only on a push, so
a typo in it would stay hidden until then."""

from __future__ import annotations

import importlib.util
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]


def workflow() -> dict:
    return yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())


def runs() -> list[str]:
    return [step["run"] for job in workflow()["jobs"].values() for step in job["steps"] if "run" in step]


def version(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split(".")))


def test_runs_on_push_and_pull_request():
    # YAML 1.1 reads the key "on" as True
    assert set(workflow()[True]) == {"push", "pull_request"}


def test_python_matrix_spans_the_supported_versions():
    oldest = re.search(r'^requires-python = ">=([\d.]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    pythons = sorted(map(version, workflow()["jobs"]["tier1"]["strategy"]["matrix"]["python"]))
    assert pythons[0] == version(oldest.group(1))
    assert (3, 13) in pythons


def test_every_script_a_step_runs_exists():
    paths = [p for run in runs() for p in re.findall(r"\b(?:scripts|perfbench)/[\w./-]+", run)]
    assert paths
    assert [p for p in paths if not (ROOT / p).is_file()] == []


def test_tier1_step_runs_the_verify_command():
    verify = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(), re.M)
    assert verify.group(1) in runs()


def test_every_leg_checks_that_pyyaml_has_libyaml():
    steps = workflow()["jobs"]["tier1"]["steps"]
    [step] = [s for s in steps if "yaml.__with_libyaml__" in s.get("run", "")]
    assert "if" not in step
    assert steps.index(step) < [s.get("name") for s in steps].index("Tier-1 tests")
    python, *args = shlex.split(step["run"])
    assert python == "python"
    assert subprocess.run([sys.executable, *args], timeout=60).returncode == 0
    # and it fails where PyYAML has no libyaml
    without = ["-c", "import yaml; yaml.__with_libyaml__ = False; " + args[-1]]
    assert subprocess.run([sys.executable, *without], capture_output=True, timeout=60).returncode == 1


def test_every_leg_installs_the_test_extra_with_numpy():
    # tests/test_lanes.py skips where numpy is missing, and the lanes would go unchecked
    steps = workflow()["jobs"]["tier1"]["steps"]
    [install] = [s for s in steps if ".[test]" in s.get("run", "")]
    assert install["run"] == 'python -m pip install -e ".[test]"' and "if" not in install
    assert steps.index(install) < [s.get("name") for s in steps].index("Tier-1 tests")
    extra = re.search(r"^test = \[(.*)\]$", (ROOT / "pyproject.toml").read_text(), re.M)
    assert re.findall(r'"numpy\b', extra.group(1)) == ['"numpy']


def test_one_leg_checks_the_tables_against_their_generator(tmp_path, monkeypatch):
    steps = workflow()["jobs"]["tier1"]["steps"]
    [step] = [s for s in steps if "gen_elementary_tables.py" in s.get("run", "")]
    assert step["run"] == "python scripts/gen_elementary_tables.py --check"
    assert step["if"] == "matrix.os == 'ubuntu-latest' && matrix.python == '3.11'"
    # the step before it installs the mpmath that wrote the tables, on the same leg
    pin = steps[steps.index(step) - 1]
    assert pin["run"] == "python -m pip install mpmath==1.3.0"
    assert pin["if"] == step["if"]
    # --check compares the file with what the script generates and writes nothing
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location("gen_elementary_tables", ROOT / "scripts" / "gen_elementary_tables.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    out = tmp_path / "elementary_tables.py"
    monkeypatch.setattr(gen, "OUT", out)
    monkeypatch.setattr(gen, "source", lambda: "TABLES = ()\n")
    out.write_text("TABLES = ()\n")
    assert gen.main(["--check"]) == 0
    out.write_text("TABLES = (1.0,)\n")
    assert gen.main(["--check"]) == 1
    assert out.read_text() == "TABLES = (1.0,)\n"
    assert gen.main([]) == 0 and out.read_text() == "TABLES = ()\n"


def test_every_leg_checks_the_goldens_against_the_reference_traces():
    # the one run of the reference seam with mpmath's exp and tanh
    steps = workflow()["jobs"]["tier1"]["steps"]
    [step] = [s for s in steps if "reference_traces.py" in s.get("run", "")]
    assert step["run"] == "PYTHONPATH=src python scripts/reference_traces.py --outdir out/reference"
    assert "if" not in step
    assert steps.index(step) > [s.get("name") for s in steps].index("Tier-1 tests")
