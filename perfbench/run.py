"""The paramodel benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload runs in a fresh
single-threaded process (worker.py), one after another, so every pass pays
the import and set-up a user pays.  An untraced run repeats passes for
about S seconds and reports the medians; a traced run makes one untraced
and one traced pass and reports the per-layer metrics.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are those BENCHMARK.json lists for the mode.  The lines
before it give the machine fingerprint and every end-to-end metric with
its unit, including those that gate through ``correct`` rather than
through a bound.  End-to-end times are scaled to a reference host speed
by speed probes taken in the pass (worker.py, stats.aggregate); the raw
medians are printed beside them.  Results and spans are kept under
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import copy
import glob
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
from worker import load_pins  # noqa: E402

OUT_DIR = ".perfbench_out"
RUN_LIMIT_S = 170.0  # every invocation must end well within 180 s
REQUIRED = ("src/paramodel/__init__.py", "tests/conftest.py", "tests/golden", "BENCHMARK.json")

SETUP_PASSES = 8  # set-up-only passes per untraced run, for a steadier setup_s

# gain-sweep: dozens of short fig4-shaped runs, one mid-run data event each
SWEEP_RUNS = 24
SWEEP_HORIZON = 6000

# why each workload was chosen, the end-to-end metrics that are printed but
# gate through "correct"/"failed" instead of a bound, and the layer map
LAYERS_JSON = os.path.join(HERE, "layers.json")


def fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        with open(os.path.join(".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="ascii") as fh:
                head = fh.read().strip()
        commit = head
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(glob.glob("src/**/*.py", recursive=True)):
        src.update(path.encode())
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "libc": "-".join(platform.libc_ver()),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def load_package():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from paramodel import config_io

    return config_io, load_pins()


def sweep_configs(config_io, seed: int) -> list[str]:
    """YAML texts of the gain-sweep runs, drawn from the seed alone."""
    import yaml

    rng = random.Random(seed)
    base = config_io.builtin_config_dict("fig4")
    del base["output"]
    texts = []
    for _ in range(SWEEP_RUNS):
        d = copy.deepcopy(base)
        s = d["scenario"]
        s["horizon"] = SWEEP_HORIZON
        s["stagger_rho"] = rng.uniform(0.5, 1.0)
        s["gains"]["kp"] = rng.uniform(0.5, 2.0)
        s["gains"]["ki"] = rng.uniform(0.005, 0.02)
        s["sample"] = {"x": [rng.uniform(0.1, 0.3), rng.uniform(0.4, 0.8)], "y": rng.uniform(0.45, 0.6)}
        at = SWEEP_HORIZON // 2
        if rng.random() < 0.5:
            i = rng.randrange(2)
            value = rng.uniform(0.1, 0.3) if i == 0 else rng.uniform(0.4, 0.8)
            s["events"].append({"at": at, "set_input": {"index": i, "value": value}})
        else:
            s["events"].append({"at": at, "set_reference": rng.uniform(0.45, 0.65)})
        texts.append(yaml.safe_dump(d, sort_keys=False))
    return texts


def run_pass(workload: str, out: str, name: str, mode: str, deadline: float) -> dict:
    """One worker process (see worker.py for the modes); its result, or a
    failed pass if it broke."""
    result_path = os.path.join(out, f"{name}.json")
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, os.path.join(out, "inputs.json")]
    cmd += [result_path, tmp, mode]
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"{name} timed out"], "runs_attempted": 1, "runs_failed": 1}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not os.path.exists(result_path):
        err = proc.stderr.decode(errors="replace")[-2000:]
        return {"errors": [f"{name} exit {proc.returncode}: {err}"], "runs_attempted": 1, "runs_failed": 1}
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paramodel benchmark")
    ap.add_argument("--workload", required=True, choices=("train-figs", "linsolve-trace", "gain-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(f"not the root of a paramodel checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    config_io, pins = load_package()
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    inputs = {
        "track_tol": pins.TRACK_TOL,
        "decimation": pins.GOLDEN_DECIMATION,
        "x_star": list(pins.EQ3_X_STAR),
    }
    if args.workload == "gain-sweep":
        inputs["configs"] = sweep_configs(config_io, args.seed)
    with open(os.path.join(out, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    fp = fingerprint()
    print("fingerprint:", json.dumps(fp))

    passes = []
    setups = []
    traced = None
    if args.trace:
        passes.append(run_pass(args.workload, out, "plain", "first", deadline))
        traced = run_pass(args.workload, out, "traced", "traced", deadline)
    else:
        t0 = time.monotonic()
        setups = [run_pass(args.workload, out, f"setup{i}", "setup", deadline) for i in range(SETUP_PASSES)]
        while True:
            mode = "next" if passes else "first"
            passes.append(run_pass(args.workload, out, f"pass{len(passes)}", mode, deadline))
            elapsed = time.monotonic() - t0
            # stop at the pass count that ends nearest the requested time
            if elapsed + elapsed / len(passes) / 2 >= args.seconds:
                break

    full = passes + ([traced] if traced else [])
    attempted = sum(p["runs_attempted"] for p in full)
    failed = sum(max(p["runs_failed"], 1 if p["errors"] else 0) for p in full)
    failed += sum(1 for p in setups if p["errors"])
    errors = [e for p in setups + full for e in p["errors"]]
    if len({p.get("output_sha256") for p in full}) > 1:
        errors.append("passes of the same inputs wrote different output bytes")
    probes = [c for p in full for c in p.get("probe_ms", ())]
    timed = [p for p in passes if "wall_s" in p]
    setups = [p for p in setups if "setup_s" in p]
    report = {"fingerprint": fp, "workload": args.workload, "seed": args.seed}
    metrics = {}
    if timed:
        agg = stats.aggregate(timed, setups)
        report["end_to_end"] = agg
        print(
            f"passes: {agg['passes']} (+{len(setups)} set-up only)  runs: {agg['attempted']}"
            f"  chunks: {agg['chunk_count']}"
            f"  tail percentile: p{agg['tail_percentile']:.2f}  probe_ms median: {agg['probe_ms']:.4f}"
            f"  raw setup_s: {agg['raw_setup_s']:.6g}"
            f"  raw wall_s: {agg['raw_wall_s']:.6g}  raw iter_us_p50: {agg['raw_iter_us_p50']:.6g}"
        )
        with open(LAYERS_JSON, encoding="utf-8") as fh:
            reported_only = json.load(fh)["reported_only"]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        units.update((name, m["unit"]) for name, m in reported_only.items())
        for name, unit in units.items():
            print(f"  {name:20s} {agg[name]:.6g} {unit}")
        if not args.trace:
            metrics = {m["name"]: {"value": agg[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
    if traced is not None and "layers" in traced and timed:
        layers = dict(traced["layers"])
        plain = timed[0]
        layers["trace.overhead_share"] = (
            stats.scale(traced["wall_s"], stats.mean(traced["probe_ms"]))
            / stats.scale(plain["wall_s"], stats.mean(plain["probe_ms"]))
            - 1.0
        )
        # garbage collection as the untraced pass saw it: the traced pass
        # keeps every record for replay, which makes collections of its own
        layers["runtime.gc_collections"] = plain["gc_collections"]
        layers["runtime.gc_pause_ms"] = plain["gc_pause_ms"]
        layers["machine.calib_ms"] = statistics.median(probes)
        report["per_layer"] = layers
        report["spans"] = traced["spans"]
        for m in bench["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:26s} {layers[m['name']]:.6g} {m['unit']}")
    for e in errors:
        print("error:", e.strip())
    report["errors"] = errors
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    correct = not errors and bool(metrics)
    failed = failed or (0 if correct else 1)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
