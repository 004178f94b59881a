"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD INPUTS.json RESULT.json TMPDIR MODE

run.py starts it from the root of a checkout.  The pass imports
``paramodel`` from ``src/``, runs the workload, measures it, verifies its
outputs and writes one JSON object to RESULT.json.  MODE is one of

    setup   stop at the first iteration: a set-up time and nothing else
    first   the whole workload with every check
    next    the whole workload, without the checks whose outcome is fixed
            by the output bytes; every pass reports a hash of the files it
            wrote, and run.py requires the passes of a run to agree on it
    traced  as first, with the public functions of the coarse layers
            wrapped (see spans.py) and the inner layers timed by replay
            (see replay.py); the spans are written next to the result

Host speed: the shared hosts this runs on switch between a fast and a slow
state (about 1.6x apart) many times a minute, and now and then run other
work for tens of milliseconds.  So the pass runs a short fixed spin (a
speed probe) before and after the workload and every CHUNK // PER_CHUNK
iterations.  Probe time is excluded from every measured time, and each time
is scaled by the probes taken next to it (stats.scale, stats.chunk_times).
Chunks are timed in this thread's CPU time (with probes timed the same
way), so time the host spends elsewhere is not counted per iteration; the
whole-pass times are wall-clock.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import os
import resource
import sys
import traceback
from time import perf_counter, thread_time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import replay  # noqa: E402
import stats  # noqa: E402
from spans import Tracer  # noqa: E402

CHUNK = 1000
PER_CHUNK = 4  # speed probes per chunk
SPIN_N = 2500  # about 0.5 ms: short next to a sub-chunk, long next to the timer
EDGE_PROBES = 20  # probes just before and just after the workload
GOLDEN_DIR = os.path.join("tests", "golden")

# Coarse layers wrapped in a traced pass, as (module, attribute): the
# workload reaches each one through that module attribute.  Each must fire.
WRAPPED = {
    "train-figs": [
        ("trainer", "builtin_scenarios"),
        ("trainer", "train_online"),
        ("config_io", "write_trace"),
    ],
    "linsolve-trace": [
        ("cli", "main"),
        ("config_io", "builtin_config_dict"),
        ("config_io", "config_from_dict"),
        ("linsolve", "solve_linear"),
        ("linsolve", "as_records"),
        ("config_io", "write_trace"),
        ("config_io", "read_trace"),
    ],
    "gain-sweep": [
        ("config_io", "parse_config"),
        ("config_io", "config_from_dict"),
        ("trainer", "train_online"),
        ("config_io", "write_trace"),
    ],
}
MODULES = ("cli", "config_io", "controller", "dynamics", "linsolve", "network", "trainer")


def _spin_step(x: float, i: int) -> tuple[float, int]:
    return x * 0.999 + i * 1e-7, i + 1


def spin() -> tuple[float, float]:
    """(wall ms, CPU ms) of a fixed pure-Python spin of calls, float
    arithmetic and small tuples, as the simulation does: the host's
    current speed."""
    t0, c0 = perf_counter(), thread_time()
    x = 0.0
    for i in range(SPIN_N):
        x, _ = _spin_step(x, i)
    return (perf_counter() - t0) * 1e3, (thread_time() - c0) * 1e3


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_pins():
    """tests/conftest.py, imported by path for its regression pins."""
    spec = importlib.util.spec_from_file_location("conftest", os.path.join("tests", "conftest.py"))
    mod = importlib.util.module_from_spec(spec)
    sys.modules["conftest"] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class SetupDone(Exception):
    """Raised at the first iteration of a set-up-only pass."""


class Pass:
    """Measurements and verdicts of one pass."""

    def __init__(self, pm, inputs, tmp, mode, start_probes):
        self.pm = pm  # the package's modules, looked up by attribute at call time
        self.fns = {m: dict(vars(getattr(pm, m))) for m in MODULES}  # before wrapping
        self.inputs = inputs
        self.tmp = tmp
        self.tracer = Tracer()
        self.setup_only = mode == "setup"
        self.traced = mode == "traced"
        self.first = mode in ("first", "traced")
        self.layer_times = replay.LayerTimes() if self.traced else None
        self.replay_s = 0.0  # replay time inside the measured window
        self.events = 0
        self.problem = None
        self.written: list[str] = []  # output files, hashed into output_sha256
        self.start_probe_ms = [w for w, _ in start_probes]
        self.start_probe_cpu_ms = [c for _, c in start_probes]
        self.probe_ms = list(self.start_probe_ms)
        self.window_probe_s = 0.0  # probe time inside the measured window
        self.measuring = True
        self.chunk_us: list[float] = []  # wall, raw
        self.chunk_cpu_us: list[float] = []  # CPU time, scaled
        self.iterations = 0
        self.sim_s = 0.0
        self.runs: dict[str, dict] = {}
        self.errors: list[str] = []
        self.mismatch_rows = 0
        self.rows_written = 0
        self.bytes_written = 0
        self.gc_pauses: list[float] = []
        self._gc_started = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_pauses.append(perf_counter() - self._gc_started)

    def probe(self) -> tuple[float, float]:
        t0 = perf_counter()
        wall_ms, cpu_ms = spin()
        if self.measuring:
            self.window_probe_s += perf_counter() - t0
        self.probe_ms.append(wall_ms)
        return wall_ms, cpu_ms

    def begin_simulation(self) -> None:
        """Mark the end of set-up; a set-up-only pass stops here."""
        self.t_first = perf_counter()
        if self.setup_only:
            raise SetupDone

    def orig(self, module: str, attr: str):
        return self.fns[module][attr]

    def fail(self, run: str, why: str) -> None:
        self.errors.append(f"{run}: {why}")
        r = self.runs.setdefault(run, {"settled": False, "settle_max": 0})
        r["failed"] = True

    def finish(self) -> None:
        """End of the measured workload; verification follows."""
        self.t_end = perf_counter()
        self.rss_mb = rss_mb()
        self.measuring = False
        gc.callbacks.remove(self._on_gc)
        for _ in range(EDGE_PROBES):
            self.probe()


class Consumed:
    __slots__ = ("violations", "rows", "w_abs_max", "records", "path")


def consume(p: Pass, records, tol: float, decimation: int) -> Consumed:
    """The library caller: band check and |w| on every record, decimated
    rows kept, a speed probe every CHUNK // PER_CHUNK iterations."""
    violations = []
    rows = []
    full = [] if p.traced else None  # every record, for replay
    hi = 0.0
    probe_every = CHUNK // PER_CHUNK
    probes = [p.probe()]
    ends, ends_cpu = [], []
    resumed, resumed_cpu = [perf_counter()], [thread_time()]
    for rec in records:
        if abs(rec.y - rec.y_ref) >= tol:
            violations.append(rec.k)
        m = max(max(rec.w), -min(rec.w))
        if m > hi:
            hi = m
        if rec.k % decimation == 0:
            rows.append(rec)
        if rec.k % probe_every == 0:
            ends.append(perf_counter())
            ends_cpu.append(thread_time())
            probes.append(p.probe())
            resumed.append(perf_counter())
            resumed_cpu.append(thread_time())
        if full is not None:
            full.append(rec)
    t_end = perf_counter()
    p.sim_s += t_end - resumed[0] - sum(r - e for e, r in zip(ends, resumed[1:]))
    wall_probes, cpu_probes = zip(*probes)
    p.chunk_us += stats.chunk_times(resumed, ends, wall_probes, CHUNK, PER_CHUNK)[0]
    p.chunk_cpu_us += stats.chunk_times(resumed_cpu, ends_cpu, cpu_probes, CHUNK, PER_CHUNK)[1]
    out = Consumed()
    out.violations, out.rows, out.w_abs_max, out.records = violations, rows, hi, full
    return out


def run_train(p: Pass, name: str, scenario, tol: float, decimation: int):
    """One train_online run through the consumer, then write_trace."""
    p.tracer.run = name
    try:
        c = consume(p, p.pm.trainer.train_online(scenario), tol, decimation)
    except Exception as err:  # a run that raises is a failed run
        p.fail(name, f"{type(err).__name__}: {err}")
        return None
    p.iterations += scenario.horizon
    c.path = os.path.join(p.tmp, f"{name}.csv")
    p.pm.config_io.write_trace(c.rows, c.path, decimation)
    p.written.append(c.path)
    starts = [1] + [e.at for e in scenario.events if e.at > 0]
    segs = stats.segment_settling(starts, scenario.horizon, c.violations)
    p.runs[name] = {
        "failed": False,
        "settled": all(ok for _, _, ok in segs),
        "settle_max": max(n for _, n, _ in segs),
    }
    if c.w_abs_max > scenario.w_max:
        p.fail(name, f"|w| reached {c.w_abs_max} > w_max {scenario.w_max}")
    if p.traced:
        # replayed run by run to bound memory; the time is taken off the wall
        t0 = perf_counter()
        replay.replay_train(p.pm, scenario, c.records, p.layer_times)
        p.replay_s += perf_counter() - t0
        p.events += len(scenario.events)
    c.records = None
    return c


# -- workloads ---------------------------------------------------------------


def train_figs(p: Pass):
    scenarios = p.pm.trainer.builtin_scenarios()
    p.begin_simulation()
    tol, dec = p.inputs["track_tol"], p.inputs["decimation"]
    done = {name: run_train(p, name, s, tol, dec) for name, s in scenarios.items()}
    p.finish()

    pins = load_pins()
    for name, c in done.items():
        if c is None:
            continue
        s = scenarios[name]
        if pins.settled_from(c.violations, s.horizon) is None:
            p.fail(name, "never settled in the tolerance band")
        for at, settle in pins.event_resettled_within(s, c.violations):
            if settle > pins.SETTLE_BUDGET:
                p.fail(name, f"event at {at} re-settled after {settle} > {pins.SETTLE_BUDGET}")
        golden = read(os.path.join(GOLDEN_DIR, f"{name}_trace.csv")).decode("ascii")
        p.mismatch_rows += stats.mismatch_rows(read(c.path).decode("ascii"), golden)


def gain_sweep(p: Pass):
    configs = [p.pm.config_io.parse_config(text) for text in p.inputs["configs"]]
    p.begin_simulation()
    done = [
        run_train(p, f"sweep{i}", cfg.scenario, cfg.tolerance, cfg.decimation)
        for i, cfg in enumerate(configs)
    ]
    p.finish()

    # determinism: the first config run again must write the same bytes
    cfg, c = configs[0], done[0]
    if c is not None:
        again = os.path.join(p.tmp, "sweep0-again.csv")
        rows = [r for r in p.orig("trainer", "train_online")(cfg.scenario) if r.k % cfg.decimation == 0]
        p.orig("config_io", "write_trace")(rows, again, cfg.decimation)
        if read(c.path) != read(again):
            p.fail("sweep0", "a second run of the same config wrote different bytes")


def linsolve_trace(p: Pass):
    out = os.path.join(p.tmp, "linsolve3_trace.csv")
    p.tracer.run = "linsolve3"
    rc = p.pm.cli.main(["run", "--builtin", "linsolve3", "--decimate", "1", "--out", out])
    after_solve = stats.mean([p.probe()[1] for _ in range(EDGE_PROBES)])
    records = p.pm.config_io.read_trace(out)
    p.finish()
    p.written.append(out)

    build = p.orig("config_io", "builtin_config_dict")
    prob = p.orig("config_io", "config_from_dict")(build("linsolve3")).problem
    p.iterations = prob.horizon
    # solve_linear returns whole lists: one sample per solve, scaled by the
    # probes on either side of cli.main
    p.chunk_us = [p.sim_s * 1e6 / prob.horizon]
    cpu_us = p.sim_cpu_s * 1e6 / prob.horizon
    p.chunk_cpu_us = [stats.scale(cpu_us, (stats.mean(p.start_probe_cpu_ms) + after_solve) / 2)]
    tol, b = p.inputs["track_tol"], prob.b
    violations = [r.k for r in records if max(abs(r.y[j] - b[j]) for j in range(len(b))) >= tol]
    segs = stats.segment_settling([1], prob.horizon, violations)
    p.runs["linsolve3"] = {"failed": False, "settled": segs[0][2], "settle_max": segs[0][1]}
    if rc != 0:
        p.fail("linsolve3", f"cli exit code {rc}")
    if len(records) != prob.horizon:
        p.fail("linsolve3", f"{len(records)} rows read back, expected {prob.horizon}")
        return
    x, x_star = records[-1].x, p.inputs["x_star"]
    if not all(abs(g - w) < tol for g, w in zip(x, x_star)):
        p.fail("linsolve3", f"x = {x} not within {tol} of {x_star}")
    write = p.orig("config_io", "write_trace")
    if p.first:
        again = os.path.join(p.tmp, "linsolve3-again.csv")
        write(records, again, 1)
        if read(out) != read(again):
            p.fail("linsolve3", "the full-resolution CSV does not read back bit-exactly")
    dec = p.inputs["decimation"]
    dec_path = os.path.join(p.tmp, "linsolve3-dec.csv")
    write([r for r in records if r.k % dec == 0], dec_path, dec)
    golden = read(os.path.join(GOLDEN_DIR, "linsolve3_trace.csv")).decode("ascii")
    p.mismatch_rows += stats.mismatch_rows(read(dec_path).decode("ascii"), golden)
    if p.traced:
        replay.replay_linsolve(p.pm, prob, records, p.layer_times)
        p.problem = prob


WORKLOADS = {"train-figs": train_figs, "linsolve-trace": linsolve_trace, "gain-sweep": gain_sweep}


# -- per-layer metrics of a traced pass --------------------------------------


def layer_metrics(p: Pass) -> dict:
    tracer = p.tracer
    lt = p.layer_times
    bad = {k: v for k, v in lt.mismatches.items() if v}
    if bad:
        p.errors.append(f"replay does not reproduce the recorded outputs: {bad}")

    m = {
        "controller.step_ns": lt.ns("controller"),
        "controller.calls": lt.calls.get("controller", 0),
        "dynamics.step_ns": lt.ns("dynamics"),
        "dynamics.calls": lt.calls.get("dynamics", 0),
        "network.eval_ns": lt.ns("network"),
        "network.calls": lt.calls.get("network", 0),
        "replay.timer_ns": lt.timer_ns,
        "trainer.record_ns": lt.ns("record"),
        "trainer.next_us": 0.0,
        "trainer.self_us": 0.0,
        "trainer.events": 0,
    }
    if tracer.next_s:
        iters = len(tracer.next_s)
        next_us = stats.median(tracer.next_s) * 1e6
        child_ns = sum(lt.calls.get(k, 0) * lt.ns(k) for k in ("controller", "dynamics", "network"))
        m["trainer.next_us"] = next_us
        m["trainer.self_us"] = next_us - child_ns / iters / 1e3  # an estimate
        m["trainer.events"] = p.events

    solve = tracer.durations("linsolve.solve_linear")
    m["linsolve.solve_s"] = sum(solve)
    m["linsolve.iter_us"] = sum(solve) * 1e6 / p.iterations if solve else 0.0
    m["linsolve.matvec_ns"] = lt.ns("matvec")
    m["linsolve.as_records_s"] = sum(tracer.durations("linsolve.as_records"))
    m["linsolve.alloc_peak_mb"] = 0.0
    if solve:
        import tracemalloc

        prob = p.problem
        tracemalloc.start()
        x_trace, y_trace = p.orig("linsolve", "solve_linear")(prob)
        recs = p.orig("linsolve", "as_records")(prob, x_trace, y_trace)
        m["linsolve.alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        del x_trace, y_trace, recs

    parse = tracer.durations("config_io.parse_config")
    m["config_io.parse_ms"] = stats.median(parse) * 1e3 if parse else 0.0
    build = tracer.durations("config_io.builtin_config_dict")
    if build:  # the CLI's own config construction; parse_config's is in parse_ms
        build += tracer.durations("config_io.config_from_dict")
    m["config_io.build_ms"] = sum(build) * 1e3
    write_s = sum(tracer.durations("config_io.write_trace"))
    m["config_io.write_s"] = write_s
    m["config_io.rows_written"] = p.rows_written
    m["config_io.bytes_written"] = p.bytes_written
    m["config_io.write_ns_per_row"] = write_s * 1e9 / p.rows_written if p.rows_written else 0.0
    read_s = sum(tracer.durations("config_io.read_trace"))
    m["config_io.read_s"] = read_s
    m["config_io.read_ns_per_row"] = read_s * 1e9 / p.iterations if read_s else 0.0

    main_s = tracer.durations("cli.main")
    m["cli.main_s"] = sum(main_s)
    m["cli.self_s"] = tracer.self_time("cli.main") if main_s else 0.0
    return m


# -- entry -------------------------------------------------------------------


def main(argv) -> int:
    workload, inputs_path, result_path, tmp, mode = argv
    traced = mode == "traced"
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    start_probes = [spin() for _ in range(EDGE_PROBES)]

    t_start = perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import paramodel  # noqa: F401
    from paramodel import cli, config_io, controller, dynamics, linsolve, network, trainer

    import_s = perf_counter() - t_start

    class pm:
        pass

    for mod in (cli, config_io, controller, dynamics, linsolve, network, trainer):
        setattr(pm, mod.__name__.rsplit(".", 1)[1], mod)
    p = Pass(pm, inputs, tmp, mode, start_probes)
    tracer = p.tracer

    if traced:
        for module, attr in WRAPPED[workload]:
            tracer.wrap(getattr(pm, module), attr, f"{module}.{attr}")
        traced_write = config_io.write_trace

        def write_and_count(records, path, decimation=1):
            traced_write(records, path, decimation)
            p.rows_written += sum(1 for r in records if r.k % decimation == 0)
            p.bytes_written += os.path.getsize(path)

        config_io.write_trace = write_and_count
    # the set-up/simulation boundary inside the CLI
    traced_solve = linsolve.solve_linear

    def solve_boundary(problem):
        p.begin_simulation()
        c0 = thread_time()
        out = traced_solve(problem)
        p.sim_s = perf_counter() - p.t_first
        p.sim_cpu_s = thread_time() - c0
        return out

    linsolve.solve_linear = solve_boundary

    try:
        WORKLOADS[workload](p)
    except SetupDone:
        pass
    except Exception:
        p.errors.append(traceback.format_exc())
        p.runs.setdefault("pass", {"settled": False, "settle_max": 0})["failed"] = True
    if p._on_gc in gc.callbacks:
        gc.callbacks.remove(p._on_gc)
    linsolve.solve_linear = traced_solve
    if traced:
        config_io.write_trace = traced_write
    tracer.unwrap_all()

    if p.setup_only:
        result = {"setup_s": p.t_first - t_start, "start_probe_ms": p.start_probe_ms, "errors": p.errors}
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    result = {"workload": workload, "traced": traced, "import_s": import_s, "errors": p.errors}
    if hasattr(p, "t_first") and hasattr(p, "t_end") and p.sim_s > 0:
        wall_end = p.t_end - p.window_probe_s - p.replay_s  # as if neither had run
        result.update(stats.split_phases(t_start, p.t_first, wall_end, import_s, p.sim_s))
        result.update(
            iterations=p.iterations,
            chunk_us=p.chunk_us,
            chunk_cpu_us=p.chunk_cpu_us,
            start_probe_ms=p.start_probe_ms,
            probe_ms=p.probe_ms,
            rss_mb=p.rss_mb,
            mismatch_rows=p.mismatch_rows,
            gc_collections=len(p.gc_pauses),
            gc_pause_ms=sum(p.gc_pauses) * 1e3,
        )
    digest = hashlib.sha256()
    for path in p.written:
        digest.update(read(path))
    result["output_sha256"] = digest.hexdigest()
    runs = p.runs.values()
    result.update(
        runs_attempted=len(runs),
        runs_failed=sum(1 for r in runs if r["failed"]),
        runs_settled=sum(1 for r in runs if r["settled"]),
        settle_iters_max=max((r["settle_max"] for r in runs), default=0),
    )
    if traced and not p.errors:
        missing = tracer.missing(f"{m}.{a}" for m, a in WRAPPED[workload])
        if missing:
            p.errors.append(f"expected spans never fired: {missing}")
        layers = layer_metrics(p)
        layers["setup.import_s"] = import_s
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        tracer.dump(result_path[: -len(".json")] + "-spans.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
