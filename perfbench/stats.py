"""Aggregation of benchmark samples into the reported metrics.

Pure functions over plain numbers, so the rules that turn timings into
metrics (the tail percentile, chunking, the setup/wall split, the golden
row comparison, the settling segments) can be tested on synthetic inputs.
"""

from __future__ import annotations

import statistics

#: a tail percentile must have at least this many samples beyond it
TAIL_MIN_BEYOND = 10

#: Speed-probe time (ms) that defines the reference host speed.  Times are
#: reported at this speed: raw time * PROBE_REF_MS / (probe time measured
#: next to it), so a host that switches speed moves them far less.
PROBE_REF_MS = 0.5


def median(values):
    return statistics.median(values)


def mean(values):
    return statistics.fmean(values)


def scale(value: float, probe_ms: float) -> float:
    """A time measured while the speed probe took ``probe_ms``, expressed at
    the reference speed."""
    return value * PROBE_REF_MS / probe_ms


def tail(samples, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest order statistic that
    has at least ``min_beyond`` samples above it.

    With n sorted samples that is the (min_beyond + 1)-th largest, at
    percentile 100 * (n - 1 - min_beyond) / (n - 1).  A small sample has no
    high percentile: with 21 samples the tail is the median, and with
    ``min_beyond`` or fewer it is the minimum, at percentile 0.  The count
    is returned so that it can be stated next to the value.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = max(n - 1 - min_beyond, 0)
    return xs[rank], 100.0 * rank / (n - 1) if n > 1 else 0.0, n


def chunk_times(starts, ends, probes, chunk_len: int, per_chunk: int) -> tuple[list, list]:
    """(raw, scaled) microseconds per iteration of each full chunk.

    The consumer runs a speed probe every ``chunk_len // per_chunk``
    iterations.  Sub-chunk j runs from ``starts[j]`` (the first iteration,
    or the end of the probe before it) to ``ends[j]``, and ``probes[j]`` and
    ``probes[j + 1]`` were taken on either side of it.  A chunk is
    ``per_chunk`` consecutive sub-chunks; its scaled time sums its
    sub-chunks' times, each scaled by the mean of its two probes.  Probe
    time is not counted, nor is a partial last chunk.
    """
    sub_raw = [e - s for s, e in zip(starts, ends)]
    sub_scaled = [scale(d, (a + b) / 2) for d, a, b in zip(sub_raw, probes, probes[1:])]
    full = len(sub_raw) // per_chunk * per_chunk

    def per_iter(subs):
        return [sum(subs[i : i + per_chunk]) * 1e6 / chunk_len for i in range(0, full, per_chunk)]

    return per_iter(sub_raw), per_iter(sub_scaled)


def split_phases(t_start, t_first, t_end, import_s, sim_s) -> dict:
    """Split one pass into set-up, simulation and wall time.

    ``t_start`` is taken before the package import and ``t_first`` just
    before the first iteration, so set-up includes the import.  ``sim_s``
    is the time spent inside the iteration loops, which may be interleaved
    with output and so is summed by the caller.
    """
    if not t_start <= t_first <= t_end:
        raise ValueError("phase marks out of order")
    if not 0.0 <= import_s <= t_first - t_start:
        raise ValueError("import time exceeds the set-up phase")
    if not 0.0 < sim_s <= t_end - t_first:
        raise ValueError("simulation time outside the post-set-up phase")
    return {
        "setup_s": t_first - t_start,
        "import_s": import_s,
        "sim_s": sim_s,
        "wall_s": t_end - t_start,
    }


def mismatch_rows(text: str, golden: str) -> int:
    """Data rows (after the header) that differ from the golden bytes.

    A row present in one text only counts as a mismatch; a differing
    header counts as every row mismatching.
    """
    got = text.splitlines()
    want = golden.splitlines()
    rows = max(len(got), len(want)) - 1
    if not got or not want or got[0] != want[0]:
        return max(rows, 0)
    return sum(1 for a, b in zip(got[1:], want[1:]) if a != b) + abs(len(got) - len(want))


def segment_settling(starts, horizon: int, violations) -> list[tuple[int, int, bool]]:
    """(segment start, iterations to (re-)enter the band, settled) per segment.

    Segments run from each start (iteration 1 and every event iteration) to
    the next start or the end of the run; a segment is settled when the
    band holds from some iteration through the segment's end.
    """
    starts = sorted(set(starts))
    bounds = starts[1:] + [horizon + 1]
    out = []
    for k0, k1 in zip(starts, bounds):
        seg = [v for v in violations if k0 <= v < k1]
        settled_at = seg[-1] + 1 if seg else k0
        out.append((k0, settled_at - k0, settled_at < k1))
    return out


def aggregate(passes: list[dict], setups: list[dict] = ()) -> dict:
    """Per-run end-to-end metrics from the results of untraced passes and of
    set-up-only passes, which add set-up samples.

    Times are scaled to the reference speed by the probes taken next to
    them: set-up by the probes just before it, chunks (in CPU time, already
    scaled by the pass, see chunk_times) by the probes inside and around
    them, and whole-pass times by the mean of every probe in the pass.  The
    unscaled medians are kept under ``raw_*``.
    """
    chunk = [v for p in passes for v in p["chunk_cpu_us"]]
    setup = [scale(p["setup_s"], mean(p["start_probe_ms"])) for p in [*passes, *setups]]
    wall = [scale(p["wall_s"], mean(p["probe_ms"])) for p in passes]
    sim = [scale(p["sim_s"], mean(p["probe_ms"])) for p in passes]
    tail_value, tail_pct, tail_n = tail(chunk)
    attempted = sum(p["runs_attempted"] for p in passes)
    return {
        "setup_s": median(setup),
        "wall_s": median(wall),
        "iters_per_s": median([p["iterations"] / s for p, s in zip(passes, sim)]),
        "iter_us_p50": median(chunk),
        "iter_us_tail": tail_value,
        "peak_rss_mb": median([p["rss_mb"] for p in passes]),
        "failed_share": sum(p["runs_failed"] for p in passes) / attempted,
        "trace_mismatch_rows": max(p["mismatch_rows"] for p in passes),
        "settled_share": sum(p["runs_settled"] for p in passes) / attempted,
        "settle_iters_max": max(p["settle_iters_max"] for p in passes),
        "raw_setup_s": median([p["setup_s"] for p in [*passes, *setups]]),
        "raw_wall_s": median([p["wall_s"] for p in passes]),
        "raw_iter_us_p50": median([v for p in passes for v in p["chunk_us"]]),
        "probe_ms": median([v for p in passes for v in p["probe_ms"]]),
        "tail_percentile": tail_pct,
        "chunk_count": tail_n,
        "passes": len(passes),
        "attempted": attempted,
    }
