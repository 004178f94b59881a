"""Tests of the benchmark's own aggregation, on synthetic inputs.

    python3 -m pytest perfbench/test_stats.py
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    xs = list(range(1, 201))  # 1..200
    value, pct, n = stats.tail(xs)
    assert n == 200
    assert value == 190  # 191..200 lie beyond it
    assert sum(1 for x in xs if x > value) == 10
    assert pct == pytest.approx(100 * 189 / 199)


def test_tail_ignores_input_order():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert stats.tail(xs) == stats.tail(sorted(xs))


def test_tail_of_a_small_sample_is_no_higher_than_it_supports():
    # 21 samples: the 11th largest is the median
    assert stats.tail(range(21)) == (10, 50.0, 21)
    # ten or fewer: no sample has ten beyond it, so the minimum at p0
    assert stats.tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 3)
    assert stats.tail([7.0]) == (7.0, 0.0, 1)
    with pytest.raises(ValueError):
        stats.tail([])


def test_chunking_counts_full_chunks_only():
    ref = stats.PROBE_REF_MS
    # chunks of 2 sub-chunks of 500 iterations; the gaps between sub-chunks
    # are probes, and the fifth sub-chunk makes only a partial chunk
    starts = [10.0, 10.5, 11.75, 12.0, 13.0]
    ends = [10.25, 11.5, 11.875, 12.5, 13.5]
    probes = [ref, ref, 2 * ref, 2 * ref, ref, ref]
    raw, scaled = stats.chunk_times(starts, ends, probes, chunk_len=1000, per_chunk=2)
    assert raw == [1250.0, 625.0]
    # sub-chunk 1 ran between probes at ref and 2*ref, sub-chunks 2 and 3 at
    # 2*ref and between 2*ref and ref: each is scaled by its own probes
    assert scaled == [pytest.approx(250.0 + 1000.0 / 1.5), pytest.approx(62.5 + 500.0 / 1.5)]
    assert stats.chunk_times([10.0], [], [ref], 1000, 4) == ([], [])


def test_scale_to_reference_speed():
    ref = stats.PROBE_REF_MS
    assert stats.scale(10.0, ref) == 10.0
    assert stats.scale(10.0, 2 * ref) == 5.0  # measured on a host at half speed


def test_setup_wall_split():
    ph = stats.split_phases(t_start=100.0, t_first=100.25, t_end=103.0, import_s=0.125, sim_s=2.5)
    assert ph == {"setup_s": 0.25, "import_s": 0.125, "sim_s": 2.5, "wall_s": 3.0}


@pytest.mark.parametrize(
    "marks",
    [
        dict(t_start=1.0, t_first=0.5, t_end=2.0, import_s=0.0, sim_s=0.5),  # out of order
        dict(t_start=0.0, t_first=0.1, t_end=2.0, import_s=0.2, sim_s=0.5),  # import > setup
        dict(t_start=0.0, t_first=1.0, t_end=2.0, import_s=0.1, sim_s=1.5),  # sim > post-setup
        dict(t_start=0.0, t_first=1.0, t_end=2.0, import_s=0.1, sim_s=0.0),  # nothing simulated
    ],
)
def test_setup_wall_split_rejects_inconsistent_marks(marks):
    with pytest.raises(ValueError):
        stats.split_phases(**marks)


GOLDEN = "k,y\n100,0.5\n200,0.25\n300,0.125\n"


def test_mismatch_counter():
    assert stats.mismatch_rows(GOLDEN, GOLDEN) == 0
    one_ulp = GOLDEN.replace("0.25", "0.25000000000000006")
    assert stats.mismatch_rows(one_ulp, GOLDEN) == 1
    assert stats.mismatch_rows(GOLDEN + "400,0.0625\n", GOLDEN) == 1
    assert stats.mismatch_rows("k,y\n100,0.5\n", GOLDEN) == 2
    assert stats.mismatch_rows(GOLDEN.replace("k,y", "k,t"), GOLDEN) == 3


def test_segment_settling():
    # band violated at 1..9 and again at 50..54 after an event at 50
    violations = list(range(1, 10)) + list(range(50, 55))
    segs = stats.segment_settling([1, 50], 100, violations)
    assert segs == [(1, 9, True), (50, 5, True)]
    # a violation at the last iteration: the segment never settled
    segs = stats.segment_settling([1], 100, [3, 100])
    assert segs == [(1, 100, False)]


def _pass(**kw):
    ref = stats.PROBE_REF_MS
    base = dict(
        setup_s=0.1,
        wall_s=2.0,
        iterations=1000,
        sim_s=1.0,
        chunk_us=[10.0] * 11,
        rss_mb=30.0,
        runs_attempted=4,
        runs_failed=0,
        runs_settled=4,
        mismatch_rows=3,
        settle_iters_max=100,
        start_probe_ms=[ref],
        probe_ms=[ref, ref],
    )
    base.update(kw)
    base.setdefault("chunk_cpu_us", base["chunk_us"])
    return base


def test_aggregate_takes_medians_and_pools_chunks():
    passes = [
        _pass(setup_s=0.1, wall_s=3.0, sim_s=2.0, chunk_us=[1.0] * 40),
        _pass(setup_s=0.3, wall_s=1.0, sim_s=0.5, chunk_us=[2.0] * 40),
        _pass(setup_s=0.2, wall_s=2.0, sim_s=1.0, chunk_us=[3.0] * 40, runs_settled=2),
    ]
    agg = stats.aggregate(passes)
    assert agg["setup_s"] == 0.2
    assert agg["wall_s"] == 2.0
    assert agg["iters_per_s"] == 1000.0
    assert agg["iter_us_p50"] == 2.0
    assert agg["chunk_count"] == 120
    assert agg["tail_percentile"] == pytest.approx(100 * 109 / 119)
    assert agg["iter_us_tail"] == 3.0
    assert agg["failed_share"] == 0.0
    assert agg["settled_share"] == 10 / 12
    assert agg["trace_mismatch_rows"] == 3


def test_aggregate_scales_pass_times_by_the_probes_of_the_pass():
    ref = stats.PROBE_REF_MS
    p = _pass(
        setup_s=0.4,
        start_probe_ms=[2 * ref],  # half speed during set-up
        wall_s=3.0,
        sim_s=1.5,
        probe_ms=[2 * ref, ref, ref, 2 * ref],  # 2/3 speed on average
        chunk_us=[20.0, 10.0],
        chunk_cpu_us=[10.0, 10.0],  # scaled in the pass, as chunk_times does
    )
    agg = stats.aggregate([p])
    assert agg["setup_s"] == 0.2
    assert agg["wall_s"] == pytest.approx(2.0)
    assert agg["iters_per_s"] == pytest.approx(1000.0)
    assert agg["iter_us_p50"] == 10.0
    assert agg["raw_wall_s"] == 3.0
    assert agg["peak_rss_mb"] == 30.0  # memory is not scaled


def test_aggregate_pools_set_up_only_passes_into_setup():
    ref = stats.PROBE_REF_MS
    setups = [{"setup_s": v, "start_probe_ms": [ref]} for v in (0.5, 0.6, 0.7)]
    agg = stats.aggregate([_pass(setup_s=0.1), _pass(setup_s=0.2)], setups)
    assert agg["setup_s"] == 0.5
    assert agg["passes"] == 2  # set-up-only passes add no other samples
