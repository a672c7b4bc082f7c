"""Tests for the benchmark's own arithmetic and instrumentation.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.injection import FaultSpec, InjectionPoint, Outcome, PointResult  # noqa: E402
from repro.injection import TestResult as Result  # noqa: E402


# -- the _tail rule --------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct", [(1, 50.0), (11, 50.0), (20, 50.0), (21, 1100 / 21), (100, 90.0), (1000, 99.0)]
)
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert ledger.tail_percentile(n) == pytest.approx(pct)


def test_tail_is_the_sample_with_exactly_ten_beyond():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    p50, tail, n = ledger.p50_tail(values)
    assert (p50, n) == (50.5, 100)
    assert tail == 90
    assert sum(v > tail for v in values) == 10


def test_tail_falls_back_to_the_median_below_twenty_one_samples():
    assert ledger.p50_tail([3.0, 1.0, 2.0]) == (2.0, 2.0, 3)
    assert ledger.p50_tail(range(20)) == (9.5, 9.5, 20)
    assert ledger.p50_tail(range(21)) == (10, 10, 21)
    assert ledger.p50_tail([]) == (0.0, 0.0, 0)


def test_iqr_frac_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.7]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert ledger.iqr_frac(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert ledger.iqr_frac([5.0]) == 0.0


# -- self time ---------------------------------------------------------------


def _span(name, start, end, parent=-1):
    s = ledger.Span(name, start, parent)
    s.end = end
    return s


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("grandchild", 1.5, 2.0, parent=1),
        _span("b", 5.0, 7.5, parent=0),
    ]
    assert ledger.self_times(spans) == pytest.approx([10.0 - 3.0 - 2.5, 3.0 - 0.5, 0.5, 2.5])


def test_layer_metrics_split_simulation_from_fork_child_run_and_reap():
    spans = [
        _span("phase.inject", 0.0, 10.0),
        _span("snapshot.serve", 0.0, 9.0, parent=0),
        _span("simmpi.run", 1.0, 8.0, parent=1),
        _span("snapshot.fork", 2.0, 3.0, parent=2),
        _span("snapshot.child_run", 3.0, 6.0, parent=2),
        _span("snapshot.reap_wait", 6.0, 7.0, parent=2),
    ]
    spans[1].attrs["tasks"] = 2
    spans[2].attrs["steps"] = 500
    m = ledger.layer_metrics(spans, rounds=2)
    assert m["simmpi.run_s"] == pytest.approx(2.0 / 2)
    assert m["snapshot.prefix_s"] == pytest.approx(2.0 / 2)
    assert m["snapshot.child_run_s"] == pytest.approx(3.0 / 2)
    assert m["snapshot.reap_wait_s"] == pytest.approx(1.0 / 2)
    assert m["snapshot.served_frac"] == pytest.approx(0.5)
    assert m["simmpi.us_per_step"] == pytest.approx(2.0 / 500 * 1e6)
    # Fork + reap + simulation self time; then with the child's run too.
    assert m["trace.accounted_frac"] == pytest.approx((1.0 + 1.0 + 2.0) / 10.0)
    assert m["trace.accounted_child_frac"] == pytest.approx((1.0 + 3.0 + 1.0 + 2.0) / 10.0)


def test_round_points_visit_the_same_points_whatever_the_seed():
    points = list(range(7))
    blocks = [workloads.round_points(points, 3, r) for r in range(7)]
    assert all(len(set(b)) == 3 for b in blocks)
    # Consecutive blocks of one fixed order, wrapping around: seven
    # rounds of three visit every point exactly three times.
    visits = [p for b in blocks for p in b]
    assert sorted(visits) == sorted(points * 3)
    assert workloads.round_points(points, 3, 1) == blocks[1]
    assert workloads.round_points(points, 9, 0) == workloads.round_points(points, 7, 0)


def test_end_to_end_metrics_are_taken_over_the_whole_run():
    rounds = [
        workloads.Round(seed=0, setup_s=1.0, setup_extra=[3.0, 2.0], wall_s=2.0,
                        inject_s=1.0, cpu_s=1.0, tests=10, peak_rss_mb=5.0),
        workloads.Round(seed=1, setup_s=9.0, wall_s=3.0,
                        inject_s=2.0, cpu_s=1.0, tests=10, peak_rss_mb=7.0),
        workloads.Round(seed=2, setup_s=4.0, setup_extra=[5.0, 6.0, 9.0], wall_s=7.0,
                        inject_s=7.0, cpu_s=8.0, tests=20, peak_rss_mb=6.0),
    ]
    values, series = run.end_to_end(rounds)
    assert series["setup_s"] == [2.0, 9.0, 6.0]
    assert series["tests_per_s"] == [10.0, 5.0, 20.0 / 7.0]
    # Means and ratios of sums, not medians of the per-round values.
    assert values["setup_s"] == pytest.approx(39.0 / 8)
    assert values["wall_s"] == pytest.approx(4.0)
    assert values["tests_per_s"] == pytest.approx(40.0 / 10.0)
    assert values["cpu_ms_per_test"] == pytest.approx(10.0 * 1e3 / 40)
    assert values["peak_rss_mb"] == 6.0


# -- failures counted against attempts -----------------------------------------


def _results(outcomes):
    point = InjectionPoint(0, "MPI_Bcast", "app.py:1", 0)
    return PointResult(
        point, [Result(FaultSpec(point, "count", 0), o, None) for o in outcomes]
    )


def test_failed_counts_tool_errors_against_every_attempted_test():
    rnd = workloads.Round(seed=0)
    workloads.tally(rnd, [
        _results([Outcome.SUCCESS, Outcome.TOOL_ERROR, Outcome.INF_LOOP]),
        _results([Outcome.TOOL_ERROR, Outcome.WRONG_ANS]),
    ])
    other = workloads.Round(seed=1, tests=5, failed=0)
    assert (rnd.tests, rnd.failed) == (5, 2)
    assert run.totals([rnd, other]) == (10, 2)


# -- the wrappers ----------------------------------------------------------------


def test_wrappers_restore_every_patched_attribute():
    rec = ledger.SpanRecorder()
    ledger.install_probes(rec)
    patched = rec.patched
    assert len(patched) >= 20
    for owner, attr, original in patched:
        assert vars(owner)[attr] is not original
    rec.restore()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    assert rec.patched == []


def test_wrapper_records_a_span_and_passes_results_and_errors_through():
    class Owner:
        @staticmethod
        def double(x):
            if x < 0:
                raise ValueError(x)
            return 2 * x

    rec = ledger.SpanRecorder()
    rec.wrap(Owner, "double", "layer.double", lambda a, k: lambda r: {"arg": a[0], "result": r})
    assert isinstance(vars(Owner)["double"], staticmethod)
    with rec.span("outer"):
        assert Owner.double(4) == 8
        with pytest.raises(ValueError):
            Owner.double(-1)
    rec.restore()
    names = [(s.name, s.parent, s.attrs) for s in rec.spans]
    assert names == [
        ("outer", -1, {}),
        ("layer.double", 0, {"arg": 4, "result": 8}),
        ("layer.double", 0, {"arg": -1, "result": None}),
    ]
    assert all(s.end >= s.start for s in rec.spans)


def test_every_declared_per_layer_metric_is_produced():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set(ledger.layer_metrics([], rounds=1)) | set(workloads.ROUND_LAYERS)
    produced |= {"simmpi.golden_ms", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


# -- hygiene -------------------------------------------------------------------


def test_hygiene_reports_a_leaked_descriptor_and_a_zombie():
    fds, kids = run.open_fds(), run.children()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    try:
        deadline = time.monotonic() + 10.0
        while run.children().get(pid) != "Z" and time.monotonic() < deadline:
            time.sleep(0.01)
        problems = run.hygiene_problems(fds, kids)
        assert any("descriptor" in p for p in problems)
        assert any(f"child {pid} left a zombie" == p for p in problems)
    finally:
        os.close(r)
        os.close(w)
        os.waitpid(pid, 0)
    assert run.hygiene_problems(fds, kids) == []
