"""Harness-fault containment: TOOL_ERROR classification and alloc caps.

The robustness contract of :meth:`InjectionRunner.run_one`: a crash of
the *harness* (not the simulated application) is classified as
``TOOL_ERROR`` with forensic detail instead of aborting the campaign,
and the simmpi allocation cap turns a corrupted size reaching
application allocation code into the deterministic simulated-segfault
path.
"""

from typing import Any, Generator

import pytest

from repro.apps.base import Application
from repro.injection import Campaign, Outcome, enumerate_points
from repro.injection.outcome import OUTCOME_ORDER
from repro.injection.runner import InjectionRunner
from repro.injection.space import FaultSpec
from repro.obs.forensics import harness_failure_detail
from repro.profiling.profiler import profile_application
from repro.simmpi.memory import DEFAULT_ARENA_SIZE


def _rng(seed=0):
    import numpy as np

    return np.random.default_rng(seed)


class EchoApp(Application):
    """Minimal two-collective workload for containment tests."""

    name = "echo"
    rtol = 0.0

    @classmethod
    def class_params(cls, problem_class: str) -> dict[str, Any]:
        return dict(nranks=2, n=4)

    def main(self, ctx) -> Generator:
        n = self.params["n"]
        ctx.set_phase("input")
        a = ctx.alloc(n, ctx.LONG, "echo.a")
        b = ctx.alloc(n, ctx.LONG, "echo.b")
        a.view[:] = ctx.rank + 1
        ctx.set_phase("compute")
        yield from ctx.Allreduce(a.addr, b.addr, n, ctx.LONG, ctx.SUM, ctx.WORLD)
        ctx.set_phase("end")
        return {"sum": int(b.view.sum())}


class BadCompareApp(EchoApp):
    """An app whose golden comparison itself crashes."""

    def compare(self, golden, observed) -> bool:
        raise RuntimeError("comparison exploded")


class GreedyAllocApp(Application):
    """Broadcasts a buffer size, then allocates it — the paper's
    corrupted-``count``-drives-allocation crash surface."""

    name = "greedy-alloc"
    rtol = 0.0

    @classmethod
    def class_params(cls, problem_class: str) -> dict[str, Any]:
        return dict(nranks=2, count=8)

    def main(self, ctx) -> Generator:
        ctx.set_phase("input")
        cfg = ctx.alloc(1, ctx.LONG, "ga.cfg")
        if ctx.rank == 0:
            cfg.view[0] = self.params["count"]
        yield from ctx.Bcast(cfg.addr, 1, ctx.LONG, 0, ctx.WORLD)
        n = int(cfg.view[0])
        ctx.set_phase("compute")
        # A corrupted n allocates here: with the cap armed this is the
        # simulated segfault path, never a host-sized request.
        buf = ctx.alloc(max(n, 1), ctx.LONG, "ga.buf")
        out = ctx.alloc(max(n, 1), ctx.LONG, "ga.out")
        buf.view[:] = ctx.rank + 1
        yield from ctx.Allreduce(buf.addr, out.addr, max(n, 1), ctx.LONG, ctx.SUM, ctx.WORLD)
        ctx.set_phase("end")
        return {"sum": int(out.view.sum())}


class TestToolErrorTaxonomy:
    def test_tool_error_outside_paper_order(self):
        assert Outcome.TOOL_ERROR not in OUTCOME_ORDER
        assert not Outcome.TOOL_ERROR.is_application_response
        assert not Outcome.TOOL_ERROR.is_error

    def test_application_responses_cover_order(self):
        assert all(o.is_application_response for o in OUTCOME_ORDER)


class TestRunOneContainment:
    @pytest.fixture(scope="class")
    def echo_profile(self):
        return profile_application(EchoApp(2, n=4))

    def test_harness_crash_during_run_is_tool_error(
        self, monkeypatch, echo_profile
    ):
        """An exception outside the simulated taxonomy escaping run_app
        is contained as TOOL_ERROR with a forensic detail line."""
        app = EchoApp(2, n=4)
        runner = InjectionRunner(app, echo_profile)
        point = enumerate_points(echo_profile)[0]

        def explode(*args, **kwargs):
            raise ValueError("synthetic harness crash")

        monkeypatch.setattr("repro.injection.runner.run_app", explode)
        result = runner.run_one(FaultSpec(point, "buffer", None), _rng())
        assert result.outcome is Outcome.TOOL_ERROR
        assert "harness error: ValueError: synthetic harness crash" in result.detail
        assert "explode@" in result.detail  # innermost-frame forensics
        assert runner.last_exception is None

    def test_crashing_golden_comparison_is_tool_error(self, echo_profile):
        """A compare() crash on corrupted results is a harness fault,
        not an application response."""
        app = BadCompareApp(2, n=4)
        runner = InjectionRunner(app, echo_profile)
        point = next(
            p for p in enumerate_points(echo_profile) if p.collective == "Allreduce"
        )
        # A send-buffer flip only corrupts data, so the run completes and
        # the comparison is reached deterministically.
        result = runner.run_one(FaultSpec(point, "sendbuf", 3), _rng())
        assert result.outcome is Outcome.TOOL_ERROR
        assert "harness error: RuntimeError: comparison exploded" in result.detail

    def test_detail_names_the_armed_fault(self, echo_profile):
        app = BadCompareApp(2, n=4)
        runner = InjectionRunner(app, echo_profile)
        point = next(
            p for p in enumerate_points(echo_profile) if p.collective == "Allreduce"
        )
        result = runner.run_one(FaultSpec(point, "sendbuf", 3), _rng())
        assert "fault:" in result.detail

    def test_keyboard_interrupt_passes_through(self, monkeypatch, echo_profile):
        """The containment boundary must not swallow shutdown signals."""
        app = EchoApp(2, n=4)
        runner = InjectionRunner(app, echo_profile)
        point = enumerate_points(echo_profile)[0]

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.injection.runner.run_app", interrupt)
        with pytest.raises(KeyboardInterrupt):
            runner.run_one(FaultSpec(point, "buffer", None), _rng())


class TestHarnessFailureDetail:
    def test_includes_innermost_frame(self):
        def inner():
            raise KeyError("boom")

        try:
            inner()
        except KeyError as exc:
            detail = harness_failure_detail(exc)
        assert detail.startswith("harness error: KeyError: 'boom'")
        assert "inner@test_containment.py" in detail

    def test_without_traceback(self):
        detail = harness_failure_detail(ValueError("bare"))
        assert detail == "harness error: ValueError: bare"


class TestAllocCap:
    @pytest.fixture(scope="class")
    def greedy_profile(self):
        return profile_application(GreedyAllocApp(2, count=8))

    def test_runner_defaults_to_arena_sized_cap(self, greedy_profile):
        runner = InjectionRunner(GreedyAllocApp(2, count=8), greedy_profile)
        assert runner.alloc_cap == DEFAULT_ARENA_SIZE

    def test_corrupted_count_hits_the_segfault_path(self, greedy_profile):
        """A high-bit flip in the broadcast size makes the application
        allocate petabytes; the cap maps it to SEG_FAULT."""
        app = GreedyAllocApp(2, count=8)
        runner = InjectionRunner(app, greedy_profile)
        point = next(
            p for p in enumerate_points(greedy_profile)
            if p.collective == "Bcast" and p.rank == 0
        )
        result = runner.run_one(FaultSpec(point, "buffer", 40), _rng())
        assert result.outcome is Outcome.SEG_FAULT
        assert "segmentation fault" in result.detail

    def test_campaign_outcomes_all_classified(self, greedy_profile):
        """No buffer corruption of the size escapes classification —
        every response lands in the taxonomy, none aborts the harness."""
        app = GreedyAllocApp(2, count=8)
        points = enumerate_points(greedy_profile)
        result = Campaign(
            app, greedy_profile, tests_per_point=8, param_policy="buffer", seed=3
        ).run(points)
        assert result.n_tests() == len(points) * 8
        assert sum(result.outcome_histogram().values()) + result.tool_error_count() == (
            len(points) * 8
        )

    def test_cap_breach_identical_under_jobs_1_and_4(self, greedy_profile):
        """The acceptance bar: SEG_FAULT classification of cap breaches
        is bit-identical between serial and 4-worker execution."""
        app = GreedyAllocApp(2, count=8)
        points = enumerate_points(greedy_profile)

        def signature(result):
            return [
                (point, [(t.spec.param, t.spec.bit, t.outcome, t.detail) for t in pr.tests])
                for point, pr in result.points.items()
            ]

        # Forked explicitly: the app is too shallow for the default to fork.
        serial = Campaign(
            app, greedy_profile, tests_per_point=8, param_policy="buffer", seed=3,
            snapshot=True,
        ).run(points)
        parallel = Campaign(
            app, greedy_profile, tests_per_point=8, param_policy="buffer", seed=3,
            snapshot=True, jobs=4,
        ).run(points)
        assert signature(parallel) == signature(serial)
        assert serial.outcome_histogram()[Outcome.SEG_FAULT] >= 1
