"""Fault-injection campaigns: many tests per point, aggregated.

Implements the paper's § II methodology: at every selected injection
point, run ``tests_per_point`` randomised single-bit-flip tests (100 in
the paper) and tally the six response types.  Everything is driven by a
single campaign seed — each test's RNG is rebuilt from
``SeedSequence(seed, spawn_key=(point_index, test_index))`` — so a
campaign is a pure function of ``(app, points, config)`` no matter how
its tests are scheduled.  ``jobs > 1`` (or a checkpoint directory)
delegates execution to the sharded engine in :mod:`repro.exec`, which
produces bit-identical results to the serial loop.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ..apps.base import Application
from ..profiling.profiler import ApplicationProfile
from .outcome import OUTCOME_ORDER, Outcome
from .models import MODELS
from .runner import InjectionRunner, TestResult
from .scenario import Scenario
from .space import FaultSpec, InjectionPoint


@dataclass
class PointResult:
    """Aggregated responses at one injection point.

    Outcome tallies are maintained incrementally as tests are added via
    :meth:`add`, so ``outcomes``/``error_rate`` are O(1) on the hot path
    instead of rescanning the test list on every property access.  Code
    that appends to ``tests`` directly still gets correct answers: a
    cheap length check detects the stale tally and rebuilds it.
    """

    point: InjectionPoint
    tests: list[TestResult] = field(default_factory=list)
    _counts: Counter = field(default_factory=Counter, init=False, repr=False, compare=False)
    _n_errors: int = field(default=0, init=False, repr=False, compare=False)
    _n_excluded: int = field(default=0, init=False, repr=False, compare=False)
    _tallied: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for t in self.tests:
            self._tally(t)

    def add(self, test: TestResult) -> None:
        """Append one test and update the running tallies."""
        self.tests.append(test)
        self._tally(test)

    def _tally(self, test: TestResult) -> None:
        self._counts[test.outcome] += 1
        if test.outcome.is_error:
            self._n_errors += 1
        if not test.outcome.is_application_response:
            self._n_excluded += 1
        self._tallied += 1

    def _synced_counts(self) -> Counter:
        if self._tallied != len(self.tests):
            self._counts = Counter(t.outcome for t in self.tests)
            self._n_errors = sum(1 for t in self.tests if t.outcome.is_error)
            self._n_excluded = sum(
                1 for t in self.tests if not t.outcome.is_application_response
            )
            self._tallied = len(self.tests)
        return self._counts

    @property
    def outcomes(self) -> Counter:
        return Counter(self._synced_counts())

    @property
    def n_tests(self) -> int:
        return len(self.tests)

    @property
    def n_tool_errors(self) -> int:
        """Tests with a harness-level ``TOOL_ERROR`` verdict (excluded
        from every paper-facing rate)."""
        self._synced_counts()
        return self._n_excluded

    @property
    def error_rate(self) -> float:
        """Fraction of tests with a non-SUCCESS response (§ II).

        Harness-level ``TOOL_ERROR`` verdicts are excluded from both the
        numerator and the denominator — they say nothing about the
        application's sensitivity.
        """
        self._synced_counts()
        responses = len(self.tests) - self._n_excluded
        if responses <= 0:
            return 0.0
        return self._n_errors / responses

    def majority_outcome(self) -> Outcome:
        """The most frequent *application* response (ties break in
        Table I order).  TOOL_ERROR verdicts never win; a degenerate
        point whose every test failed at the harness level reports
        SUCCESS-by-absence and should be judged via
        :attr:`n_tool_errors` instead."""
        counts = self._synced_counts()
        best = max(
            (counts[o] for o in OUTCOME_ORDER if o in counts), default=0
        )
        if best:
            for outcome in OUTCOME_ORDER:
                if counts.get(outcome) == best:
                    return outcome
        return Outcome.SUCCESS

    def detail_samples(self) -> dict[Outcome, str]:
        """One representative ``detail`` string per observed outcome.

        The first non-empty detail wins; outcomes whose tests carry no
        detail (``SUCCESS``) are omitted.
        """
        samples: dict[Outcome, str] = {}
        for t in self.tests:
            if t.detail and t.outcome not in samples:
                samples[t.outcome] = t.detail
        return samples


@dataclass
class CampaignResult:
    """All point results of one campaign."""

    app_name: str
    tests_per_point: int
    param_policy: str
    points: dict[InjectionPoint, PointResult] = field(default_factory=dict)

    # -- aggregate views ------------------------------------------------

    def all_tests(self) -> list[TestResult]:
        return [t for pr in self.points.values() for t in pr.tests]

    def n_tests(self) -> int:
        """Total test count without materialising the flat list."""
        return sum(len(pr.tests) for pr in self.points.values())

    def outcome_histogram(self) -> dict[Outcome, int]:
        # Sums the per-point incremental tallies: O(points), not O(tests).
        # Covers OUTCOME_ORDER only, so TOOL_ERROR verdicts never leak
        # into paper-metric outcome rates (see tool_error_count()).
        counts: Counter = Counter()
        for pr in self.points.values():
            counts.update(pr._synced_counts())
        return {o: counts.get(o, 0) for o in OUTCOME_ORDER}

    def tool_error_count(self) -> int:
        """Campaign-wide count of harness-level ``TOOL_ERROR`` verdicts
        (quarantined units, contained simulator crashes)."""
        return sum(pr.n_tool_errors for pr in self.points.values())

    def predicted_count(self) -> int:
        """Tests resolved statically (``--static-prune``) instead of run."""
        return sum(
            1 for pr in self.points.values() for t in pr.tests if t.predicted
        )

    def outcome_fractions(self) -> dict[Outcome, float]:
        hist = self.outcome_histogram()
        total = sum(hist.values()) or 1
        return {o: c / total for o, c in hist.items()}

    def by_collective(self) -> dict[str, "CampaignResult"]:
        """Split the campaign per collective type."""
        out: dict[str, CampaignResult] = {}
        for point, pr in self.points.items():
            sub = out.setdefault(
                point.collective,
                CampaignResult(self.app_name, self.tests_per_point, self.param_policy),
            )
            sub.points[point] = pr
        return out

    def by_param(self) -> dict[str, dict[Outcome, int]]:
        """Outcome histogram per injected parameter (Fig. 9 view)."""
        out: dict[str, Counter] = {}
        for pr in self.points.values():
            for t in pr.tests:
                out.setdefault(t.spec.param, Counter())[t.outcome] += 1
        return {
            param: {o: c.get(o, 0) for o in OUTCOME_ORDER}
            for param, c in sorted(out.items())
        }

    def error_rates(self) -> list[float]:
        return [pr.error_rate for pr in self.points.values()]

    def detail_samples(self) -> dict[Outcome, str]:
        """Campaign-wide representative failure details, one per outcome."""
        samples: dict[Outcome, str] = {}
        for pr in self.points.values():
            for outcome, detail in pr.detail_samples().items():
                samples.setdefault(outcome, detail)
        return samples


class Campaign:
    """Drives injection tests over a set of points.

    Parameters
    ----------
    jobs:
        Worker processes for the campaign.  ``1`` (the default) runs the
        classic in-process loop; anything else shards the work units
        across a pool via :class:`repro.exec.ParallelCampaign` with
        bit-identical results.
    progress_every:
        Emit the ``progress`` callback at most every N completed units
        (points when serial, work units when parallel); the final update
        always fires.
    checkpoint_dir:
        Directory for periodic campaign checkpoints; with ``resume=True``
        a matching interrupted campaign restarts where it left off.
    db_path:
        SQLite campaign database (mutually exclusive with
        ``checkpoint_dir``): completed units are persisted through
        :class:`repro.store.DBCheckpointStore` — same resume semantics,
        plus queryable per-test rows and progress telemetry.
    progress_sinks:
        :class:`~repro.obs.progress.ProgressSink` consumers receiving
        periodic :class:`~repro.obs.progress.ProgressSnapshot` telemetry
        (tests/sec, outcome histogram, worker health, ETA).
    unit_timeout:
        Wall-clock seconds a parallel work unit may run per dispatch
        attempt before its worker is declared wedged and killed
        (``None`` = no deadline; ignored when ``jobs == 1``).
    max_retries:
        Re-dispatches granted to a unit whose worker died, wedged, or
        crashed before it is given up on.
    quarantine:
        When a unit exhausts its retries: ``True`` records synthetic
        ``TOOL_ERROR`` results and the campaign continues; ``False``
        aborts with :class:`~repro.exec.supervisor.UnitFailedError`.
    """

    def __init__(
        self,
        app: Application,
        profile: ApplicationProfile,
        tests_per_point: int = 100,
        param_policy: str = "buffer",
        seed: int = 0,
        progress: Callable[[int, int], None] | None = None,
        algorithms: dict[str, str] | None = None,
        metrics=None,
        jobs: int = 1,
        progress_every: int = 1,
        checkpoint_dir=None,
        db_path=None,
        resume: bool = False,
        unit_timeout: float | None = None,
        max_retries: int = 2,
        quarantine: bool = True,
        tracer=None,
        progress_sinks=None,
        preclassifier=None,
        snapshot: bool | None = None,
        fault_model: str = "bitflip",
        scenario: Scenario | None = None,
        stopper=None,
    ):
        self.app = app
        self.profile = profile
        self.tests_per_point = tests_per_point
        self.param_policy = param_policy
        self.seed = seed
        self.progress = progress
        self.algorithms = algorithms
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; when set
        #: the campaign records test/outcome tallies and per-point timing
        #: under ``campaign.*``.
        self.metrics = metrics
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if progress_every < 1:
            raise ValueError(f"progress_every must be >= 1, got {progress_every}")
        if unit_timeout is not None and unit_timeout <= 0:
            raise ValueError(f"unit_timeout must be > 0 seconds, got {unit_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if checkpoint_dir is not None and db_path is not None:
            raise ValueError("checkpoint_dir and db_path are mutually exclusive")
        if fault_model not in MODELS or fault_model == "scenario":
            raise ValueError(
                f"unknown fault model {fault_model!r}; "
                f"choices: {', '.join(n for n in MODELS if n != 'scenario')}"
            )
        if snapshot not in (None, True, False):
            raise ValueError(f"snapshot must be None, True or False, got {snapshot!r}")
        if scenario is not None and fault_model != "bitflip":
            raise ValueError("scenario and fault_model are mutually exclusive")
        if preclassifier is not None and (
            scenario is not None or not MODELS[fault_model].preclassifiable
        ):
            # The static rules reason about single-bit parameter
            # corruption only; declining richer models keeps predictions
            # honest (see repro.analyze).
            raise ValueError(
                "static pruning (preclassifier) only understands the "
                "single-bit 'bitflip' fault model"
            )
        if preclassifier is not None and (
            jobs != 1 or checkpoint_dir is not None or db_path is not None
        ):
            # Parallel workers rebuild their own test streams and the
            # store schema has no predicted rows yet: static pruning is
            # serial-path only, and silently dropping it would change
            # which tests execute.
            raise ValueError(
                "static pruning (preclassifier) is incompatible with "
                "jobs>1, checkpoint_dir, and db_path"
            )
        if stopper is not None and preclassifier is not None:
            # Statically resolved slots never execute, so the stopper's
            # ordered-prefix contract (test 0, 1, 2, … of *executed*
            # results) would depend on which slots the preclassifier
            # proved — a different rule set would silently change where
            # every point stops.
            raise ValueError(
                "sequential stopping (stopper) is incompatible with "
                "static pruning (preclassifier)"
            )
        self.jobs = jobs
        self.progress_every = progress_every
        self.checkpoint_dir = checkpoint_dir
        self.db_path = db_path
        self.resume = resume
        #: Extra :class:`~repro.obs.progress.ProgressSink` consumers
        #: receiving periodic telemetry snapshots.
        self.progress_sinks = list(progress_sinks or [])
        self.unit_timeout = unit_timeout
        self.max_retries = max_retries
        self.quarantine = quarantine
        #: Optional :class:`~repro.obs.events.Tracer` receiving
        #: supervision events (``unit_retry``/``unit_quarantined``).
        self.tracer = tracer
        #: Optional :class:`repro.analyze.PreClassifier`; tests it
        #: proves are recorded as ``predicted`` results without running.
        self.preclassifier = preclassifier
        #: How tests are served (:mod:`repro.snapshot`); results are
        #: bit-identical either way.  ``None`` (default) forks a point's
        #: tests from one parked prefix only when the point's golden-run
        #: prefix spans at least ``FORK_MIN_PREFIX_STEPS`` (1000) scheduler
        #: events and more than one test is served per park, so serving
        #: one test at a time (``stopper``) never forks; the rest replay
        #: from scratch (see :mod:`repro.snapshot.serving` for the data
        #: the threshold was fitted on).  ``True`` forks every point;
        #: ``False`` replays every test from scratch and, when parallel,
        #: selects the point-major unit layout.
        self.snapshot = snapshot
        #: Fault-model name from :data:`repro.injection.models.MODELS`
        #: applied to every test ("bitflip" = the paper's model).
        self.fault_model = fault_model
        #: Optional :class:`~repro.injection.scenario.Scenario`; when
        #: set, every test replays the timeline (under its synthetic
        #: anchor point) instead of drawing single faults.
        self.scenario = scenario
        #: Optional :class:`~repro.steer.SequentialStopper`: end each
        #: point's test stream early once its Wilson interval closes.
        #: The decision is a pure function of the ordered test prefix,
        #: so stopped campaigns stay bit-identical across schedulings.
        self.stopper = stopper
        self.runner = InjectionRunner(app, profile, algorithms=algorithms)
        # Lazy import: repro.snapshot depends on repro.injection.
        from ..snapshot.serving import PointServer

        self._server = PointServer(
            self.runner,
            seed=seed,
            param_policy=param_policy,
            fault_model=fault_model,
            scenario=scenario,
            stopper=stopper,
            snapshot=snapshot,
            metrics=metrics,
        )

    def _rng_for(self, point_index: int, test_index: int) -> np.random.Generator:
        return self._server.rng_for(point_index, test_index)

    def run_point(self, point: InjectionPoint, point_index: int = 0) -> PointResult:
        """All tests for one injection point.

        With a stopper, tests are served one at a time in index order and
        the stream ends once the stopper says the point's outcome
        histogram has converged; the truncation index is a pure function
        of ``(seed, point_index)``, identical under any scheduling.
        """
        pr = PointResult(point)
        #: ``slot -> TestResult`` for statically predicted tests; the
        #: other slots execute, and both reassemble in test order.
        predicted: dict[int, TestResult] = {}
        if self.preclassifier is not None:
            for t in range(self.tests_per_point):
                prediction = self.preclassifier.predict(point, point_index, t)
                if prediction is not None:
                    predicted[t] = TestResult(
                        FaultSpec(point, prediction.param, prediction.bit),
                        prediction.outcome,
                        None,
                        detail=f"static: {prediction.rule} — {prediction.detail}",
                        predicted=True,
                    )
        executed = iter(
            self._server.run(
                point,
                point_index,
                [t for t in range(self.tests_per_point) if t not in predicted],
            )
        )
        for t in range(self.tests_per_point):
            test = predicted[t] if t in predicted else next(executed, None)
            if test is None:  # the stopper ended the stream
                break
            pr.add(test)
        if self.metrics is not None:
            self.metrics.counter("campaign.tests").inc(pr.n_tests)
            if predicted:
                self.metrics.counter("campaign.tests_predicted").inc(len(predicted))
            saved = self.tests_per_point - pr.n_tests
            if saved:
                self.metrics.counter("campaign.tests_saved").inc(saved)
            for outcome, n in pr._synced_counts().items():
                self.metrics.counter(f"campaign.outcome.{outcome.name}").inc(n)
            self.metrics.histogram("campaign.point_error_rate").observe(pr.error_rate)
        return pr

    def run(
        self,
        points: Sequence[InjectionPoint] | Iterable[InjectionPoint],
        point_indices: Sequence[int] | None = None,
        digest: str | None = None,
    ) -> CampaignResult:
        """Run the campaign over ``points`` (kept in the given order).

        ``point_indices`` optionally names each point's *global* index —
        the coordinate fed into the ``SeedSequence`` spawn key and the
        work-unit ids — so a driver running a subset batch (ML-driven or
        adaptive steering) reproduces exactly the tests a full campaign
        would have run at those points.  Default: ``0..len(points)-1``.

        ``digest`` overrides the store identity for checkpoint/database
        runs; batch drivers pass one digest computed over the *full*
        candidate list so every batch lands in the same campaign row.
        """
        points = list(points)
        if point_indices is not None:
            point_indices = [int(i) for i in point_indices]
            if len(point_indices) != len(points):
                raise ValueError(
                    f"{len(point_indices)} point_indices for {len(points)} points"
                )
        if self.jobs != 1 or self.checkpoint_dir is not None or self.db_path is not None:
            from ..exec.parallel import ParallelCampaign

            return ParallelCampaign.from_campaign(self).run(
                points, point_indices=point_indices, digest=digest
            )
        tracker = None
        if self.progress_sinks:
            from ..obs.progress import ProgressTracker

            tracker = ProgressTracker(
                len(points) * self.tests_per_point,
                len(points),
                sinks=self.progress_sinks,
                every_units=self.progress_every,
                metrics=self.metrics,
            )
        result = CampaignResult(self.app.name, self.tests_per_point, self.param_policy)
        n = len(points)
        try:
            for i, point in enumerate(points):
                idx = point_indices[i] if point_indices is not None else i
                if self.metrics is not None:
                    with self.metrics.time("campaign.point_s"):
                        result.points[point] = self.run_point(point, point_index=idx)
                    self.metrics.counter("campaign.points").inc()
                else:
                    result.points[point] = self.run_point(point, point_index=idx)
                if tracker is not None:
                    tracker.unit_done(result.points[point].tests)
                if self.progress is not None and (
                    (i + 1) % self.progress_every == 0 or i + 1 == n
                ):
                    self.progress(i + 1, n)
        finally:
            if tracker is not None:
                tracker.finish()
        return result
