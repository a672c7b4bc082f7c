"""The sharded campaign engine: a supervised pool with deterministic results.

Execution model
---------------
The campaign is cut into :class:`~repro.exec.sharding.WorkUnit` slices
(`(point_index, test_range)`).  Each worker process is initialised
exactly once with a pickled ``(app, profile, config)`` payload — the
expensive :class:`~repro.profiling.profiler.ApplicationProfile` is
never re-profiled — and then executes units streamed to it, rebuilding
every test's RNG from ``SeedSequence(seed, spawn_key=(point_index,
test_index))``.  Because the RNG derivation depends only on the unit's
coordinates, the assembled result is **bit-identical to the serial
run** regardless of worker count, unit size, or completion order.

Execution is *supervised* (:class:`~repro.exec.supervisor.SupervisedPool`):
a worker that dies or wedges mid-unit is respawned and its unit retried
with backoff; a unit that keeps taking workers down is quarantined —
its tests are recorded as synthetic ``TOOL_ERROR`` results (excluded
from every paper-facing outcome rate) and the campaign finishes instead
of aborting.  Retried units reproduce exactly what an undisturbed run
would have produced, so supervision never perturbs determinism for
successfully-executed units.

Workers record into private :class:`MetricsRegistry` snapshots that the
parent merges (`campaign.tests`, `campaign.outcome.*`, `exec.unit_s`);
point-level metrics (`campaign.points`, `campaign.point_error_rate`)
are recorded by the parent at assembly time so the merged registry
matches what a serial campaign would have recorded.

With a checkpoint directory attached, every successfully completed unit
is persisted through :class:`~repro.exec.checkpoint.CheckpointStore`;
with ``db_path`` set, through the SQLite-backed
:class:`~repro.store.DBCheckpointStore` instead (same lifecycle, same
torn-tail tolerance, plus queryable per-test rows, per-point tallies,
and progress telemetry).  Quarantined units are deliberately *not*
persisted: a later ``resume=True`` run retries them from scratch —
self-healing across restarts when the fault was environmental.
``KeyboardInterrupt`` tears the pool down, flushes the checkpoint
manifest, and re-raises, so an interrupted campaign is always
resumable.

Progress telemetry: when any :class:`~repro.obs.progress.ProgressSink`
is attached (explicitly, or implicitly by the campaign database), the
supervisor loop feeds a :class:`~repro.obs.progress.ProgressTracker`
that emits periodic snapshots — tests/sec, outcome histogram, worker
health, ETA — alongside the classic ``progress(done, total)`` callback.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .. import __version__
from ..apps.base import Application
from ..injection.outcome import Outcome
from ..injection.runner import TestResult
from ..injection.models import draw_spec
from ..injection.space import InjectionPoint
from ..obs.metrics import MetricsRegistry
from ..obs.progress import ProgressTracker
from ..profiling.profiler import ApplicationProfile
from .checkpoint import CheckpointStore, campaign_digest
from .sharding import WorkUnit, default_unit_tests, make_units, unit_layout, units_of_point
from .supervisor import SupervisedPool, SupervisorConfig, WorkerState

if TYPE_CHECKING:  # pragma: no cover
    from ..injection.campaign import Campaign, CampaignResult
    from ..obs.events import Tracer


class ParallelCampaign:
    """Sharded, resumable, fault-contained campaign execution.

    Drop-in engine behind :class:`repro.injection.campaign.Campaign`:
    ``Campaign(jobs=4).run(points)`` delegates here and returns a
    :class:`CampaignResult` bit-identical to ``jobs=1`` for every unit
    that executed successfully.
    """

    def __init__(
        self,
        app: Application,
        profile: ApplicationProfile,
        tests_per_point: int = 100,
        param_policy: str = "buffer",
        seed: int = 0,
        jobs: int = 1,
        unit_tests: int | None = None,
        progress: Callable[[int, int], None] | None = None,
        progress_every: int = 1,
        checkpoint_dir=None,
        db_path=None,
        resume: bool = False,
        checkpoint_every: int = 1,
        algorithms: dict[str, str] | None = None,
        metrics: MetricsRegistry | None = None,
        unit_timeout: float | None = None,
        max_retries: int = 2,
        quarantine: bool = True,
        tracer: "Tracer | None" = None,
        progress_sinks: Sequence | None = None,
        snapshot: bool | None = None,
        fault_model: str = "bitflip",
        scenario=None,
        stopper=None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if checkpoint_dir is not None and db_path is not None:
            raise ValueError("checkpoint_dir and db_path are mutually exclusive")
        self.app = app
        self.profile = profile
        self.tests_per_point = tests_per_point
        self.param_policy = param_policy
        self.seed = seed
        self.jobs = jobs
        self.unit_tests = unit_tests
        self.progress = progress
        self.progress_every = max(1, progress_every)
        self.checkpoint_dir = checkpoint_dir
        self.db_path = db_path
        self.resume = resume
        self.checkpoint_every = checkpoint_every
        #: Extra :class:`~repro.obs.progress.ProgressSink` consumers fed
        #: by the supervisor loop (the campaign database adds its own).
        self.progress_sinks = list(progress_sinks or [])
        self.algorithms = algorithms
        self.metrics = metrics
        self.supervisor_config = SupervisorConfig(
            unit_timeout=unit_timeout,
            max_retries=max_retries,
            quarantine=quarantine,
        )
        self.tracer = tracer
        #: How workers serve tests, as ``Campaign.snapshot``: ``None``
        #: (default) forks a point only when its golden-run prefix spans
        #: at least ``FORK_MIN_PREFIX_STEPS`` (1000) scheduler events and
        #: the unit serves more than one test per park (never with a
        #: stopper); ``True`` always forks; ``False`` always replays from
        #: scratch.  Also selects the unit layout (:func:`unit_layout`):
        #: with no explicit ``unit_tests``, ``None`` and ``True`` use the
        #: site-major ``"s1"`` layout (one prefix park per point,
        #: site-adjacent ordering), ``False`` the point-major ``"p1"``.
        self.snapshot = snapshot
        #: Fault-model name / optional scenario timeline (see
        #: :mod:`repro.injection.models`), forwarded to every worker.
        self.fault_model = fault_model
        self.scenario = scenario
        #: Optional :class:`~repro.steer.SequentialStopper`, forwarded
        #: to every worker.  Forces whole-point units: the stop decision
        #: consumes the ordered per-point test prefix, which only one
        #: owner can observe.
        self.stopper = stopper
        #: Unit ids given up on during the last :meth:`run` (their tests
        #: carry synthetic ``TOOL_ERROR`` verdicts).
        self.quarantined: list[str] = []

    @classmethod
    def from_campaign(cls, campaign: "Campaign") -> "ParallelCampaign":
        return cls(
            app=campaign.app,
            profile=campaign.profile,
            tests_per_point=campaign.tests_per_point,
            param_policy=campaign.param_policy,
            seed=campaign.seed,
            jobs=campaign.jobs,
            progress=campaign.progress,
            progress_every=campaign.progress_every,
            checkpoint_dir=campaign.checkpoint_dir,
            db_path=campaign.db_path,
            resume=campaign.resume,
            algorithms=campaign.algorithms,
            metrics=campaign.metrics,
            unit_timeout=campaign.unit_timeout,
            max_retries=campaign.max_retries,
            quarantine=campaign.quarantine,
            tracer=campaign.tracer,
            progress_sinks=campaign.progress_sinks,
            snapshot=campaign.snapshot,
            fault_model=campaign.fault_model,
            scenario=campaign.scenario,
            stopper=campaign.stopper,
        )

    # -- quarantine synthesis ------------------------------------------

    def _synthesize_quarantined(
        self, unit: WorkUnit, point: InjectionPoint, reason: str
    ) -> list[TestResult]:
        """Synthetic ``TOOL_ERROR`` results for a given-up unit.

        The fault specs are rebuilt through the same deterministic RNG
        derivation the worker would have used, so the result records
        *which* injections were abandoned — only the verdicts are
        synthetic.
        """
        tests: list[TestResult] = []
        for t in range(unit.test_start, unit.test_stop):
            seq = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(unit.point_index, t)
            )
            rng = np.random.default_rng(seq)
            spec = draw_spec(
                point, rng,
                policy=self.param_policy,
                model=self.fault_model,
                scenario=self.scenario,
            )
            tests.append(
                TestResult(
                    spec,
                    Outcome.TOOL_ERROR,
                    None,
                    detail=f"unit {unit.unit_id} quarantined: {reason}",
                )
            )
        return tests

    # -- execution -----------------------------------------------------

    def run(
        self,
        points: Sequence[InjectionPoint],
        point_indices: Sequence[int] | None = None,
        digest: str | None = None,
    ) -> "CampaignResult":
        from ..injection.campaign import CampaignResult, PointResult

        points = list(points)
        # Global point indices: drive the SeedSequence spawn keys and the
        # unit ids, so a batch driver running a subset gets exactly the
        # units a full campaign would have produced at those points.
        if point_indices is None:
            point_indices = list(range(len(points)))
        else:
            point_indices = [int(i) for i in point_indices]
            if len(point_indices) != len(points):
                raise ValueError(
                    f"{len(point_indices)} point_indices for {len(points)} points"
                )
            if len(set(point_indices)) != len(point_indices):
                raise ValueError("point_indices must be unique")
        pos_of = {g: p for p, g in enumerate(point_indices)}
        layout = unit_layout(self.snapshot, self.unit_tests)
        if self.stopper is not None:
            # Whole-point units regardless of layout: the stop decision
            # is a function of the ordered per-point prefix, so exactly
            # one worker must own all of a point's tests.
            unit_tests = max(1, self.tests_per_point)
        elif layout == "s1":
            unit_tests = max(1, self.tests_per_point)
        else:
            unit_tests = (
                self.unit_tests
                if self.unit_tests is not None
                else default_unit_tests(self.tests_per_point)
            )
        units = [
            WorkUnit(point_indices[u.point_index], u.test_start, u.test_stop)
            for u in make_units(
                len(points), self.tests_per_point, unit_tests,
                points=points, layout=layout,
            )
        ]
        total_tests = len(points) * self.tests_per_point
        self.quarantined = []

        store = None
        results: dict[str, list[TestResult]] = {}
        if self.checkpoint_dir is not None or self.db_path is not None:
            if digest is None:
                digest = campaign_digest(
                    self.app,
                    self.seed,
                    self.tests_per_point,
                    self.param_policy,
                    unit_tests,
                    points,
                    algorithms=self.algorithms,
                    layout=layout,
                    fault_model=self.fault_model,
                    scenario_fp=(
                        None if self.scenario is None else self.scenario.fingerprint()
                    ),
                )
            if self.db_path is not None:
                # Lazy import: repro.store depends on repro.exec.sharding.
                from ..store import DBCheckpointStore

                store = DBCheckpointStore(
                    self.db_path,
                    digest,
                    campaign_info=dict(
                        app=self.app.name,
                        nranks=self.app.nranks,
                        seed=self.seed,
                        tests_per_point=self.tests_per_point,
                        param_policy=self.param_policy,
                        unit_tests=unit_tests,
                        algorithms=self.algorithms,
                        code_version=__version__,
                        n_points=len(points),
                        total_units=len(units),
                    ),
                )
            else:
                store = CheckpointStore(
                    self.checkpoint_dir, digest,
                    flush_every=self.checkpoint_every, layout=layout,
                )
            for unit_id, (tests, registry) in store.load(resume=self.resume).items():
                results[unit_id] = tests
                if self.metrics is not None and registry is not None:
                    self.metrics.merge(registry)
                if self.metrics is not None:
                    self.metrics.counter("exec.units_resumed").inc()

        known = {u.unit_id for u in units}
        pending = [u for u in units if u.unit_id not in results]
        done_tests = sum(len(results[uid]) for uid in results if uid in known)
        done_units = 0
        last_reported = -1

        sinks = list(self.progress_sinks)
        if store is not None and self.db_path is not None:
            sinks.append(store.progress_sink())
        tracker: ProgressTracker | None = None
        if sinks:
            tracker = ProgressTracker(
                total_tests,
                len(units),
                sinks=sinks,
                every_units=self.progress_every,
                workers=self.jobs,
                metrics=self.metrics,
            )
            for unit_id, tests in results.items():
                if unit_id in known:
                    tracker.seed(tests)

        def report(force: bool = False) -> None:
            nonlocal last_reported
            if self.progress is None:
                return
            if force or done_units % self.progress_every == 0:
                if done_tests != last_reported:
                    self.progress(done_tests, total_tests)
                    last_reported = done_tests

        def complete(unit_id: str, tests: list[TestResult], registry: MetricsRegistry) -> None:
            nonlocal done_tests, done_units
            results[unit_id] = tests
            done_tests += len(tests)
            done_units += 1
            if store is not None:
                store.record(unit_id, tests, registry)
            if self.metrics is not None:
                self.metrics.merge(registry)
                # Counted here, not in the worker snapshot, so replaying a
                # checkpointed unit never inflates the executed-unit count.
                self.metrics.counter("exec.units").inc()
            if tracker is not None:
                tracker.unit_done(tests)
            report()

        def give_up(unit: WorkUnit, point: InjectionPoint, reason: str) -> None:
            """Record a quarantined unit: synthetic results, no checkpoint.

            Skipping the checkpoint is deliberate — a ``resume=True``
            restart retries the unit from scratch, which heals campaigns
            whose failure cause was environmental.
            """
            nonlocal done_tests, done_units
            tests = self._synthesize_quarantined(unit, point, reason)
            results[unit.unit_id] = tests
            self.quarantined.append(unit.unit_id)
            done_tests += len(tests)
            done_units += 1
            if store is not None:
                store.record_quarantine(unit.unit_id, reason)
            if self.metrics is not None:
                self.metrics.counter("campaign.tests").inc(len(tests))
                self.metrics.counter(
                    f"campaign.outcome.{Outcome.TOOL_ERROR.name}"
                ).inc(len(tests))
            if tracker is not None:
                tracker.unit_quarantined(tests)
            report()

        try:
            if pending:
                if self.jobs == 1:
                    state = WorkerState(
                        self.app, self.profile, self.param_policy, self.seed,
                        self.algorithms, self.snapshot,
                        self.fault_model, self.scenario, self.stopper,
                    )
                    for unit in pending:
                        complete(*state.execute(unit, points[pos_of[unit.point_index]]))
                else:
                    payload = pickle.dumps(
                        (self.app, self.profile, self.param_policy, self.seed,
                         self.algorithms, self.snapshot,
                         self.fault_model, self.scenario, self.stopper),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                    tasks = [(u, points[pos_of[u.point_index]]) for u in pending]
                    pool = SupervisedPool(
                        payload,
                        jobs=min(self.jobs, max(1, len(pending))),
                        config=self.supervisor_config,
                        metrics=self.metrics,
                        tracer=self.tracer,
                    )
                    events = pool.run(tasks)
                    try:
                        for event in events:
                            if event[0] == "done":
                                _, att, (unit_id, tests, registry) = event
                                complete(unit_id, tests, registry)
                            else:  # "quarantined"
                                _, att, reason = event
                                give_up(att.unit, att.point, reason)
                    finally:
                        # Tears the workers down on *any* exit from the
                        # consuming loop, KeyboardInterrupt included.
                        events.close()
        except BaseException:
            # Interrupted or failed: the pool is already down (generator
            # close above); emit the final telemetry snapshot and flush a
            # resumable manifest before propagating.
            if tracker is not None:
                tracker.finish()
            if store is not None and not store.closed:
                store.write_manifest(
                    total_units=len(units), complete=False, quarantined=self.quarantined
                )
                store.close()
            raise

        report(force=True)

        # -- deterministic assembly: point order, then test order ------
        result = CampaignResult(self.app.name, self.tests_per_point, self.param_policy)
        grouped = units_of_point(units)
        tallies: list[tuple] = []
        for i, point in enumerate(points):
            g = point_indices[i]
            pr = PointResult(point)
            for unit in grouped.get(g, ()):
                for test in results[unit.unit_id]:
                    pr.add(test)
            result.points[point] = pr
            for outcome, n in sorted(
                pr._synced_counts().items(), key=lambda kv: kv[0].name
            ):
                tallies.append(
                    (g, point.rank, point.collective, point.site,
                     point.invocation, outcome.name, n)
                )
            if self.metrics is not None:
                self.metrics.counter("campaign.points").inc()
                self.metrics.histogram("campaign.point_error_rate").observe(pr.error_rate)

        if tracker is not None:
            tracker.finish()
        if store is not None and not store.closed:
            store.record_point_tallies(tallies)
            if self.metrics is not None:
                store.record_metrics("final", self.metrics)
            finished = all(u.unit_id in store.completed for u in units)
            store.write_manifest(
                total_units=len(units),
                complete=finished,
                quarantined=self.quarantined,
            )
            store.close()
        return result
