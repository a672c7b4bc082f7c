"""Per-point choice between from-scratch replay and park-and-fork.

Forking a parked prefix (:class:`~repro.snapshot.engine.SnapshotEngine`)
saves each test the fault-free prefix but costs about 12 ms of its own
per forked test on a 2-vCPU x86_64 host: ``fork`` (~4.5 ms), the child's
copy-on-write faults and result pickle, and ``waitpid`` on the exiting
child (~5 ms).  A point is worth forking only when its prefix costs more
than that, and only when more than one test is served from the park.

The rule (:func:`fork_pays`) reads the point's prefix depth from the
profile: the golden-run scheduler events spent before its collective
entry (:meth:`ApplicationProfile.prefix_steps`).  It reads no clock, so
serial, ``--jobs N`` and resumed runs make the same choice.  The
threshold :data:`FORK_MIN_PREFIX_STEPS` was fitted on per-point
scratch-vs-fork timings (ms per test, batched):

* IS, FT and LU at class T run 318, 280 and 566 golden steps; none of
  their 37 representatives won under fork (3.3 vs 13.8, 9.7 vs 17.1,
  21.5 vs 21.5), and a 0.7 ms-prefix LU Barrier took 0.8 vs 12.6;
* MG ``Allreduce@mg_kernel.py:161`` (12.3k steps deep) ran at 198
  from scratch vs 38 forked, MG ``Gather@mg_kernel.py:177`` (~370
  steps) was faster from scratch;
* the LAMMPS survivor ``thermo.py:36#inv11``, parked at 82% of its
  1,268-step run, took 51 vs 25.

Serving one test per call (the sequential stopper behind ``steer``)
never forks under the rule: each call pays a fast-forward plus a fork,
and it lost at every point measured (76-81 vs 40-51 on LAMMPS survivors
parked as deep as 0.82 of the run).

:class:`PointServer` is the one place a campaign turns a point's test
indices into results; the serial loop, the parallel workers, ``steer``
and the ML-driven loop all reach it through ``Campaign`` or
``WorkerState``.
"""

from __future__ import annotations

import numpy as np

from ..injection.models import draw_spec
from ..injection.runner import InjectionRunner, TestResult
from ..injection.space import InjectionPoint

#: Golden-run scheduler events a point's prefix must span before the
#: default (``snapshot=None``) forks it.
FORK_MIN_PREFIX_STEPS = 1000


def fork_pays(profile, point: InjectionPoint, n_tests: int) -> bool:
    """True when serving ``n_tests`` tests at ``point`` from one parked
    prefix beats replaying the prefix per test.

    A pure function of the profile, the point and the batch size; a
    point the profile never saw has depth 0 and is never forked.
    """
    return n_tests > 1 and profile.prefix_steps(point) >= FORK_MIN_PREFIX_STEPS


class PointServer:
    """Draws a point's test stream and serves it by fork or from scratch.

    ``snapshot`` is ``True`` (always fork), ``False`` (always replay
    from scratch) or ``None`` (per point, by :func:`fork_pays`).  Each
    test's RNG is ``SeedSequence(seed, (point_index, test_index))``
    whichever way it is served, so results are identical across modes.
    With a ``stopper``, tests run one at a time in index order and the
    stream ends where the stopper says.

    Counters (on the per-call or default registry): auto-mode decisions
    go to ``snapshot.fork_points`` / ``snapshot.depth_scratch_points``
    and ``snapshot.depth_scratch_tests``; forced modes count nothing
    here (the engine keeps its own ``snapshot.*`` counters).
    """

    def __init__(
        self,
        runner: InjectionRunner,
        *,
        seed: int,
        param_policy: str,
        fault_model: str = "bitflip",
        scenario=None,
        stopper=None,
        snapshot: bool | None = None,
        metrics=None,
    ):
        self.runner = runner
        self.seed = seed
        self.param_policy = param_policy
        self.fault_model = fault_model
        self.scenario = scenario
        self.stopper = stopper
        self.snapshot = snapshot
        self.metrics = metrics
        self._engine = None

    def rng_for(self, point_index: int, test_index: int) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(point_index, test_index))
        return np.random.default_rng(seq)

    def _task(self, point: InjectionPoint, point_index: int, test_index: int):
        rng = self.rng_for(point_index, test_index)
        spec = draw_spec(
            point, rng,
            policy=self.param_policy,
            model=self.fault_model,
            scenario=self.scenario,
        )
        return spec, rng

    def _fork(self, point: InjectionPoint, per_call: int, m) -> bool:
        """Decide once for the point's stream; count auto decisions."""
        if self.snapshot is not None:
            return self.snapshot
        fork = fork_pays(self.runner.profile, point, per_call)
        if m is not None:
            m.counter("snapshot.fork_points" if fork else "snapshot.depth_scratch_points").inc()
        return fork

    def engine(self):
        """The lazily built :class:`~repro.snapshot.SnapshotEngine`."""
        if self._engine is None:
            from .engine import SnapshotEngine

            self._engine = SnapshotEngine(self.runner)
        return self._engine

    def run(
        self,
        point: InjectionPoint,
        point_index: int,
        test_indices,
        metrics=None,
    ) -> list[TestResult]:
        """Results for ``test_indices`` at ``point``, in index order."""
        m = metrics if metrics is not None else self.metrics
        test_indices = list(test_indices)
        if not test_indices:
            return []
        fork = self._fork(point, 1 if self.stopper is not None else len(test_indices), m)
        if self.stopper is None:
            tasks = [self._task(point, point_index, t) for t in test_indices]
            if fork:
                return self.engine().serve_point(point, tasks, metrics=m)
            results = [self.runner.run_one(spec, rng) for spec, rng in tasks]
        else:
            results = []
            for t in test_indices:
                spec, rng = self._task(point, point_index, t)
                if fork:
                    [res] = self.engine().serve_point(point, [(spec, rng)], metrics=m)
                else:
                    res = self.runner.run_one(spec, rng)
                results.append(res)
                if self.stopper.should_stop(results):
                    break
        if self.snapshot is None and not fork and m is not None:
            m.counter("snapshot.depth_scratch_tests").inc(len(results))
        return results


def serving_summary(counters: dict) -> str:
    """How a campaign's tests were served, from its ``snapshot.*``
    counters: forked, sent to scratch by the depth rule, or replayed
    after a fork-path failure.  Empty when no counter was recorded
    (``snapshot=False``)."""
    forks = counters.get("snapshot.forks", 0)
    scratch = counters.get("snapshot.depth_scratch_tests", 0)
    fallbacks = counters.get("snapshot.fallback_tests", 0)
    if not (forks or scratch or fallbacks):
        return ""
    text = (
        f"{forks} forked tests, "
        f"{scratch} tests at {counters.get('snapshot.depth_scratch_points', 0)} points "
        f"replayed from scratch by the depth rule (prefix under "
        f"{FORK_MIN_PREFIX_STEPS} golden steps, or one test per park), "
        f"{fallbacks} full replays after fork-path failures"
    )
    failed = counters.get("snapshot.fork_failed", 0)
    return text + (f", {failed} failed forks" if failed else "")
