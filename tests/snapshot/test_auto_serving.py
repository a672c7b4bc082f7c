"""The default engine choice: fork a point only where its prefix pays.

Under ``snapshot=None`` a point's tests are forked from one parked
prefix only when the point's golden-run prefix spans at least
``FORK_MIN_PREFIX_STEPS`` scheduler events and more than one test is
served per park; everything else replays from scratch.  MG class T has
one site of each kind: ``Gather@mg_kernel.py:177`` parks ~370 steps
into the 12.3k-step golden run, ``Allreduce@mg_kernel.py:161`` ~12.3k
steps in.  Pinned here:

* the profile's depth figure is exactly the prefix the engine parks at;
* the default gives bit-identical streams to forced fork and forced
  scratch, serially and under ``jobs=2`` with a killed-and-resumed DB,
  and forks exactly the deep point;
* the default keeps the ``s1`` layout and digest of ``snapshot=True``;
* one-test-at-a-time serving (the sequential stopper) never forks.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import make_app
from repro.fastfit import FastFIT
from repro.injection import Campaign, enumerate_points
from repro.injection.models import draw_spec
from repro.injection.runner import InjectionRunner
from repro.obs.metrics import MetricsRegistry
from repro.profiling import profile_application
from repro.snapshot import (
    FORK_MIN_PREFIX_STEPS,
    SnapshotEngine,
    fork_pays,
    serving_summary,
    snapshot_supported,
)
from repro.steer import SequentialStopper
from repro.store import CampaignDB

from tests.store.test_equivalence import stream_signature

pytestmark = pytest.mark.skipif(
    not snapshot_supported(), reason="snapshot-and-fork needs os.fork"
)

TESTS = 3
SEED = 23


@pytest.fixture(scope="module")
def mg_app():
    return make_app("mg", "T")


@pytest.fixture(scope="module")
def mg_profile(mg_app):
    return profile_application(mg_app)


@pytest.fixture(scope="module")
def points(mg_profile):
    """``[shallow, deep]``: rank 0's Gather and final Allreduce."""
    by_site = {
        (p.collective, p.site): p
        for p in enumerate_points(mg_profile)
        if p.rank == 0 and p.invocation == 0
    }
    return [by_site["Gather", "mg_kernel.py:177"], by_site["Allreduce", "mg_kernel.py:161"]]


def run_campaign(app, profile, points, **kwargs):
    return Campaign(
        app, profile, tests_per_point=TESTS, param_policy="all", seed=SEED, **kwargs
    ).run(points)


@pytest.fixture(scope="module")
def scratch(mg_app, mg_profile, points):
    return run_campaign(mg_app, mg_profile, points, snapshot=False)


def test_prefix_depth_is_the_parked_prefix(mg_app, mg_profile, points):
    """The profile's figure equals the scheduler steps of the state the
    engine parks at, i.e. the prefix a fork saves each test."""
    engine = SnapshotEngine(InjectionRunner(mg_app, mg_profile))
    for point in points:
        rng = np.random.default_rng(0)
        engine.serve_point(point, [(draw_spec(point, rng, policy="all"), rng)])
        assert engine.cache.get(point).steps == mg_profile.prefix_steps(point)


def test_rule_forks_deep_batches_only(mg_profile, points):
    shallow, deep = points
    assert mg_profile.prefix_steps(shallow) < FORK_MIN_PREFIX_STEPS
    assert mg_profile.prefix_steps(deep) >= FORK_MIN_PREFIX_STEPS
    assert not fork_pays(mg_profile, shallow, TESTS)
    assert fork_pays(mg_profile, deep, TESTS)
    # One test per park never forks, however deep.
    assert not fork_pays(mg_profile, deep, 1)
    # A point the profile never saw has no known prefix.
    ghost = dataclasses.replace(deep, invocation=10_000)
    assert mg_profile.prefix_steps(ghost) == 0
    assert not fork_pays(mg_profile, ghost, TESTS)


@pytest.mark.parametrize("app", ["is", "ft", "lu"])
def test_npb_class_t_representatives_all_replay(app):
    """IS, FT and LU at class T run 280-566 golden steps: no point of
    theirs is deep enough to fork."""
    ff = FastFIT.for_app(app, "T")
    profile = ff.profile()
    assert profile.golden_steps < FORK_MIN_PREFIX_STEPS
    assert not any(
        fork_pays(profile, p, 25) for p in ff.prune().representative_points
    )


def test_default_matches_both_engines_and_forks_only_the_deep_point(
    mg_app, mg_profile, points, scratch, monkeypatch
):
    forked = run_campaign(mg_app, mg_profile, points, snapshot=True)
    served = []
    real = SnapshotEngine.serve_point

    def recording(self, point, tasks, metrics=None):
        served.append(point)
        return real(self, point, tasks, metrics=metrics)

    monkeypatch.setattr(SnapshotEngine, "serve_point", recording)
    m = MetricsRegistry()
    auto = run_campaign(mg_app, mg_profile, points, metrics=m)

    assert stream_signature(auto) == stream_signature(forked) == stream_signature(scratch)
    assert auto.outcome_histogram() == scratch.outcome_histogram()
    assert served == [points[1]]
    counters = m.to_dict()["counters"]
    assert counters["snapshot.fork_points"] == 1
    assert counters["snapshot.forks"] == TESTS
    assert counters["snapshot.depth_scratch_points"] == 1
    assert counters["snapshot.depth_scratch_tests"] == TESTS
    assert "snapshot.fallback_tests" not in counters
    assert f"{TESTS} forked tests, {TESTS} tests at 1 points" in serving_summary(counters)


def test_default_jobs2_db_killed_and_resumed_matches(
    mg_app, mg_profile, points, scratch, tmp_path
):
    m = MetricsRegistry()
    whole = run_campaign(mg_app, mg_profile, points, jobs=2, metrics=m)
    assert stream_signature(whole) == stream_signature(scratch)
    counters = m.to_dict()["counters"]
    assert counters["snapshot.fork_points"] == 1
    assert counters["snapshot.forks"] == TESTS
    assert counters["snapshot.depth_scratch_points"] == 1

    class Killed(RuntimeError):
        pass

    def killer(done, total):
        if done >= total // 2:
            raise Killed(f"{done}/{total}")

    db = tmp_path / "auto.sqlite"
    with pytest.raises(Killed):
        run_campaign(mg_app, mg_profile, points, jobs=2, db_path=db, progress=killer)
    resumed_metrics = MetricsRegistry()
    resumed = run_campaign(
        mg_app, mg_profile, points, jobs=2, db_path=db, resume=True,
        metrics=resumed_metrics,
    )
    assert stream_signature(resumed) == stream_signature(scratch)
    assert resumed_metrics.to_dict()["counters"]["exec.units_resumed"] >= 1


def test_default_keeps_the_forced_fork_digest_and_layout(lu_app, lu_profile, tmp_path):
    points = enumerate_points(lu_profile)[:2]
    stored = {}
    for mode in (None, True, False):
        db = tmp_path / f"{mode}.sqlite"
        Campaign(
            lu_app, lu_profile, tests_per_point=4, seed=5, db_path=db, snapshot=mode
        ).run(points)
        with CampaignDB(db) as cdb:
            c = cdb.campaign()
            stored[mode] = (c["digest"], sorted(cdb.load_units(c["id"])))
    assert stored[None] == stored[True]
    # Site-major: one unit per point carrying all its tests.
    assert stored[None][1] == ["p0:t0-4", "p1:t0-4"]
    assert stored[False][0] != stored[True][0]


def test_sequential_stopper_never_forks_under_the_default(
    mg_app, mg_profile, points
):
    deep = points[1:]

    def stopped(**kwargs):
        return Campaign(
            mg_app, mg_profile, tests_per_point=4, param_policy="all", seed=SEED,
            stopper=SequentialStopper(ci_width=0.9, min_tests=2), **kwargs,
        ).run(deep)

    m = MetricsRegistry()
    auto = stopped(metrics=m)
    assert stream_signature(auto) == stream_signature(stopped(snapshot=True))
    counters = m.to_dict()["counters"]
    assert "snapshot.forks" not in counters
    assert "snapshot.fork_points" not in counters
    assert counters["snapshot.depth_scratch_points"] == 1
    assert counters["snapshot.depth_scratch_tests"] == auto.n_tests()
