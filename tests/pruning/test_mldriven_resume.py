"""Resume and scheduling equivalence for the ML-driven campaign.

``ml_driven_campaign`` batches through ``Campaign.run`` with global
point indices and a whole-candidate-list digest, so a run killed between
batches and resumed from the SQLite store must replay to exactly the
``MLDrivenResult`` an uninterrupted run produces — as must a ``--jobs``
run of the same configuration.
"""

import pytest

from repro.injection.space import enumerate_points
from repro.pruning.mldriven import level_labeler, ml_driven_campaign

TESTS_PER_POINT = 6
BATCH_SIZE = 4
SEED = 7
THRESHOLD = 0.5
N_POINTS = 12


@pytest.fixture(scope="module")
def lu_points(lu_profile):
    return enumerate_points(lu_profile)[:N_POINTS]


def run_ml(app, profile, points, **kw):
    return ml_driven_campaign(
        app,
        profile,
        points,
        threshold=THRESHOLD,
        tests_per_point=TESTS_PER_POINT,
        batch_size=BATCH_SIZE,
        param_policy="all",
        seed=SEED,
        # Fork explicitly: LU class T is too shallow for the default.
        snapshot=True,
        **kw,
    )


def fingerprint(result):
    return {
        "threshold": result.threshold,
        "reached": result.reached_threshold,
        "history": result.accuracy_history,
        "predicted": {str(pt): lbl for pt, lbl in sorted(result.predicted.items())},
        "tested": {
            str(pt): [
                (t.spec.param, str(t.spec.bit), t.outcome.value)
                for t in pr.tests
            ]
            for pt, pr in sorted(result.tested.items())
        },
    }


@pytest.fixture(scope="module")
def serial_fingerprint(lu_app, lu_profile, lu_points):
    result = run_ml(lu_app, lu_profile, lu_points)
    # Sanity: the configuration actually exercises the early stop, so
    # resume equivalence is tested on a run with a predicted remainder.
    assert result.reached_threshold
    assert result.predicted
    return fingerprint(result)


class Killed(RuntimeError):
    """Injected mid-train crash."""


def make_killer_labeler(kill_after: int):
    """A level labeler that dies on its ``kill_after``-th invocation —
    i.e. partway through computing the training labels."""
    base, names = level_labeler()
    calls = {"n": 0}

    def labeler(pr):
        calls["n"] += 1
        if calls["n"] >= kill_after:
            raise Killed(f"injected kill at labeler call {calls['n']}")
        return base(pr)

    return labeler, names


def test_jobs_matches_serial(serial_fingerprint, lu_app, lu_profile, lu_points):
    parallel = run_ml(lu_app, lu_profile, lu_points, jobs=2)
    assert fingerprint(parallel) == serial_fingerprint


def test_store_backed_matches_serial(
    serial_fingerprint, lu_app, lu_profile, lu_points, tmp_path
):
    stored = run_ml(
        lu_app, lu_profile, lu_points, db_path=tmp_path / "ml.sqlite"
    )
    assert fingerprint(stored) == serial_fingerprint


def test_killed_mid_train_resumes_identically(
    serial_fingerprint, lu_app, lu_profile, lu_points, tmp_path
):
    # The first batch's tests complete and land in the store; the crash
    # hits while labelling them for training.  The resumed run replays
    # the recorded units and continues to the same result.
    db = tmp_path / "ml.sqlite"
    labeler, names = make_killer_labeler(kill_after=3)
    with pytest.raises(Killed):
        run_ml(
            lu_app,
            lu_profile,
            lu_points,
            labeler=labeler,
            label_names=names,
            db_path=db,
        )
    assert db.exists()
    resumed = run_ml(lu_app, lu_profile, lu_points, db_path=db, resume=True)
    assert fingerprint(resumed) == serial_fingerprint


def test_killed_during_verification_resumes_identically(
    serial_fingerprint, lu_app, lu_profile, lu_points, tmp_path
):
    # Batch 0 labels 4 points for training; killing on call 6 lands in
    # batch 1's verification labelling, after both batches' tests are in
    # the store.
    db = tmp_path / "ml2.sqlite"
    labeler, names = make_killer_labeler(kill_after=6)
    with pytest.raises(Killed):
        run_ml(
            lu_app,
            lu_profile,
            lu_points,
            labeler=labeler,
            label_names=names,
            db_path=db,
        )
    resumed = run_ml(lu_app, lu_profile, lu_points, db_path=db, resume=True)
    assert fingerprint(resumed) == serial_fingerprint
