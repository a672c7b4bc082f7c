"""Serial <-> parallel equivalence, stated through the replay
fingerprint: the full TestResult stream of a campaign is a pure function
of (app, points, config), whatever the worker count — and a campaign
interrupted mid-flight resumes to the same stream.  Campaigns fork
explicitly (``snapshot=True``): LU class T is too shallow for the
default to fork, and this is the fork engine's jobs-sweep coverage.
"""

import pytest

from repro.injection import Campaign, enumerate_points
from repro.verify.replay import fingerprint

TESTS_PER_POINT = 6
SEED = 17


def stream_signature(result):
    """Canonical content hash of the full TestResult stream."""
    sig = []
    for point, pr in sorted(result.points.items()):
        sig.append(
            (
                repr(point),
                [
                    (
                        repr(t.spec.point),
                        t.spec.param,
                        t.spec.bit,
                        t.outcome.name,
                        None if t.record is None else (t.record.bit, t.record.skipped),
                        t.detail,
                    )
                    for t in pr.tests
                ],
                pr.error_rate,
            )
        )
    return fingerprint(sig)


@pytest.fixture(scope="module")
def points(lu_profile):
    return enumerate_points(lu_profile)[:5]


@pytest.fixture(scope="module")
def serial_signature(lu_app, lu_profile, points):
    result = Campaign(
        lu_app, lu_profile, tests_per_point=TESTS_PER_POINT,
        param_policy="all", seed=SEED, snapshot=True,
    ).run(points)
    return stream_signature(result)


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_jobs_sweep_bit_identical(lu_app, lu_profile, points, serial_signature, jobs):
    result = Campaign(
        lu_app, lu_profile, tests_per_point=TESTS_PER_POINT,
        param_policy="all", seed=SEED, snapshot=True, jobs=jobs,
    ).run(points)
    assert stream_signature(result) == serial_signature


def test_resume_mid_campaign_bit_identical(
    tmp_path, lu_app, lu_profile, points, serial_signature
):
    """Crash the campaign halfway via the progress callback, then resume
    from the checkpoint: the merged stream must equal the uninterrupted
    run's, byte for byte."""
    ckdir = tmp_path / "ck"

    class Killed(RuntimeError):
        pass

    def killer(done, total):
        if done >= total // 2:
            raise Killed(f"{done}/{total}")

    with pytest.raises(Killed):
        Campaign(
            lu_app, lu_profile, tests_per_point=TESTS_PER_POINT,
            param_policy="all", seed=SEED, snapshot=True,
            checkpoint_dir=ckdir, progress=killer,
        ).run(points)

    resumed = Campaign(
        lu_app, lu_profile, tests_per_point=TESTS_PER_POINT,
        param_policy="all", seed=SEED, snapshot=True,
        checkpoint_dir=ckdir, resume=True,
    ).run(points)
    assert stream_signature(resumed) == serial_signature
