"""Machine-learning-driven fault injection (paper § III-C / § IV-D).

The injection and learning phases alternate: inject a batch of points,
use the next batch to *verify* the current model, and stop as soon as
the verification accuracy reaches the user's threshold — every point not
yet tested then gets its sensitivity *predicted* instead of measured.
In the worst case the loop runs out of points and degenerates to the
traditional campaign, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..analysis.sensitivity import QUARTILE_LEVELS, LevelScheme
from ..apps.base import Application
from ..injection.campaign import Campaign, PointResult
from ..injection.outcome import OUTCOME_ORDER
from ..injection.space import InjectionPoint
from ..ml.features import features_matrix
from ..ml.metrics import accuracy
from ..ml.random_forest import RandomForestClassifier
from ..profiling.profiler import ApplicationProfile

Labeler = Callable[[PointResult], int]


def level_labeler(scheme: LevelScheme = QUARTILE_LEVELS) -> tuple[Labeler, tuple[str, ...]]:
    """Label points by error-rate level (the paper's default target)."""
    return (lambda pr: scheme.level_of(pr.error_rate)), tuple(scheme.names)


def outcome_labeler() -> tuple[Labeler, tuple[str, ...]]:
    """Label points by majority response type."""
    return (
        lambda pr: OUTCOME_ORDER.index(pr.majority_outcome()),
        tuple(o.value for o in OUTCOME_ORDER),
    )


@dataclass
class MLDrivenResult:
    """Outcome of one ML-driven injection campaign."""

    threshold: float
    label_names: tuple[str, ...]
    tested: dict[InjectionPoint, PointResult] = field(default_factory=dict)
    predicted: dict[InjectionPoint, int] = field(default_factory=dict)
    accuracy_history: list[float] = field(default_factory=list)
    model: RandomForestClassifier | None = None
    reached_threshold: bool = False

    @property
    def total_points(self) -> int:
        return len(self.tested) + len(self.predicted)

    @property
    def test_reduction(self) -> float:
        """Fraction of points whose tests were *skipped* thanks to the
        prediction model — the "ML" column of Table III."""
        total = self.total_points
        return len(self.predicted) / total if total else 0.0

    @property
    def final_accuracy(self) -> float:
        return self.accuracy_history[-1] if self.accuracy_history else 0.0


def ml_driven_campaign(
    app: Application,
    profile: ApplicationProfile,
    points: Sequence[InjectionPoint],
    labeler: Labeler | None = None,
    label_names: tuple[str, ...] | None = None,
    threshold: float = 0.65,
    tests_per_point: int = 40,
    batch_size: int | None = None,
    param_policy: str = "buffer",
    seed: int = 0,
    n_estimators: int = 24,
    metrics=None,
    jobs: int = 1,
    db_path=None,
    resume: bool = False,
    snapshot: bool | None = None,
) -> MLDrivenResult:
    """Run the inject → learn → verify loop of FastFIT's learning phase.

    ``threshold`` is the user's prediction-accuracy target; smaller
    thresholds stop earlier and skip more tests (the trade-off of
    Fig. 6).  ``metrics`` optionally records per-batch verification
    accuracy and the final tested/predicted split under ``ml.*`` (the
    inner campaign also records ``campaign.*``).

    ``jobs``/``db_path``/``resume`` route each batch through the
    sharded engine and/or the SQLite store with bit-identical results:
    batches carry their global point indices (the ``SeedSequence``
    contract), share one digest computed over the full candidate list,
    and a killed-and-resumed run replays recorded units to the same
    :class:`MLDrivenResult` an uninterrupted one produces.
    """
    if labeler is None:
        labeler, label_names = level_labeler()
    if label_names is None:
        raise ValueError("label_names required when passing a custom labeler")

    rng = np.random.default_rng(seed)
    points = list(points)
    order = list(rng.permutation(len(points)))
    shuffled = [points[i] for i in order]
    if batch_size is None:
        batch_size = max(4, len(shuffled) // 8)

    digest = None
    if db_path is not None:
        from ..exec.checkpoint import campaign_digest
        from ..exec.sharding import default_unit_tests, unit_layout

        layout = unit_layout(snapshot)
        unit_tests = (
            max(1, tests_per_point)
            if layout == "s1"
            else default_unit_tests(tests_per_point)
        )
        digest = campaign_digest(
            app,
            seed,
            tests_per_point,
            param_policy,
            unit_tests,
            points,
            layout=layout,
            extra={
                "ml": {
                    "threshold": threshold,
                    "batch_size": batch_size,
                    "n_estimators": n_estimators,
                }
            },
        )

    campaign = Campaign(
        app,
        profile,
        tests_per_point=tests_per_point,
        param_policy=param_policy,
        seed=seed,
        metrics=metrics,
        jobs=jobs,
        db_path=db_path,
        resume=resume,
        snapshot=snapshot,
    )
    result = MLDrivenResult(threshold=threshold, label_names=label_names)

    def labels_of(prs: dict[InjectionPoint, PointResult]) -> tuple[list[InjectionPoint], np.ndarray]:
        pts = sorted(prs)
        return pts, np.array([labeler(prs[p]) for p in pts], dtype=np.int64)

    model: RandomForestClassifier | None = None
    idx = 0
    batch_no = 0
    while idx < len(shuffled):
        batch = shuffled[idx : idx + batch_size]
        idx += len(batch)
        batch_indices = [order[idx - len(batch) + j] for j in range(len(batch))]
        if jobs != 1 or db_path is not None:
            # Sharded/persistent path: one Campaign.run per batch, global
            # indices preserved, all batches in one store campaign row.
            sub = campaign.run(batch, point_indices=batch_indices, digest=digest)
            measured = {pt: sub.points[pt] for pt in batch}
            if db_path is not None:
                # Later batches must not cascade-wipe the campaign row.
                campaign.resume = True
        else:
            measured = {
                pt: campaign.run_point(pt, point_index=pi)
                for pt, pi in zip(batch, batch_indices)
            }

        if model is not None:
            # Verification: predict the fresh batch, compare to reality.
            pts, y_true = labels_of(measured)
            y_pred = model.predict(features_matrix(profile, pts))
            acc = accuracy(y_true, y_pred)
            result.accuracy_history.append(acc)
            if metrics is not None:
                metrics.histogram("ml.batch_accuracy").observe(acc)
            result.tested.update(measured)
            if acc >= threshold:
                result.reached_threshold = True
                break
        else:
            result.tested.update(measured)

        pts, y = labels_of(result.tested)
        model = RandomForestClassifier(
            n_estimators=n_estimators, seed=seed + batch_no
        ).fit(features_matrix(profile, pts), y)
        batch_no += 1

    result.model = model
    remaining = shuffled[idx:]
    if remaining and model is not None:
        preds = model.predict(features_matrix(profile, remaining))
        result.predicted = {pt: int(p) for pt, p in zip(remaining, preds)}
    if metrics is not None:
        metrics.gauge("ml.tested_points").set(len(result.tested))
        metrics.gauge("ml.predicted_points").set(len(result.predicted))
        metrics.gauge("ml.test_reduction").set(result.test_reduction)
        metrics.gauge("ml.final_accuracy").set(result.final_accuracy)
    return result
