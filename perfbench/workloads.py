"""The four benchmark workloads, their answers, and the correctness gate.

Each workload is a closed loop in one benchmark process: a *round* builds
its inputs from a round seed, runs to the answer through FastFIT's
public API, and returns a :class:`Round` with its timings, its answer
(fingerprinted), and the tests the gate replays from scratch.

Why these four (see README.md for the metric map):

* ``npb_shallow`` — short runs (300–600 steps) whose cost is fork, reap
  and classify rather than simulation: the snapshot engine's overhead.
* ``mg_deep`` — a deep MG point whose 12k-step runs are dominated by
  simmpi point-to-point halo traffic: the simulator and the snapshot
  prefix.
* ``lammps_steer`` — adaptive steering with two pool workers and a
  campaign store: supervised dispatch, store commits, forest fits and
  one-test-at-a-time serving under the Wilson stopper.
* ``table3_setup`` — Table III at 32 ranks: profiling and pruning long
  enough for set-up time to hold steady, plus the LAMMPS ML column.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.profiling as profiling
import repro.pruning as pruning
from repro import FastFIT
from repro.apps import make_app
from repro.injection import InjectionRunner, Outcome, enumerate_points
from repro.injection.models import draw_spec
from repro.obs.metrics import MetricsRegistry

#: Every size a workload uses; recorded in each result and folded into
#: the fingerprint key so a resized workload never meets stale answers.
SIZES = {
    # Points per round from each app's pruned representatives, taken in
    # turn or, with "rotate" off, the same in every round (see
    # :func:`round_points`); 25 tests per point is the shape of the
    # repo's measured campaign baselines.
    "npb_shallow": {
        "apps": {"is": 2, "ft": 2, "lu": 4}, "class": "T", "tests_per_point": 25, "rotate": True,
    },
    # MG's sites differ tenfold in cost (a fault in the last collective
    # or in a barrier ends the run at once) and a run holds only four or
    # five rounds, so which sites a run reaches would decide its figures:
    # every round visits the same point instead, a deep one.
    "mg_deep": {"app": "mg", "class": "T", "points": 1, "tests_per_point": 25, "rotate": False},
    # Steering over 4 fixed semantic survivors in batches of 2: the seed
    # round takes 2, the next the 2 left, so every round tests the same
    # points and only the fault draws and the order vary with the seed
    # (LAMMPS points differ several-fold in cost per test).  Up to 16
    # tests per point lets the Wilson stopper close streams at 12.  The
    # points are the second block of 4 of the fixed shuffle: the first
    # holds a survivor with a rare fault whose run lasts tens of times
    # the golden run, and how many of those a seed drew, not the
    # steering layers this workload is for, set a run's figures.
    "lammps_steer": {
        "app": "lammps", "class": "T", "jobs": 2, "points": 4, "block": 1,
        "tests_per_point": 16, "batch_size": 2, "accuracy_target": 1.0,
    },
    "table3_setup": {
        "apps": ["is", "ft", "mg", "lu", "lammps"], "class": "S",
        "ml": {"app": "lammps", "class": "T", "threshold": 0.65, "tests_per_point": 10,
               "batch_size": 6, "param_policy": "buffer", "seed": 33},
    },
}
#: Per-round layer figures read from results and the program's own
#: registries (the rest of the per-layer metrics come from spans).
ROUND_LAYERS = (
    "snapshot.hits", "snapshot.misses", "snapshot.fallback_tests", "snapshot.fastforward_s",
    "snapshot.bytes", "exec.units", "exec.retries", "exec.worker_deaths", "exec.quarantined",
    "exec.cpu_util", "store.db_bytes", "steer.rounds", "steer.tests_run", "steer.stop_checks",
    "steer.tests_saved_frac",
)
#: Fixes the order in which rounds visit representative points.
POINT_ORDER_SEED = 2015
#: Tests per campaign replayed from scratch by the gate, and the cap per run.
REPLAYS_PER_CAMPAIGN = 2
REPLAYS_PER_RUN = 12


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (VmHWM) of this process.
    Where the kernel refuses, VmHWM stays the process-lifetime peak."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """VmHWM of this process since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


@dataclass
class Replay:
    """One executed test the gate re-runs from scratch."""

    app: object
    profile: object
    campaign_seed: int
    point: object
    point_index: int
    test_index: int
    expected: object  # TestResult


@dataclass
class Round:
    seed: int
    #: The round's index in its run; it picks the points the round visits.
    index: int = 0
    #: What the answer depends on besides the sizes: the round seed and
    #: index, or a constant for a workload whose inputs are fixed.
    key: str = ""
    setup_s: float = 0.0
    #: Set-up timed alone around the round (see SETUP_SAMPLES).
    setup_extra: list = field(default_factory=list)
    inject_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    tests: int = 0
    failed: int = 0
    answer: dict = field(default_factory=dict)
    replays: list = field(default_factory=list)
    layers: dict = field(default_factory=lambda: dict.fromkeys(ROUND_LAYERS, 0))
    #: ``table3_setup`` only: the pruning columns and the final rows.
    table3: dict = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        blob = json.dumps(self.answer, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


class Phases:
    """Round timing: set-up ends at the first injection, the injection
    phase at the answer.  Opens ``phase.*`` spans when traced."""

    def __init__(self, rec, jobs: int = 1):
        self.rec = rec
        self.jobs = jobs
        reset_peak_rss()
        self.t0 = time.perf_counter()
        self.c0 = cpu_seconds()
        self.marks: dict[str, tuple[float, float]] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        start, cpu = time.perf_counter(), cpu_seconds()
        ctx = self.rec.span(f"phase.{name}") if self.rec is not None else contextlib.nullcontext()
        with ctx:
            yield
        self.marks[name] = (time.perf_counter() - start, cpu_seconds() - cpu)

    def finish(self, rnd: Round) -> Round:
        rnd.wall_s = time.perf_counter() - self.t0
        rnd.cpu_s = cpu_seconds() - self.c0
        rnd.peak_rss_mb = peak_rss_mb()
        rnd.setup_s = self.marks["setup"][0]
        rnd.inject_s, inject_cpu = self.marks["inject"]
        rnd.layers["exec.cpu_util"] = inject_cpu / (rnd.inject_s * self.jobs)
        return rnd


def _histogram(counts) -> dict[str, int]:
    return {o.name: n for o, n in counts.items()}


def tally(rnd: Round, point_results) -> None:
    """Count executed tests as attempted and ``TOOL_ERROR`` verdicts
    (quarantined units included) as failed."""
    for pr in point_results:
        rnd.tests += pr.n_tests
        rnd.failed += pr.outcomes.get(Outcome.TOOL_ERROR, 0)


def _sample_replays(rnd, key, app, profile, campaign_seed, indexed_results) -> None:
    """Pick :data:`REPLAYS_PER_CAMPAIGN` executed tests, deterministically
    from ``key``; ``indexed_results`` is ``[(point_index, PointResult)]``."""
    pool = [
        (pi, pr.point, ti, test)
        for pi, pr in indexed_results
        for ti, test in enumerate(pr.tests)
    ]
    if not pool:
        return
    rng = np.random.default_rng(np.random.SeedSequence(key))
    for j in sorted(rng.choice(len(pool), size=min(REPLAYS_PER_CAMPAIGN, len(pool)), replace=False)):
        pi, point, ti, test = pool[j]
        rnd.replays.append(Replay(app, profile, campaign_seed, point, pi, ti, test))


def _registry_layers(reg: MetricsRegistry, out: dict) -> None:
    d = reg.to_dict()
    for name in ("snapshot.hits", "snapshot.misses", "snapshot.fallback_tests",
                 "exec.units", "exec.retries", "exec.worker_deaths", "exec.quarantined"):
        out[name] += d["counters"].get(name, 0)
    out["snapshot.fastforward_s"] += d["timers"].get("snapshot.fastforward_s", {}).get("total", 0.0)
    out["snapshot.bytes"] += d["gauges"].get("snapshot.bytes", 0.0)


# -- workloads -------------------------------------------------------------
#
# Each workload is a set-up function (everything up to the first
# injection) and a round function that times it and then injects.  The
# set-up functions also run alone between rounds, so a run has enough
# set-up samples for a steady mean (see SETUP_SAMPLES).


def round_points(points, k: int, r: int) -> list:
    """The ``k`` points round ``r`` runs: the ``r``-th block of ``k`` in
    one fixed shuffle of ``points``, wrapping around.  Every run visits
    the same points in the same order whatever its seed (the seed draws
    the faults), so runs differ in fault draws, not in which sites they
    measure: a single site may cost ten times another."""
    n = len(points)
    order = np.random.default_rng(POINT_ORDER_SEED).permutation(n)
    return [points[order[(r * k + j) % n]] for j in range(min(k, n))]


def npb_shallow_setup(seed: int, r: int, tmp: Path) -> list:
    cfg = SIZES["npb_shallow"]
    studies = []
    for k, (name, n_points) in enumerate(cfg["apps"].items()):
        ff = FastFIT.for_app(name, cfg["class"], seed=seed, tests_per_point=cfg["tests_per_point"])
        points = round_points(ff.prune().representative_points, n_points, r if cfg["rotate"] else 0)
        studies.append((ff, points))
    return studies


def npb_shallow(seed: int, r: int, rec, tmp: Path) -> Round:
    ph, rnd = Phases(rec), Round(seed, r)
    with ph.phase("setup"):
        studies = npb_shallow_setup(seed, r, tmp)
    with ph.phase("inject"):
        results = [ff.campaign(points) for ff, points in studies]
    for k, ((ff, _), res) in enumerate(zip(studies, results)):
        rnd.answer[ff.app.name] = _histogram(res.outcome_histogram())
        tally(rnd, res.points.values())
        _sample_replays(rnd, [seed, k], ff.app, ff.profile(), seed, enumerate(res.points.values()))
        _registry_layers(ff.metrics, rnd.layers)
    return ph.finish(rnd)


def mg_deep_setup(seed: int, r: int, tmp: Path):
    cfg = SIZES["mg_deep"]
    ff = FastFIT.for_app(cfg["app"], cfg["class"], seed=seed, tests_per_point=cfg["tests_per_point"])
    return ff, round_points(ff.prune().representative_points, cfg["points"], r if cfg["rotate"] else 0)


def mg_deep(seed: int, r: int, rec, tmp: Path) -> Round:
    ph, rnd = Phases(rec), Round(seed, r)
    with ph.phase("setup"):
        ff, points = mg_deep_setup(seed, r, tmp)
    with ph.phase("inject"):
        res = ff.campaign(points)
    rnd.answer = {"mg": _histogram(res.outcome_histogram())}
    tally(rnd, res.points.values())
    _sample_replays(rnd, [seed], ff.app, ff.profile(), seed, enumerate(res.points.values()))
    _registry_layers(ff.metrics, rnd.layers)
    return ph.finish(rnd)


def lammps_steer_setup(seed: int, r: int, tmp: Path):
    cfg = SIZES["lammps_steer"]
    ff = FastFIT.for_app(
        cfg["app"], cfg["class"], seed=seed, jobs=cfg["jobs"],
        tests_per_point=cfg["tests_per_point"], db_path=tmp / "campaign.db",
    )
    survivors = pruning.select_semantic(ff.profile()).selected_points_list
    return ff, round_points(survivors, cfg["points"], cfg["block"])


def lammps_steer(seed: int, r: int, rec, tmp: Path) -> Round:
    cfg = SIZES["lammps_steer"]
    ph, rnd = Phases(rec, jobs=cfg["jobs"]), Round(seed, r)
    db_dir = tmp / f"steer-{seed}"
    shutil.rmtree(db_dir, ignore_errors=True)
    db_dir.mkdir(parents=True)
    try:
        with ph.phase("setup"):
            ff, points = lammps_steer_setup(seed, r, db_dir)
        with ph.phase("inject"):
            res = ff.steer(
                points=points, accuracy_target=cfg["accuracy_target"],
                batch_size=cfg["batch_size"],
            )
        where = {p: i for i, p in enumerate(points)}
        rnd.answer = {
            "curve": [[n, repr(a)] for n, a in res.curve()],
            "stop_reason": res.stop_reason,
            "tested": sorted([where[p], _histogram(pr.outcomes)] for p, pr in res.tested.items()),
            "predicted": sorted([where[p], label] for p, label in res.predicted.items()),
        }
        tally(rnd, res.tested.values())
        _sample_replays(
            rnd, [seed], ff.app, ff.profile(), seed,
            sorted((where[p], pr) for p, pr in res.tested.items()),
        )
        _registry_layers(ff.metrics, rnd.layers)
        planned = res.tests_run + res.tests_saved
        rnd.layers.update({
            "store.db_bytes": sum(f.stat().st_size for f in db_dir.iterdir()),
            "steer.rounds": len(res.rounds),
            "steer.tests_run": res.tests_run,
            # The stopper is consulted once after every executed test.
            "steer.stop_checks": res.tests_run,
            "steer.tests_saved_frac": res.tests_saved / planned if planned else 0.0,
        })
    finally:
        shutil.rmtree(db_dir, ignore_errors=True)
    return ph.finish(rnd)


def table3_rows(cfg) -> dict:
    """Profile and prune every app at class S; the pruning columns."""
    rows = {}
    for name in cfg["apps"]:
        profile = profiling.profile_application(make_app(name, cfg["class"]))
        semantic = pruning.select_semantic(profile)
        context = pruning.select_context(profile, semantic.selected_points_list)
        total = len(enumerate_points(profile))
        rows[name] = {
            "MPI": semantic.reduction,
            "App": context.reduction,
            "ML": None,
            "Total": 1.0 - len(context.selected_points_list) / total if total else 0.0,
        }
    return rows


def table3_setup_setup(seed: int, r: int, tmp: Path):
    cfg = SIZES["table3_setup"]
    ml_cfg = cfg["ml"]
    rows = table3_rows(cfg)
    ml_app = make_app(ml_cfg["app"], ml_cfg["class"])
    ml_profile = profiling.profile_application(ml_app)
    return rows, ml_app, ml_profile, pruning.select_semantic(ml_profile).selected_points_list


def table3_setup(seed: int, r: int, rec, tmp: Path) -> Round:
    ml_cfg = SIZES["table3_setup"]["ml"]
    # Table III's inputs are the paper configuration: no seed enters.
    ph, rnd = Phases(rec), Round(seed, r, key="paper-config")
    registry = MetricsRegistry()
    with ph.phase("setup"):
        rows, ml_app, ml_profile, survivors = table3_setup_setup(seed, r, tmp)
    with ph.phase("inject"):
        # The ML column exactly as the paper-table benchmark computes it:
        # an ML-driven campaign over the LAMMPS semantic survivors.
        ml = pruning.ml_driven_campaign(
            ml_app, ml_profile, survivors,
            threshold=ml_cfg["threshold"], tests_per_point=ml_cfg["tests_per_point"],
            batch_size=ml_cfg["batch_size"], param_policy=ml_cfg["param_policy"],
            seed=ml_cfg["seed"], metrics=registry,
        )
    rnd.table3["pruning"] = {name: dict(row) for name, row in rows.items()}
    lammps = rows["lammps"]
    lammps["ML"] = ml.test_reduction
    lammps["Total"] = 1.0 - (1.0 - lammps["Total"]) * (1.0 - ml.test_reduction)
    rnd.answer = {name: {k: repr(v) for k, v in row.items()} for name, row in rows.items()}
    where = {p: i for i, p in enumerate(survivors)}
    tally(rnd, ml.tested.values())
    _sample_replays(
        rnd, [seed], ml_app, ml_profile, ml_cfg["seed"],
        sorted((where[p], pr) for p, pr in ml.tested.items()),
    )
    _registry_layers(registry, rnd.layers)
    rnd.table3["rows"] = rows
    return ph.finish(rnd)


WORKLOADS = {
    "npb_shallow": npb_shallow,
    "mg_deep": mg_deep,
    "lammps_steer": lammps_steer,
    "table3_setup": table3_setup,
}

#: Each workload's set-up alone, and how many extra times an untraced
#: run times it around every round.  The run reports the mean of these
#: samples and the rounds' own set-ups.  Table III's set-up takes seconds
#: and needs no extra samples.
SETUP_SAMPLES = {
    "npb_shallow": (npb_shallow_setup, 6),
    "mg_deep": (mg_deep_setup, 4),
    "lammps_steer": (lammps_steer_setup, 4),
    "table3_setup": (table3_setup_setup, 0),
}

#: Apps (and class) each workload runs, for the fault-free golden timing.
GOLDEN_APPS = {
    "npb_shallow": [(a, "T") for a in SIZES["npb_shallow"]["apps"]],
    "mg_deep": [("mg", "T")],
    "lammps_steer": [("lammps", "T")],
    "table3_setup": [(a, "S") for a in SIZES["table3_setup"]["apps"]],
}


# -- the correctness gate ----------------------------------------------------


def replay_mismatches(replays: list[Replay]) -> list[str]:
    """Re-run each sampled test from scratch through
    ``InjectionRunner.run_one`` on the campaign's
    ``SeedSequence(seed, (point, test))`` stream; describe mismatches."""
    bad = []
    runners: dict[int, InjectionRunner] = {}
    for r in replays:
        runner = runners.setdefault(id(r.profile), InjectionRunner(r.app, r.profile))
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=r.campaign_seed, spawn_key=(r.point_index, r.test_index))
        )
        spec = draw_spec(r.point, rng, policy="buffer")
        got = runner.run_one(spec, rng)
        exp = r.expected
        if (got.spec, got.outcome, got.record) != (exp.spec, exp.outcome, exp.record):
            bad.append(
                f"{r.app.name} point {r.point_index} test {r.test_index}: "
                f"campaign {exp.outcome.name} {exp.record}, replay {got.outcome.name} {got.record}"
            )
    return bad


def table3_mismatches(rounds: list[Round]) -> list[str]:
    """The pruning columns must equal what ``FastFIT(...).prune()``
    gives (the paper-table benchmark's path), and the rows must pass
    that benchmark's own shape checks."""
    cfg = SIZES["table3_setup"]
    bad = []
    for name in cfg["apps"]:
        pr = FastFIT(make_app(name, cfg["class"])).prune()
        want = {"MPI": pr.semantic_reduction, "App": pr.context_reduction,
                "ML": None, "Total": pr.combined_reduction}
        for rnd in rounds:
            row = rnd.table3["pruning"][name]
            if row != want:
                bad.append(f"table3 {name}: {row} vs FastFIT.prune {want}")
    for rnd in rounds:
        rows = rnd.table3["rows"]
        for name, r in rows.items():
            if r["MPI"] < 0.85 or r["Total"] < 0.90:
                bad.append(f"table3 {name}: reduction below the paper-table bounds: {r}")
        if rows["lammps"]["App"] < 0.4 or not rows["lammps"]["ML"] > 0.0:
            bad.append(f"table3 lammps: App/ML column out of bounds: {rows['lammps']}")
    return bad


class FingerprintStore:
    """Answer fingerprints per (workload, round seed, sizes), kept in a
    JSON file inside the checkout so every later run of the same seed
    must give the same answer."""

    def __init__(self, path: Path, workload: str):
        self.path = path
        self.prefix = workload + ":" + hashlib.sha256(
            json.dumps(SIZES[workload], sort_keys=True).encode()
        ).hexdigest()[:12]
        try:
            self.known = json.loads(path.read_text())
        except FileNotFoundError:
            self.known = {}

    def check(self, rounds: list[Round]) -> list[str]:
        bad = []
        for rnd in rounds:
            key = f"{self.prefix}:{rnd.key or f'{rnd.index}:{rnd.seed}'}"
            seen = self.known.setdefault(key, rnd.fingerprint)
            if seen != rnd.fingerprint:
                bad.append(f"answer fingerprint for {key} changed: {seen} -> {rnd.fingerprint}")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True, indent=0))
        tmp.replace(self.path)
        return bad
