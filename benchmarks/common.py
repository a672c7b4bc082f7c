"""Shared infrastructure for the paper-reproduction benchmark harness.

Campaigns are the expensive part (one simulated job per injection test),
so every benchmark draws from a process-wide + on-disk cache keyed by
the campaign configuration.  Delete ``benchmarks/.cache`` to regenerate
everything from scratch.

Scale note: pruning studies (Table III) run at the paper's 32 ranks
(problem class S) because pruning is pure profiling; injection campaigns
default to class T (4 ranks) so the whole harness completes in minutes —
the response *shapes* (who fails how) are rank-count invariant, see
EXPERIMENTS.md.  Set ``FASTFIT_BENCH_SCALE=paper`` for class-S campaigns.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path

from repro.apps import make_app
from repro.injection import Campaign, CampaignResult, enumerate_points
from repro.profiling import ApplicationProfile, profile_application
from repro.pruning import select_context, select_semantic

CACHE_DIR = Path(__file__).parent / ".cache"

#: "quick" (default) or "paper" — campaign problem class selection.
SCALE = os.environ.get("FASTFIT_BENCH_SCALE", "quick")

CAMPAIGN_CLASS = "S" if SCALE == "paper" else "T"
PRUNING_CLASS = "S"  # pruning is cheap: always at the paper's 32 ranks
TESTS_PER_POINT = 60 if SCALE == "paper" else 25

_memory: dict[str, object] = {}


def _cached(key: str, build):
    """Two-level cache: in-process dict, then pickle on disk."""
    if key in _memory:
        return _memory[key]
    CACHE_DIR.mkdir(exist_ok=True)
    digest = hashlib.sha1(key.encode()).hexdigest()[:16]
    path = CACHE_DIR / f"{digest}.pkl"
    value = None
    if path.exists():
        try:
            with path.open("rb") as fh:
                value = pickle.load(fh)
        except Exception:
            # A truncated pickle (interrupted run) must not wedge the
            # whole harness — rebuild it.
            value = None
    if value is None:
        value = build()
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as fh:
            pickle.dump(value, fh)
        tmp.replace(path)
    _memory[key] = value
    return value


def get_app(name: str, problem_class: str | None = None):
    return make_app(name, problem_class or CAMPAIGN_CLASS)


def get_profile(name: str, problem_class: str | None = None) -> ApplicationProfile:
    klass = problem_class or CAMPAIGN_CLASS
    # Profiles hold generators-free data only; safe to keep in memory.
    key = f"profile/{name}/{klass}"
    if key not in _memory:
        _memory[key] = profile_application(make_app(name, klass))
    return _memory[key]


def get_representatives(name: str, problem_class: str | None = None):
    """Semantic + context representatives for an app."""
    profile = get_profile(name, problem_class)
    semantic = select_semantic(profile)
    context = select_context(profile, semantic.selected_points_list)
    return context.selected_points_list


def run_campaign(
    name: str,
    points=None,
    tests_per_point: int | None = None,
    param_policy: str = "buffer",
    seed: int = 2015,
    problem_class: str | None = None,
    max_points: int | None = None,
) -> CampaignResult:
    """Cached campaign over the app's representative points."""
    klass = problem_class or CAMPAIGN_CLASS
    tests = tests_per_point or TESTS_PER_POINT
    points_desc = "reps" if points is None else f"custom{len(points)}"
    key = f"campaign/{name}/{klass}/{points_desc}/{tests}/{param_policy}/{seed}/{max_points}"

    def build():
        app = make_app(name, klass)
        profile = get_profile(name, klass)
        pts = points if points is not None else get_representatives(name, klass)
        if max_points is not None and len(pts) > max_points:
            stride = max(1, len(pts) // max_points)
            pts = pts[::stride][:max_points]
        campaign = Campaign(
            app, profile, tests_per_point=tests, param_policy=param_policy, seed=seed
        )
        return campaign.run(pts)

    return _cached(key, build)


def full_space_size(name: str, problem_class: str | None = None) -> int:
    return len(enumerate_points(get_profile(name, problem_class)))


def _count_tests(value) -> int:
    """Injection tests inside a benchmark's return value, recursively."""
    if isinstance(value, CampaignResult):
        return len(value.all_tests())
    if isinstance(value, dict):
        return sum(_count_tests(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_count_tests(v) for v in value)
    return 0


def benchmark_record(bench) -> dict:
    """One committed-JSON record from a pytest-benchmark result.

    Trimmed to what the ROADMAP's benchmark trajectory needs — stable
    identity plus throughput — so committed ``BENCH_*.json`` files diff
    cleanly across machines and runs.
    """
    stats = bench.stats.stats if hasattr(bench.stats, "stats") else bench.stats
    extra = dict(bench.extra_info)
    total = getattr(stats, "total", None)
    mean = getattr(stats, "mean", None)
    record = {
        "name": bench.name,
        "group": bench.group,
        "rounds": getattr(stats, "rounds", None),
        "mean_s": mean,
        "wall_clock_s": total,
        "extra_info": extra,
    }
    n_tests = extra.get("n_tests")
    if n_tests and mean:
        record["tests_per_sec"] = n_tests / mean
    return record


def emit_benchmark_json(path, benches, session_meta: dict | None = None) -> Path:
    """Write the committed benchmark JSON (``--emit-json BENCH_<name>.json``).

    ``benches`` is the benchmark list pytest-benchmark collected during
    the session; ``session_meta`` adds environment context (scale,
    platform) to the header, which always records the host's
    ``cpu_count``.
    """
    import json
    import platform
    import sys
    import time

    out = Path(path)
    payload = {
        "schema": 1,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": SCALE,
        "campaign_class": CAMPAIGN_CLASS,
        "tests_per_point": TESTS_PER_POINT,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "benchmarks": [benchmark_record(b) for b in benches],
    }
    if session_meta:
        payload.update(session_meta)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def once(benchmark, fn, n_tests: int | None = None):
    """Benchmark an expensive step exactly once (no warmup rounds).

    Annotates the run with how many injection tests the step performed —
    passed explicitly via ``n_tests``, or counted from any
    ``CampaignResult`` objects in the return value.  The JSON hook in
    ``conftest.py`` turns the count into ``tests_per_sec`` in the
    emitted benchmark JSON.
    """
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    tests = n_tests if n_tests is not None else _count_tests(result)
    if tests:
        benchmark.extra_info["n_tests"] = int(tests)
    return result
