"""Per-layer ledger recorded from outside the program.

A :class:`SpanRecorder` wraps public functions of each FastFIT layer by
patching the name where its caller looks it up (a module global or a
class attribute), records one span per call (name, start, end, parent)
in memory, and puts every original object back on :meth:`restore`.
Nothing in ``src/`` changes, and an untraced run measures unpatched
code.

The arithmetic over spans lives here too: the median/tail percentile
rule, self time, and the assembly of the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
import types
from collections import defaultdict

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


# -- statistics --------------------------------------------------------


def tail_percentile(n: int) -> float:
    """The percentile ``_tail`` reports for ``n`` samples: the highest
    with at least :data:`TAIL_BEYOND` samples beyond it, i.e. the sample
    of rank ``n - TAIL_BEYOND``.  Below ``2 * TAIL_BEYOND + 1`` samples
    that rank is under the median, so the tail is the median, 50."""
    return 100.0 * (n - TAIL_BEYOND) / n if n > 2 * TAIL_BEYOND else 50.0


def p50_tail(values) -> tuple[float, float, int]:
    """``(median, tail, count)`` of ``values``; zeros when empty."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    median = statistics.median(xs)
    tail = xs[n - 1 - TAIL_BEYOND] if n > 2 * TAIL_BEYOND else median
    return median, tail, n


def iqr_frac(values) -> float:
    """Interquartile distance as a share of the median (0 for < 2
    samples), the spread measure the benchmark reports per metric."""
    xs = list(values)
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return (q3 - q1) / med if med else 0.0


# -- spans -------------------------------------------------------------


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread with stack discipline, so a span's
    children lie inside it and never overlap one another."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


class SpanRecorder:
    """In-memory spans plus the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(
            Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1)
        )
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (workload phases)."""
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    # -- patching --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, probe=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module, namespace or class that defines ``attr``
        itself.  ``probe(args, kwargs)``, when given, returns a callable
        taking the call's result (``None`` if it raised) and returning
        attributes stored on the span.
        """
        raw = vars(owner)[attr]
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        rec = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            finish = probe(args, kwargs) if probe is not None else None
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                if finish is not None:
                    rec.spans[idx].attrs.update(finish(result))
                rec.close(idx)

        self.patch(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value``, remembering the original."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)


# -- the layer probes --------------------------------------------------


def install_probes(rec: SpanRecorder) -> None:
    """Wrap each layer's public functions where their callers look
    them up (see README.md for the layer -> metric map)."""
    import repro.fastfit as fastfit_mod
    import repro.profiling as profiling_pkg
    import repro.pruning as pruning_pkg
    import repro.exec.supervisor as supervisor_mod
    import repro.snapshot.engine as engine_mod
    import repro.steer.driver as steer_driver_mod
    from repro.injection.campaign import Campaign
    from repro.injection.runner import InjectionRunner
    from repro.ml.random_forest import RandomForestClassifier
    from repro.simmpi.scheduler import Scheduler
    from repro.snapshot.engine import SnapshotEngine
    from repro.store.db import CampaignDB

    def golden_steps(args, kwargs):
        return lambda profile: {"golden_steps": profile.golden_steps if profile else 0}

    def semantic_total(args, kwargs):
        return lambda sel: {"points_total": sel.total_points if sel else 0}

    def context_selected(args, kwargs):
        return lambda sel: {"points_selected": sel.selected_points if sel else 0}

    def scheduler_steps(args, kwargs):
        sched = args[0]
        before = sched.steps
        return lambda _result: {"steps": sched.steps - before}

    def served_tasks(args, kwargs):
        tasks = args[2] if len(args) > 2 else kwargs["tasks"]
        n = len(tasks)
        return lambda _result: {"tasks": n}

    for owner in (fastfit_mod, profiling_pkg):
        rec.wrap(owner, "profile_application", "profiling.profile", golden_steps)
    for owner in (fastfit_mod, pruning_pkg):
        rec.wrap(owner, "select_semantic", "pruning.prune", semantic_total)
        rec.wrap(owner, "select_context", "pruning.prune", context_selected)
    rec.wrap(Scheduler, "run", "simmpi.run", scheduler_steps)
    rec.wrap(Campaign, "run_point", "injection.point")
    rec.wrap(InjectionRunner, "run_one", "injection.run_one")
    for attr in ("classify_completion", "classify_error", "classify_harness_error"):
        rec.wrap(InjectionRunner, attr, "injection.classify")
    rec.wrap(SnapshotEngine, "serve_point", "snapshot.serve", served_tasks)
    # The engine reaches fork/read/waitpid through its module global
    # ``os``: give it a copy of the os namespace with those three wrapped.
    # The parent reads a child's result until the child closes the pipe,
    # so the reads cover the child's whole run (continuation, classify,
    # pickle); ``waitpid`` is then the reap alone.
    engine_os = types.SimpleNamespace(**vars(os))
    rec.wrap(engine_os, "fork", "snapshot.fork")
    rec.wrap(engine_os, "read", "snapshot.child_run")
    rec.wrap(engine_os, "waitpid", "snapshot.reap_wait")
    rec.patch(engine_mod, "os", engine_os)
    rec.wrap(supervisor_mod, "connection_wait", "exec.wait")
    rec.wrap(CampaignDB, "record_unit", "store.commit")
    rec.wrap(RandomForestClassifier, "fit", "ml.fit")
    rec.wrap(RandomForestClassifier, "predict_proba", "ml.predict")
    rec.wrap(RandomForestClassifier, "predict", "ml.predict")
    rec.wrap(steer_driver_mod, "select_batch", "steer.select")


# -- metric assembly ---------------------------------------------------


def _under(spans: list[Span], i: int, ancestor: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == ancestor:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    Totals (counts, summed seconds) are per traced round; ``_p50``,
    ``_tail`` and ``_n`` pool every sample of the run.  Spans under
    ``phase.gate`` (the correctness gate's from-scratch replays) feed
    only the ``run_one`` and ``classify`` timings.
    """
    per = 1.0 / max(1, rounds)
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    everywhere: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        everywhere[s.name].append(i)
        if s.name != "phase.gate" and not _under(spans, i, "phase.gate"):
            by_name[s.name].append(i)

    def dur(name, pool=by_name):
        return [spans[i].duration for i in pool[name]]

    def total(name):
        return sum(dur(name))

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name[name])

    out: dict[str, float] = {}

    def timing(prefix, name, pool=by_name):
        p50, tail, n = p50_tail(d * 1e3 for d in dur(name, pool))
        out[f"{prefix}_p50"], out[f"{prefix}_tail"], out[f"{prefix}_n"] = p50, tail, n

    profile_s = total("profiling.profile")
    golden = attr_sum("profiling.profile", "golden_steps")
    out["profiling.profile_s"] = profile_s * per
    out["profiling.golden_steps"] = golden * per
    out["profiling.us_per_step"] = profile_s / golden * 1e6 if golden else 0.0

    out["pruning.prune_s"] = total("pruning.prune") * per
    out["pruning.points_total"] = attr_sum("pruning.prune", "points_total") * per
    out["pruning.points_selected"] = attr_sum("pruning.prune", "points_selected") * per

    sim_self = sum(selfs[i] for i in by_name["simmpi.run"])
    steps = attr_sum("simmpi.run", "steps")
    out["simmpi.steps"] = steps * per
    out["simmpi.run_s"] = sim_self * per
    out["simmpi.us_per_step"] = sim_self / steps * 1e6 if steps else 0.0

    out["injection.run_one_calls"] = len(by_name["injection.run_one"]) * per
    timing("injection.run_one_ms", "injection.run_one", everywhere)
    timing("injection.classify_ms", "injection.classify", everywhere)
    timing("injection.point_ms", "injection.point")

    forks = len(by_name["snapshot.fork"])
    sent = attr_sum("snapshot.serve", "tasks")
    out["snapshot.serve_calls"] = len(by_name["snapshot.serve"]) * per
    out["snapshot.forks"] = forks * per
    timing("snapshot.fork_ms", "snapshot.fork")
    out["snapshot.child_run_s"] = total("snapshot.child_run") * per
    out["snapshot.reap_wait_s"] = total("snapshot.reap_wait") * per
    out["snapshot.prefix_s"] = (
        sum(selfs[i] for i in by_name["simmpi.run"] if _under(spans, i, "snapshot.serve")) * per
    )
    out["snapshot.served_frac"] = forks / sent if sent else 0.0

    out["exec.wait_s"] = total("exec.wait") * per
    out["store.commits"] = len(by_name["store.commit"]) * per
    timing("store.commit_ms", "store.commit")
    out["ml.fits"] = len(by_name["ml.fit"]) * per
    out["ml.fit_s"] = total("ml.fit") * per
    out["ml.predict_s"] = total("ml.predict") * per
    out["steer.select_s"] = total("steer.select") * per

    # How much of the injection phase the layers explain: fork, reap and
    # the parent's own simulation; then the same plus the children's run
    # time as the parent waits it out.
    inject = total("phase.inject")

    def inside(name):
        return sum(spans[i].duration for i in by_name[name] if _under(spans, i, "phase.inject"))

    explained = inside("snapshot.fork") + inside("snapshot.reap_wait") + sum(
        selfs[i] for i in by_name["simmpi.run"] if _under(spans, i, "phase.inject")
    )
    with_children = explained + inside("snapshot.child_run")
    out["trace.inject_s"] = inject * per
    out["trace.accounted_frac"] = explained / inject if inject else 0.0
    out["trace.accounted_child_frac"] = with_children / inject if inject else 0.0
    out["trace.spans"] = len(spans) * per
    return out
