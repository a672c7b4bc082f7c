"""FastFIT campaign benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload npb_shallow --seed 1 --seconds 30 --trace 0

Repeats rounds of the chosen workload (see workloads.py) for about
``--seconds`` seconds, checks every answer (the correctness gate and the
FD/child-process hygiene check), and prints a provenance line followed,
as the last line, by one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (totals over the run's rounds);
``--trace 1`` runs untraced and traced rounds in pairs and reports the
per-layer metrics of the traced rounds plus ``trace.overhead_frac``.
The program is imported from ``src/`` of the same checkout; without it
the benchmark exits with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"


def declared_metrics(kind: str) -> dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; the one list of names the run prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_program():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {src}\n")
        sys.exit(2)
    # Modules the campaign paths import lazily: load them before any
    # round so no round pays first-import cost.
    import repro.exec.parallel  # noqa: F401
    import repro.snapshot  # noqa: F401
    import repro.steer  # noqa: F401
    import repro.store  # noqa: F401

    return repro


# -- hygiene -----------------------------------------------------------------


def open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


def children() -> dict[int, str]:
    """pid -> state letter of every child process (zombies included)."""
    me, out = os.getpid(), {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces, so split
        # after the last parenthesis.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == me:
            out[int(entry)] = fields[0]
    return out


def hygiene_problems(fds_before: set[str], kids_before: dict[int, str]) -> list[str]:
    gc.collect()
    problems = []
    # The listing opens one descriptor of its own, the same in both.
    leaked = len(open_fds()) - len(fds_before)
    if leaked > 0:
        problems.append(f"{leaked} file descriptor(s) leaked")
    for pid, state in children().items():
        if pid not in kids_before:
            problems.append(f"child {pid} left {'a zombie' if state == 'Z' else 'running'}")
    return problems


# -- provenance ----------------------------------------------------------------


def git_commit() -> str:
    """HEAD's commit read from ``.git`` directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- the run ---------------------------------------------------------------------


def time_setup(setup, seed: int, r: int, tmp: Path) -> float:
    gc.collect()
    t0 = time.perf_counter()
    setup(seed, r, tmp)
    return time.perf_counter() - t0


def run_rounds(name: str, seed: int, seconds: float, trace: bool, ledger, tmp: Path):
    """Rounds of workload ``name`` until the next would overrun ``seconds``.

    Untraced: one round per round seed, with the workload's set-up timed
    alone around it as many times as SETUP_SAMPLES says.  Traced: a pair
    per seed, one round untraced and one traced, alternating which goes
    first.  All rounds run in this one process, so whatever a campaign
    leaves behind (heap it keeps resident, say) weighs on the rounds
    after it.
    Returns ``(rounds, traced_rounds, recorder, overhead_fracs)``.
    """
    from workloads import SETUP_SAMPLES, WORKLOADS, round_seed

    workload = WORKLOADS[name]
    setup, extra = SETUP_SAMPLES[name]
    rec = ledger.SpanRecorder() if trace else None
    rounds, traced, overheads = [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        s = round_seed(seed, r)
        if not trace:
            # Half the set-up samples before the round and half after, so
            # that with the round's own they span the round's time.
            samples = [time_setup(setup, s, r, tmp) for _ in range(extra // 2)]
            gc.collect()
            rnd = workload(s, r, None, tmp)
            samples += [time_setup(setup, s, r, tmp) for _ in range(extra - extra // 2)]
            rnd.setup_extra = samples
            rounds.append(rnd)
            unit = [x.wall_s + sum(x.setup_extra) for x in rounds]
        else:
            pair = {}
            for traced_first in ((False, True) if r % 2 == 0 else (True, False)):
                gc.collect()
                if traced_first:
                    ledger.install_probes(rec)
                    try:
                        pair[True] = workload(s, r, rec, tmp)
                    finally:
                        rec.restore()
                else:
                    pair[False] = workload(s, r, None, tmp)
            rounds += [pair[False], pair[True]]
            traced.append(pair[True])
            overheads.append(pair[True].wall_s / pair[False].wall_s - 1.0)
            unit = [a.wall_s + b.wall_s for a, b in zip(rounds[::2], rounds[1::2])]
        r += 1
        if time.perf_counter() - start + statistics.median(unit) > seconds:
            return rounds, traced, rec, overheads


def totals(rounds) -> tuple[int, int]:
    """``(attempted, failed)`` tests over ``rounds``."""
    return sum(r.tests for r in rounds), sum(r.failed for r in rounds)


def end_to_end(rounds) -> tuple[dict, dict]:
    """The run's value of each metric, and each metric's per-round values.

    Times and rates are taken over the whole run: ``wall_s`` is the mean
    round, ``setup_s`` the mean of every set-up sample, ``tests_per_s``
    and ``cpu_ms_per_test`` the run's tests over its injection time and
    CPU.  On a 2-vCPU host whose vCPUs take turns running up to 1.8x
    slower for seconds at a time, and with tests of which a rare one
    lasts tens of times the others, a run's few rounds fall into a fast
    and a slow group; a median over them jumps between the groups where
    a total over the run averages them.  ``peak_rss_mb`` is the median
    of the rounds' peaks.  A round's own ``setup_s`` (in the series) is
    the mean of its set-up samples."""
    n_tests = sum(r.tests for r in rounds)
    values = {
        "setup_s": statistics.fmean([s for r in rounds for s in (r.setup_s, *r.setup_extra)]),
        "wall_s": statistics.fmean(r.wall_s for r in rounds),
        "tests_per_s": n_tests / sum(r.inject_s for r in rounds),
        "cpu_ms_per_test": sum(r.cpu_s for r in rounds) * 1e3 / n_tests,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
    }
    series = {
        "setup_s": [statistics.fmean([r.setup_s, *r.setup_extra]) for r in rounds],
        "wall_s": [r.wall_s for r in rounds],
        "tests_per_s": [r.tests / r.inject_s for r in rounds],
        "cpu_ms_per_test": [r.cpu_s * 1e3 / r.tests for r in rounds],
        "peak_rss_mb": [r.peak_rss_mb for r in rounds],
    }
    return values, series


def golden_ms(apps) -> dict[str, float]:
    """Fault-free ``run_app`` per app (median of 3, one run at class S)."""
    from repro.apps import make_app
    from repro.simmpi import run_app

    out = {}
    for name, klass in apps:
        app = make_app(name, klass)
        times = []
        for _ in range(3 if klass == "T" else 1):
            t0 = time.perf_counter()
            run_app(app.main, app.nranks)
            times.append((time.perf_counter() - t0) * 1e3)
        out[f"{name}/{klass}"] = statistics.median(times)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import numpy as np

    sys.path.insert(0, str(Path(__file__).parent))
    import ledger
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choices: {', '.join(workloads.WORKLOADS)}")
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)

    fds_before, kids_before = open_fds(), children()
    rounds, traced, rec, overheads = run_rounds(
        args.workload, args.seed, args.seconds, bool(args.trace), ledger, tmp
    )

    problems = []
    replays = [rep for rnd in rounds for rep in rnd.replays][: workloads.REPLAYS_PER_RUN]
    if rec is None:
        problems += workloads.replay_mismatches(replays)
    else:
        # Traced, the replays give the from-scratch run_one/classify
        # timings that forked children keep to themselves.
        ledger.install_probes(rec)
        try:
            with rec.span("phase.gate"):
                problems += workloads.replay_mismatches(replays)
        finally:
            rec.restore()
    problems += workloads.FingerprintStore(STATE / "fingerprints.json", args.workload).check(rounds)
    if args.workload == "table3_setup":
        problems += workloads.table3_mismatches(rounds)
    golden = golden_ms(workloads.GOLDEN_APPS[args.workload]) if args.trace else {}
    problems += hygiene_problems(fds_before, kids_before)

    attempted, failed = totals(rounds)
    run_values, series = end_to_end(rounds)
    if args.trace:
        values = ledger.layer_metrics(rec.spans, len(traced))
        for key in workloads.ROUND_LAYERS:
            values[key] = statistics.mean(r.layers[key] for r in traced)
        values["simmpi.golden_ms"] = sum(golden.values())
        values["trace.overhead_frac"] = statistics.median(overheads)
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in declared_metrics("per_layer").items()
        }
    else:
        metrics = {
            name: {"value": run_values[name], "unit": unit}
            for name, unit in declared_metrics("end_to_end").items()
        }

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "round_seeds": [r.seed for r in rounds],
        "trace": args.trace,
        "sizes": workloads.SIZES[args.workload],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "rounds": len(rounds),
        "per_round": series,
        "spread_iqr_frac": {k: ledger.iqr_frac(v) for k, v in series.items()},
        "failed_frac": failed / attempted if attempted else 0.0,
        "replayed": len(replays),
        "golden_ms": golden,
        "problems": problems,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    correct = not problems and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
