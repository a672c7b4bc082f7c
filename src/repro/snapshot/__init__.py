"""Snapshot-and-fork injection serving (prefix amortization).

Every test at one injection point shares a bit-identical fault-free
prefix; this package runs that prefix once, parks the job at the target
collective entry, and serves each test by forking the parked parent —
the ZOFI fork model applied to the simulated-MPI campaign engine, with
a :class:`SimSnapshot` + deterministic fast-forward restore path (the
DAVOS ``ColdRestore`` analogue) so re-served points skip the scheduler
entirely.

Entry points: :class:`PointServer` (used by ``Campaign`` and the
parallel workers) serves each point by fork or from scratch, choosing
per point with :func:`fork_pays` under the default ``snapshot=None``;
:class:`SnapshotEngine` does the forking.
"""

from .cache import DEFAULT_CACHE_BYTES, SnapshotCache
from .engine import SnapshotEngine, snapshot_supported
from .serving import FORK_MIN_PREFIX_STEPS, PointServer, fork_pays, serving_summary
from .mutants import SNAPSHOT_MUTANTS, active_mutant, seeded_snapshot_mutant
from .snapshot import (
    FastForwardDiverged,
    FiberLog,
    FiberSnap,
    RestoredJob,
    SimSnapshot,
    fast_forward,
    instrument_fibers,
    take_snapshot,
    verify_restored,
)

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "FORK_MIN_PREFIX_STEPS",
    "SNAPSHOT_MUTANTS",
    "FastForwardDiverged",
    "FiberLog",
    "FiberSnap",
    "PointServer",
    "RestoredJob",
    "SimSnapshot",
    "SnapshotCache",
    "SnapshotEngine",
    "active_mutant",
    "fast_forward",
    "fork_pays",
    "instrument_fibers",
    "seeded_snapshot_mutant",
    "serving_summary",
    "snapshot_supported",
    "take_snapshot",
    "verify_restored",
]
